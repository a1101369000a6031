#include "cryomem/dse.hh"

#include "common/taskgraph.hh"
#include "common/units.hh"
#include "sfq/devices.hh"

namespace smart::cryo
{

Gigahertz
maxPipelineFreqGhz()
{
    // The nTron stage cannot be split further (Sec. 4.2.4).
    return units::psToGhz(sfq::ntronParams().latencyPs);
}

std::vector<DsePoint>
sweepPipelineFrequency(const CmosSfqArrayConfig &base,
                       const std::vector<double> &freqs_ghz)
{
    // Design-space points are independent: evaluate them as scheduler
    // tasks, each writing its own pre-sized slot so the result order
    // (and every bit of it) matches a serial sweep. One uneven point
    // does not serialize the sweep — idle threads take its neighbors.
    std::vector<DsePoint> points(freqs_ghz.size());
    pFor(freqs_ghz.size(), [&](std::size_t i) {
        const Gigahertz f{freqs_ghz[i]};
        DsePoint &p = points[i];
        p.targetFreqGhz = f;
        if (f > maxPipelineFreqGhz() + Gigahertz{1e-9})
            return;
        CmosSfqArrayConfig cfg = base;
        cfg.targetFreqGhz = f;
        cfg.matsPerSubbank = 0; // re-derive per point
        CmosSfqArrayModel model(cfg);

        p.feasible = true;
        p.achievedFreqGhz = model.pipelineFreqGhz();
        p.matsPerSubbank = model.matsPerSubbank();
        p.repeaters = model.requestTree().repeaters;
        // Fig. 14 plots the overheads that grow with frequency: per-MAT
        // peripherals and H-tree bias power (cell leakage is constant
        // across the sweep and excluded, as the Sec. 4.2.4 discussion
        // attributes the growth to added peripherals).
        p.leakageMw = units::wToMw(
            model.subbank().peripheralLeakageW() * cfg.banks +
            model.requestTree().leakageW * 2.0);
        p.energyPerAccessNj = units::jToNj(model.readEnergyJ());
        p.areaMm2 = units::um2ToMm2(model.area().totalUm2());
    });
    return points;
}

} // namespace smart::cryo
