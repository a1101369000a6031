#include "compiler/schedule.hh"

#include <sstream>

#include "common/logging.hh"

namespace smart::compiler
{

std::string
SchedParams::cacheKey() const
{
    std::ostringstream os;
    os.precision(17);
    os << shiftCapacityBytes.value() << ',' << randomCapacityBytes.value()
       << ','
       << shiftCyclesPerAccess << ',' << randomCyclesPerAccess << ','
       << dramCyclesPerAccess << ',' << hrBandwidthBytesPerCycle << ','
       << dramBandwidthBytesPerCycle << ',' << prefetchIterations << ','
       << hasRandomArray;
    return os.str();
}

const char *
placementName(Placement p)
{
    switch (p) {
      case Placement::Shift:
        return "SHIFT";
      case Placement::Random:
        return "RANDOM";
      case Placement::Dram:
        return "DRAM";
    }
    smart_panic("unknown placement");
}

const char *
qualityName(Quality q)
{
    switch (q) {
      case Quality::Optimal:
        return "optimal";
      case Quality::Greedy:
        return "greedy";
    }
    smart_panic("unknown quality");
}

double
Schedule::servedFraction(const LayerDag &dag, ObjClass c,
                         Placement p) const
{
    smart_assert(decisions.size() == dag.objects.size(),
                 "schedule does not match DAG");
    std::uint64_t total = 0;
    std::uint64_t matched = 0;
    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        if (dag.objects[i].cls != c)
            continue;
        total += dag.objects[i].accesses;
        if (decisions[i].placement == p)
            matched += dag.objects[i].accesses;
    }
    return total ? static_cast<double>(matched) / total : 0.0;
}

std::uint64_t
Schedule::stagedBytes(const LayerDag &dag) const
{
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < dag.objects.size(); ++i)
        if (decisions[i].placement == Placement::Shift)
            bytes += dag.objects[i].bytes;
    return bytes;
}

std::uint64_t
Schedule::dramBytes(const LayerDag &dag) const
{
    std::uint64_t bytes = 0;
    for (std::size_t i = 0; i < dag.objects.size(); ++i)
        if (decisions[i].placement == Placement::Dram)
            bytes += dag.objects[i].bytes;
    return bytes;
}

double
Schedule::prefetchedFraction(const LayerDag &dag) const
{
    // Any on-chip placement (SHIFT staging or RANDOM residency) whose
    // load was issued ahead of its iteration hides its fetch time.
    // Iteration 0 has nothing to hide behind and is excluded from the
    // denominator.
    std::uint64_t staged = 0;
    std::uint64_t early = 0;
    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        if (decisions[i].placement == Placement::Dram)
            continue;
        if (dag.objects[i].iteration == 0)
            continue;
        staged += dag.objects[i].bytes;
        if (decisions[i].prefetched)
            early += dag.objects[i].bytes;
    }
    return staged ? static_cast<double>(early) / staged : 0.0;
}

bool
validateSchedule(const LayerDag &dag, const SchedParams &params,
                 const Schedule &schedule)
{
    if (schedule.decisions.size() != dag.objects.size())
        return false;

    // Per-iteration SHIFT occupancy: resident objects of the iteration
    // plus objects prefetched for the following window.
    for (int n = 0; n < dag.iterations; ++n) {
        std::uint64_t shift_bytes = 0;
        std::uint64_t random_bytes = 0;
        for (std::size_t i = 0; i < dag.objects.size(); ++i) {
            const auto &o = dag.objects[i];
            const auto &d = schedule.decisions[i];
            const bool resident = o.iteration == n;
            const bool prefetch_window =
                d.prefetched && o.iteration > n &&
                o.iteration <= n + params.prefetchIterations - 1;
            if (!resident && !prefetch_window)
                continue;
            if (d.placement == Placement::Shift)
                shift_bytes += o.bytes;
            else if (d.placement == Placement::Random)
                random_bytes += o.bytes;
        }
        if (shift_bytes > params.shiftCapacityBytes.value() * 4)
            return false; // 4 classes, each with a private SHIFT array
        if (random_bytes > params.randomCapacityBytes.value())
            return false;
    }

    // No RANDOM placements when the scheme has no RANDOM array; no
    // prefetch when the window is 1; PSums never live in DRAM.
    for (std::size_t i = 0; i < dag.objects.size(); ++i) {
        const auto &d = schedule.decisions[i];
        if (!params.hasRandomArray && d.placement == Placement::Random)
            return false;
        if (params.prefetchIterations <= 1 && d.prefetched)
            return false;
        if (dag.objects[i].cls == ObjClass::Psum &&
            d.placement == Placement::Dram)
            return false;
        if (d.prefetched && dag.objects[i].iteration == 0)
            return false; // nothing precedes the first iteration
    }
    return true;
}

} // namespace smart::compiler
