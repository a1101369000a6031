/**
 * @file
 * Shared helpers for the figure/table reproduction benches: scheme
 * runners, normalization against TPU/SuperNPU baselines, common
 * printing, a wall-clock Timer, and a minimal JSON emitter for perf
 * trajectories. The figure helpers evaluate their (model, scheme)
 * grids through accel::runBatch, so every bench is a multi-core batch
 * workload (serial under SMART_THREADS=1, bit-identical results).
 */

#ifndef SMART_BENCH_UTIL_HH
#define SMART_BENCH_UTIL_HH

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "accel/batch.hh"
#include "accel/energy.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "common/jsonreport.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace smart::bench
{

/** Wall-clock stopwatch for bench timing. */
class Timer
{
  public:
    Timer() : start_(std::chrono::steady_clock::now()) {}

    /** Restart the stopwatch. */
    void reset() { start_ = std::chrono::steady_clock::now(); }

    /** Elapsed wall-clock milliseconds since construction/reset. */
    double ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/** One named measurement of a JSON bench report. */
using JsonMetric = std::pair<std::string, double>;

/**
 * Peak resident set size of this process in MB (0 on platforms
 * without getrusage). Part of the tracked perf trajectory: a PR that
 * bloats working memory shows up in BENCH_micro.json history even if
 * its timings hold steady.
 */
inline double
peakRssMb()
{
#if defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#elif defined(__unix__)
    struct rusage ru; // ru_maxrss is KB on Linux
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0.0;
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#else
    return 0.0;
#endif
}

/**
 * Write a flat bench report ({"bench": ..., "threads": N,
 * "metrics": {...}}) to @p path; metric values are milliseconds unless
 * the metric name says otherwise. A peak_rss_mb metric (measured at
 * write time) is appended to every report.
 */
inline void
writeBenchJson(const std::string &path, const std::string &bench,
               const std::vector<JsonMetric> &metrics)
{
    std::ofstream os(path);
    if (!os) {
        smart_warn("cannot write bench JSON to ", path);
        return;
    }
    std::vector<JsonMetric> flat = metrics;
    flat.emplace_back("peak_rss_mb", peakRssMb());
    writeFlatMetricsJson(os, bench, flat);
    std::cout << "wrote " << path << "\n";
}

/** True when the command line requests JSON output (--json). */
inline bool
jsonMode(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json")
            return true;
    return false;
}

/** One model's result under one scheme. */
struct RunPoint
{
    double throughputTmacs = 0.0;
    double utilization = 0.0;
    double energyPerImageJ = 0.0; //!< Cooling included.
    accel::EnergyBreakdown breakdown;
    double seconds = 0.0;
};

/** Run one conv-trunk model on one configuration. */
inline RunPoint
runModel(const accel::AcceleratorConfig &cfg, const std::string &model,
         int batch)
{
    auto net = cnn::convLayersOnly(cnn::makeModel(model));
    auto r = accel::runInference(cfg, net, batch);
    auto e = accel::computeEnergy(cfg, r);
    RunPoint p;
    p.throughputTmacs = r.throughputTmacs();
    p.utilization = r.utilization(cfg);
    p.energyPerImageJ = e.totalJ(cfg.coolingFactor).value() / batch;
    p.breakdown = e;
    p.seconds = r.seconds;
    return p;
}

/** Paper batch size for a (model, scheme) pair; 1 if single-image. */
inline int
batchOf(const std::string &model, accel::Scheme s, bool batch_mode)
{
    if (!batch_mode)
        return 1;
    return cnn::paperBatchSize(model, s == accel::Scheme::SuperNpu);
}

/** The five SPM schemes of Figs. 18-21, in figure order. */
inline const std::vector<accel::Scheme> &
figureSchemes()
{
    static const std::vector<accel::Scheme> schemes = {
        accel::Scheme::SuperNpu, accel::Scheme::Sram,
        accel::Scheme::Heter, accel::Scheme::Pipe, accel::Scheme::Smart,
    };
    return schemes;
}

/**
 * The full (model x [TPU + schemes]) evaluation grid of Figs. 18-21:
 * per model, the TPU baseline followed by the five schemes. Evaluated
 * in one runBatch call so the grid fans out as tasks on the task
 * scheduler.
 */
inline std::vector<accel::BatchItem>
figureGrid(bool batch_mode)
{
    std::vector<accel::BatchItem> items;
    for (const auto &model : cnn::modelNames()) {
        auto net = cnn::convLayersOnly(cnn::makeModel(model));
        accel::BatchItem tpu;
        tpu.cfg = accel::makeTpu();
        tpu.model = net;
        tpu.batch = batchOf(model, accel::Scheme::Tpu, batch_mode);
        items.push_back(std::move(tpu));
        for (auto s : figureSchemes()) {
            accel::BatchItem item;
            item.cfg = accel::makeScheme(s);
            item.model = net;
            item.batch = batchOf(model, s, batch_mode);
            items.push_back(std::move(item));
        }
    }
    return items;
}

/** Derive a RunPoint from one evaluated grid item. */
inline RunPoint
toRunPoint(const accel::BatchItem &item,
           const accel::InferenceResult &r)
{
    auto e = accel::computeEnergy(item.cfg, r);
    RunPoint p;
    p.throughputTmacs = r.throughputTmacs();
    p.utilization = r.utilization(item.cfg);
    p.energyPerImageJ =
        e.totalJ(item.cfg.coolingFactor).value() / item.batch;
    p.breakdown = e;
    p.seconds = r.seconds;
    return p;
}

/**
 * Print a Figs. 18/19-style speedup table: rows = models + gmean,
 * columns = schemes, values normalized to the TPU baseline.
 */
inline void
printSpeedupFigure(const std::string &title, bool batch_mode)
{
    setInformEnabled(false);
    Table t({"model", "SHIFT", "SRAM", "Heter", "Pipe", "SMART"});
    std::vector<std::vector<double>> cols(figureSchemes().size());

    const auto items = figureGrid(batch_mode);
    const auto results = accel::runBatch(items);
    const std::size_t stride = 1 + figureSchemes().size();

    for (std::size_t mi = 0; mi < cnn::modelNames().size(); ++mi) {
        const std::size_t base = mi * stride;
        RunPoint tpu = toRunPoint(items[base], results[base]);
        auto row = t.row();
        row.cell(cnn::modelNames()[mi]);
        for (std::size_t i = 0; i < figureSchemes().size(); ++i) {
            RunPoint p =
                toRunPoint(items[base + 1 + i], results[base + 1 + i]);
            const double norm =
                p.throughputTmacs / tpu.throughputTmacs;
            cols[i].push_back(norm);
            row.num(norm, 2);
        }
    }
    auto g = t.row();
    g.cell("gmean");
    for (auto &c : cols)
        g.num(geomean(c), 2);

    printBanner(std::cout, title);
    std::cout << "normalized inference throughput (TPU = 1.0)\n";
    t.print(std::cout);
}

/**
 * Print a Figs. 20/21-style energy table: per-model energy normalized
 * to TPU, plus the SMART breakdown shares.
 */
inline void
printEnergyFigure(const std::string &title, bool batch_mode)
{
    setInformEnabled(false);
    Table t({"model", "SHIFT", "SRAM", "Heter", "Pipe", "SMART",
             "SMART mtx%", "SMART dyn%", "SMART sta%"});
    std::vector<std::vector<double>> cols(figureSchemes().size());

    const auto items = figureGrid(batch_mode);
    const auto results = accel::runBatch(items);
    const std::size_t stride = 1 + figureSchemes().size();

    for (std::size_t mi = 0; mi < cnn::modelNames().size(); ++mi) {
        const std::size_t base = mi * stride;
        RunPoint tpu = toRunPoint(items[base], results[base]);
        auto row = t.row();
        row.cell(cnn::modelNames()[mi]);
        RunPoint smart_p;
        for (std::size_t i = 0; i < figureSchemes().size(); ++i) {
            RunPoint p =
                toRunPoint(items[base + 1 + i], results[base + 1 + i]);
            if (figureSchemes()[i] == accel::Scheme::Smart)
                smart_p = p;
            const double norm =
                p.energyPerImageJ / tpu.energyPerImageJ;
            cols[i].push_back(norm);
            row.sci(norm, 2);
        }
        const double phys = smart_p.breakdown.physicalJ().value();
        row.num(100.0 * smart_p.breakdown.matrixJ.value() / phys, 0);
        row.num(100.0 * smart_p.breakdown.spmDynamicJ.value() / phys, 0);
        row.num(100.0 * smart_p.breakdown.spmStaticJ.value() / phys, 0);
    }
    auto g = t.row();
    g.cell("gmean");
    for (auto &c : cols)
        g.sci(geomean(c), 2);
    g.cell("-").cell("-").cell("-");

    printBanner(std::cout, title);
    std::cout << "normalized inference energy (TPU = 1.0, cooling "
                 "included)\n";
    t.print(std::cout);
}

/**
 * Sensitivity helper (Figs. 22-25): gmean SMART speedup over SuperNPU
 * across the six models for a configuration mutation.
 */
template <typename Mutate>
inline std::pair<double, double>
smartSensitivity(Mutate &&mutate)
{
    setInformEnabled(false);
    std::vector<accel::BatchItem> items;
    for (const auto &model : cnn::modelNames()) {
        auto net = cnn::convLayersOnly(cnn::makeModel(model));
        auto npu_cfg = accel::makeSuperNpu();
        auto smart_cfg = accel::makeSmart();
        mutate(smart_cfg);
        items.push_back({npu_cfg, net, 1});
        items.push_back(
            {npu_cfg, net, cnn::paperBatchSize(model, true)});
        items.push_back({smart_cfg, net, 1});
        items.push_back(
            {smart_cfg, net, cnn::paperBatchSize(model, false)});
    }
    const auto results = accel::runBatch(items);

    std::vector<double> single, batch;
    for (std::size_t mi = 0; mi < cnn::modelNames().size(); ++mi) {
        const auto *r = &results[mi * 4];
        single.push_back(r[2].throughputTmacs() /
                         r[0].throughputTmacs());
        batch.push_back(r[3].throughputTmacs() /
                        r[1].throughputTmacs());
    }
    return {geomean(single), geomean(batch)};
}

} // namespace smart::bench

#endif // SMART_BENCH_UTIL_HH
