/**
 * @file
 * End-to-end performance model: per-layer compute cycles plus SPM
 * service times under each scheme's memory system, composed into
 * inference latency and throughput (paper Sec. 6).
 *
 * Service semantics: per-layer input/weight/output services overlap
 * with compute and each other (double buffering), so the layer time is
 * the maximum of the streams plus the serial inter-layer costs
 * (re-layout for SHIFT-only SPMs, staging latency without prefetch,
 * DRAM spills when the working set exceeds on-chip capacity).
 */

#ifndef SMART_ACCEL_PERF_HH
#define SMART_ACCEL_PERF_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "accel/config.hh"
#include "cnn/models.hh"
#include "compiler/schedule.hh"
#include "systolic/trace.hh"

namespace smart::accel
{

/** Access/energy counters a layer run accumulates. */
struct LayerCounters
{
    double shiftSteps = 0;      //!< SHIFT lane shift steps.
    double shiftLaneBytes = 0;  //!< Lane size behind those steps.
    double randomReadBytes = 0; //!< RANDOM array read traffic.
    double randomWriteBytes = 0;
    double dramBytes = 0;       //!< Off-chip traffic.
    double macs = 0;            //!< Multiply-accumulates executed.
};

/** Per-layer performance result. */
struct LayerResult
{
    std::string name;
    Cycles computeCycles = 0;   //!< Ideal (stall-free) cycles.
    Cycles inputService = 0;    //!< Input SPM service cycles.
    Cycles weightService = 0;
    Cycles outputService = 0;   //!< Output + PSum service cycles.
    Cycles serialOverhead = 0;  //!< Re-layout / staging latency / spill.
    /**
     * Weight traffic from DRAM (cycles at the 300 GB/s interface).
     * Weights for later layers stream while earlier layers compute, so
     * this is aggregated at the inference level and maxed against the
     * on-chip time rather than added per layer.
     */
    Cycles weightDramCycles = 0;
    Cycles totalCycles = 0;
    LayerCounters counters;
    /**
     * Who produced the layer's SPM schedule and how far from optimal
     * it may be (see compiler::Schedule::gapBound). Layers that never
     * invoke the compiler (non-SMART schemes, useIlpCompiler=false)
     * have no scheduling choice and stay Optimal/0.
     */
    compiler::Quality schedQuality = compiler::Quality::Optimal;
    double schedGapBound = 0.0;
};

/** Whole-inference result. */
struct InferenceResult
{
    std::string model;
    std::string scheme;
    int batch = 1;
    Cycles totalCycles = 0;
    Cycles weightDramCycles = 0; //!< Aggregated weight streaming time.
    double seconds = 0.0;
    double totalMacs = 0.0;
    std::vector<LayerResult> layers;
    /**
     * Aggregate schedule quality: Optimal only when every scheduled
     * layer was ILP-optimal; Greedy as soon as any layer degraded.
     * The gap bound is the max over layers (-1 when any layer's gap
     * is unknown).
     */
    compiler::Quality schedQuality = compiler::Quality::Optimal;
    double schedGapBound = 0.0;
    /**
     * Layer schedules this call computed because the schedule memo
     * lacked them: 0 when the memo served every scheduled layer (a
     * layer that waited on another caller's in-flight solve counts as
     * served) and for schemes that schedule nothing. Run metadata,
     * not a simulated statistic: a cold and a warm run of the same
     * point differ here, and serialization leaves it out.
     */
    std::size_t schedulesComputed = 0;

    /** Achieved throughput (TMAC/s). */
    double throughputTmacs() const;
    /** Fraction of peak throughput achieved. */
    double utilization(const AcceleratorConfig &cfg) const;

    /** Summed counters over all layers. */
    LayerCounters totals() const;
};

/**
 * Which compiler pass schedules SPM placements: the ILP (optimal,
 * slow) or the greedy heuristic (anytime, fast). The serving tier's
 * graceful-degradation path selects Greedy under deadline pressure.
 */
enum class SchedMode
{
    Ilp,
    Greedy
};

/**
 * Run one model at the given batch size on a configuration; @p mode
 * selects the scheduling pass (Greedy for degraded serving). Layers
 * whose schedule the memo lacks are scheduled as tasks on the global
 * scheduler; every other layer evaluates inline on the caller.
 */
InferenceResult runInference(const AcceleratorConfig &cfg,
                             const cnn::CnnModel &model, int batch,
                             SchedMode mode = SchedMode::Ilp);

/** Run a single layer (exposed for tests and benches). */
LayerResult runLayer(const AcceleratorConfig &cfg,
                     const systolic::ConvLayer &layer, int batch,
                     SchedMode mode = SchedMode::Ilp);

/**
 * Scheduler parameters the ILP compiler pass runs with on @p cfg: the
 * SHIFT/RANDOM capacities and access costs of its memory hierarchy.
 * @p cfg must run the ILP compiler (a RANDOM-array scheme with
 * useIlpCompiler set).
 */
compiler::SchedParams ilpSchedParams(const AcceleratorConfig &cfg);

/**
 * Clear the internal memos (tests and cold benchmarks): the
 * ILP-schedule memo and the per-configuration cost memo (RANDOM array
 * timing, scheduler parameters and their key text, derived once per
 * distinct configuration).
 */
void clearIlpCache();

/** Entries in the ILP-schedule memo cache (tests and CI counters). */
std::size_t ilpCacheSize();

/**
 * Layer schedules ever computed into the memo (monotonic; eviction
 * and clearIlpCache() do not lower it). Its delta over a run counts
 * the schedules that run made, which ilpCacheSize() cannot once the
 * memo is at its cap.
 */
std::uint64_t ilpCacheInserts();

/**
 * Configuration costs ever derived into the cost memo (monotonic,
 * like ilpCacheInserts()): one per distinct configuration a run
 * evaluates while the memo holds it.
 */
std::uint64_t configCacheInserts();

} // namespace smart::accel

#endif // SMART_ACCEL_PERF_HH
