#include "accel/perf.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <type_traits>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"
#include "compiler/greedy.hh"
#include "compiler/ilpsched.hh"
#include "cryomem/cmos_sfq_array.hh"
#include "cryomem/random_array.hh"

namespace smart::accel
{

using systolic::LayerDemand;

double
InferenceResult::throughputTmacs() const
{
    return seconds > 0 ? totalMacs / seconds / 1e12 : 0.0;
}

double
InferenceResult::utilization(const AcceleratorConfig &cfg) const
{
    return throughputTmacs() / cfg.peakTmacs();
}

LayerCounters
InferenceResult::totals() const
{
    LayerCounters t;
    for (const auto &l : layers) {
        t.shiftSteps += l.counters.shiftSteps;
        t.shiftLaneBytes =
            std::max(t.shiftLaneBytes, l.counters.shiftLaneBytes);
        t.randomReadBytes += l.counters.randomReadBytes;
        t.randomWriteBytes += l.counters.randomWriteBytes;
        t.dramBytes += l.counters.dramBytes;
        t.macs += l.counters.macs;
    }
    return t;
}

namespace
{

// ----------------------------------------------------------------
// RANDOM array timing, normalized to accelerator cycles.
// ----------------------------------------------------------------

struct RandomTiming
{
    double busyReadCycles = 0.0;  //!< Bank-busy cycles per line read.
    double busyWriteCycles = 0.0; //!< Bank-busy cycles per line write.
    double readLatencyCycles = 0.0;  //!< Full dependent-access latency.
    double writeLatencyCycles = 0.0;
    double outstanding = 1.0;     //!< Requests in flight.
    double lineBytes = 16.0;      //!< Bytes per access line.
    int banks = 1;

    /** Streaming cycles to move @p bytes through all banks. */
    double streamCycles(double bytes, bool write) const
    {
        const double busy = write ? busyWriteCycles : busyReadCycles;
        return bytes / lineBytes * busy / banks;
    }
    /** Exposed latency of @p n dependent accesses. */
    double dependentCycles(double n, bool write) const
    {
        const double lat =
            write ? writeLatencyCycles : readLatencyCycles;
        return n * lat / outstanding;
    }
};

RandomTiming
randomTiming(const AcceleratorConfig &cfg, const SpmSpec &spec,
             cryo::MemTech tech)
{
    RandomTiming rt;
    rt.banks = std::max(1, spec.banks);
    const Picoseconds cycle_ps = cfg.cyclePs();

    if (tech == cryo::MemTech::CmosSfq) {
        cryo::CmosSfqArrayConfig ac;
        ac.capacityBytes = spec.capacityBytes;
        ac.banks = spec.banks;
        cryo::CmosSfqArrayModel model(ac);
        rt.busyReadCycles = model.stageTimePs() / cycle_ps;
        rt.busyWriteCycles = rt.busyReadCycles;
        rt.readLatencyCycles =
            units::nsToPs(model.readLatencyNs()) / cycle_ps;
        rt.writeLatencyCycles =
            units::nsToPs(model.writeLatencyNs()) / cycle_ps;
        // Gate-level pipelining keeps pipelineDepth requests in flight,
        // so a dependent stream advances one stage per access.
        rt.outstanding = model.pipelineDepth();
        rt.lineBytes = 16.0;
    } else {
        cryo::RandomArrayConfig ac;
        ac.tech = tech;
        ac.capacityBytes = spec.capacityBytes;
        ac.banks = spec.banks;
        cryo::RandomArrayModel model(ac);
        rt.busyReadCycles =
            units::nsToPs(model.bankBusyReadNs()) / cycle_ps;
        rt.busyWriteCycles =
            units::nsToPs(model.bankBusyWriteNs()) / cycle_ps;
        rt.readLatencyCycles =
            units::nsToPs(model.readLatencyNs()) / cycle_ps;
        rt.writeLatencyCycles =
            units::nsToPs(model.writeLatencyNs()) / cycle_ps;
        rt.outstanding = cfg.knobs.randomOutstanding;
        rt.lineBytes = tech == cryo::MemTech::JcsSram ? 16.0 : 4.0;
    }
    if (cfg.randomWriteLatencyNsOverride > Nanoseconds{}) {
        const double lat =
            units::nsToPs(cfg.randomWriteLatencyNsOverride) / cycle_ps;
        rt.busyWriteCycles = lat;
        rt.writeLatencyCycles = lat;
    }
    return rt;
}

/** Scheduler costs of the SHIFT/RANDOM hierarchy under @p rt. */
compiler::SchedParams
schedParams(const AcceleratorConfig &cfg, const RandomTiming &rt)
{
    compiler::SchedParams sp;
    sp.shiftCapacityBytes = ByteCount{cfg.inputSpm.capacityBytes};
    sp.randomCapacityBytes = ByteCount{cfg.randomArray.capacityBytes};
    sp.shiftCyclesPerAccess = 1.0 / cfg.inputSpm.banks;
    sp.randomCyclesPerAccess = rt.busyReadCycles / rt.banks;
    sp.dramCyclesPerAccess = 1.0 / cfg.dramBytesPerCycle();
    sp.hrBandwidthBytesPerCycle =
        rt.banks * rt.lineBytes / rt.busyReadCycles;
    sp.dramBandwidthBytesPerCycle = cfg.dramBytesPerCycle();
    sp.prefetchIterations = cfg.prefetchIterations;
    sp.hasRandomArray = true;
    return sp;
}

/**
 * What runLayer derives from the configuration alone: derived once per
 * distinct configuration and memoized process-wide (configCosts).
 */
struct ConfigCosts
{
    /** Input SPM timing (Sram) or RANDOM array timing (Heter+). */
    RandomTiming rt;
    compiler::SchedParams sp; //!< Set when the ILP compiler runs.
    std::string schedKey; //!< sp.cacheKey() once; empty: nothing schedules.
};

ConfigCosts
deriveConfigCosts(const AcceleratorConfig &cfg)
{
    ConfigCosts c;
    const bool sram = cfg.scheme == Scheme::Sram;
    c.rt = randomTiming(cfg, sram ? cfg.inputSpm : cfg.randomArray,
                        cfg.randomTech);
    if (!sram && cfg.useIlpCompiler) {
        c.sp = schedParams(cfg, c.rt);
        c.schedKey = c.sp.cacheKey();
    }
    return c;
}

/** Assign the bytes of @p fields, back to back, to @p key. */
template <typename... Field>
void
assignFieldBytes(std::string &key, const Field &...fields)
{
    // Scalars only: a struct would bring its padding bytes along.
    static_assert((std::is_scalar_v<Field> && ...));
    char buf[(sizeof(Field) + ...)];
    char *p = buf;
    ((std::memcpy(p, &fields, sizeof fields), p += sizeof fields), ...);
    key.assign(buf, sizeof buf);
}

/**
 * Build the config-memo key of @p cfg into @p key: every numeric field
 * but `name`, whether or not the derivation reads it. An unread field
 * only splits entries; a missing one could alias two configurations.
 */
void
configMemoKey(std::string &key, const AcceleratorConfig &cfg)
{
    const CalibrationKnobs &k = cfg.knobs;
    assignFieldBytes(
        key, cfg.scheme, cfg.pe.rows, cfg.pe.cols, cfg.clockGhz.value(),
        cfg.temperatureK, cfg.coolingFactor, cfg.inputSpm.capacityBytes,
        cfg.inputSpm.banks, cfg.outputSpm.capacityBytes,
        cfg.outputSpm.banks, cfg.weightSpm.capacityBytes,
        cfg.weightSpm.banks, cfg.spmsAreShift,
        cfg.randomArray.capacityBytes, cfg.randomArray.banks,
        cfg.randomTech, cfg.randomWriteLatencyNsOverride.value(),
        cfg.prefetchIterations, cfg.useIlpCompiler, cfg.dramBandwidthGBs,
        k.dauWindowBytes, k.interLayerReorderFactor, k.tpuEfficiency,
        k.shiftSegmentBytes, k.leakageActivityFactor,
        k.randomOutstanding);
}

/** Configuration-cost memo, shared by every evaluation worker. */
ShardedCache<std::shared_ptr<const ConfigCosts>> config_cache;

/**
 * The costs of @p cfg, derived on the first request for a distinct
 * configuration and looked up after that. @p key is scratch space.
 */
std::shared_ptr<const ConfigCosts>
configCosts(const AcceleratorConfig &cfg, std::string &key)
{
    // Tpu and SuperNpu read no derived cost.
    static const auto none = std::make_shared<const ConfigCosts>();
    if (cfg.scheme == Scheme::Tpu || cfg.scheme == Scheme::SuperNpu)
        return none;
    configMemoKey(key, cfg);
    return config_cache.getOrCompute(key, [&] {
        return std::make_shared<const ConfigCosts>(deriveConfigCosts(cfg));
    });
}

// ----------------------------------------------------------------
// ILP schedule memoization: the schedule depends only on the layer
// shape and the scheduler parameters, so sensitivity sweeps and batch
// variants reuse solved layers. The sharded-mutex cache is shared by
// all evaluation workers (parallel sweeps and runBatch hit it
// concurrently).
// ----------------------------------------------------------------

/** Memoized outcome of scheduling one layer. */
struct SchedOutcome
{
    double hidden = 0.0; //!< Prefetch-hidden fraction.
    compiler::Quality quality = compiler::Quality::Greedy;
    double gapBound = -1.0;
};

ShardedCache<SchedOutcome> ilp_cache;

/** Build the memo key of one layer's schedule into @p key. */
void
schedMemoKey(std::string &key, const systolic::ConvLayer &layer,
             const systolic::ArrayDims &pe, const ConfigCosts &costs,
             SchedMode mode)
{
    // The key must cover the full layer shape, the PE array the demand
    // was analyzed against, every SchedParams field, and the compiler
    // pass requested: the scheduler's costs read all of them, and a
    // sweep that mutates e.g. the staging bandwidth — or a degraded
    // request forcing the greedy pass — must not alias a cached entry.
    // The nine shape fields and the PE dims go in as fixed-width ints,
    // so the prefix is injective; the SchedParams key (formatted once
    // per inference) follows verbatim.
    const int shape[] = {layer.ifmapH,  layer.ifmapW,  layer.inChannels,
                         layer.filters, layer.kernelH, layer.kernelW,
                         layer.stride,  layer.pad,     layer.depthwise,
                         pe.rows,       pe.cols};
    key.assign(reinterpret_cast<const char *>(shape), sizeof shape);
    key += costs.schedKey;
    if (mode == SchedMode::Greedy)
        key += "|greedy";
}

SchedOutcome
cachedScheduleOutcome(const systolic::ConvLayer &layer,
                      const systolic::ArrayDims &pe,
                      const LayerDemand &d, const ConfigCosts &costs,
                      SchedMode mode, bool &computed)
{
    std::string key;
    schedMemoKey(key, layer, pe, costs, mode);
    const std::uint64_t traceId = TraceRecorder::currentTrace();
    computed = false;
    SchedOutcome out = ilp_cache.getOrCompute(key, [&]() {
        computed = true;
        // The span name carries the pass taken (Ilp/Greedy); the gap
        // bound rides as an integer arg in parts-per-million (-1 =
        // unknown, greedy passes report no bound).
        ScopedSpan span(traceId, mode == SchedMode::Greedy
                                     ? "schedule_greedy"
                                     : "schedule_ilp");
        compiler::LayerDag dag = compiler::buildLayerDag(layer, d);
        compiler::Schedule sched =
            mode == SchedMode::Greedy
                ? compiler::scheduleGreedy(dag, costs.sp)
                : compiler::scheduleIlp(dag, costs.sp);
        SchedOutcome out;
        out.hidden = sched.prefetchedFraction(dag);
        out.quality = sched.quality;
        out.gapBound = sched.gapBound;
        span.setArg(out.gapBound < 0.0
                        ? -1
                        : static_cast<std::int64_t>(out.gapBound * 1e6),
                    "gap_bound_ppm");
        return out;
    });
    if (!computed)
        TraceRecorder::global().instant(traceId, "schedule_memo_hit");
    return out;
}

/** DRAM spill beyond on-chip capacity, charged per layer (cycles). */
Cycles
spillCycles(const AcceleratorConfig &cfg,
            const systolic::ConvLayer &layer, int batch,
            LayerCounters &counters)
{
    const double ws =
        static_cast<double>(batch) *
            (layer.ifmapBytes() + layer.ofmapBytes()) +
        layer.weightBytes();
    const double cap = static_cast<double>(cfg.totalSpmBytes());
    const double spill = std::max(0.0, ws - cap);
    counters.dramBytes += spill;
    return static_cast<Cycles>(spill / cfg.dramBytesPerCycle());
}

/** Weight service: stream from the weight SPM (on-chip part only). */
Cycles
weightService(const AcceleratorConfig &cfg, const LayerDemand &d)
{
    const double w_acc = static_cast<double>(d.weightPortReads);
    const double banks = std::max(1, cfg.weightSpm.banks);
    return static_cast<Cycles>(w_acc / banks);
}

/**
 * Weight traffic that must come from DRAM because the weight SPM cannot
 * hold the layer's filters; streamed during earlier layers' compute and
 * therefore aggregated at the inference level.
 */
Cycles
weightDram(const AcceleratorConfig &cfg,
           const systolic::ConvLayer &layer, LayerCounters &counters)
{
    // Weights park in whichever on-chip SPM has room (the compiler
    // allocates a quarter of the aggregate capacity to filters).
    const std::uint64_t cap =
        std::max(cfg.weightSpm.capacityBytes, cfg.totalSpmBytes() / 4);
    if (layer.weightBytes() <= cap)
        return 0;
    counters.dramBytes += static_cast<double>(layer.weightBytes());
    return static_cast<Cycles>(
        static_cast<double>(layer.weightBytes()) /
        cfg.dramBytesPerCycle());
}

} // namespace

compiler::SchedParams
ilpSchedParams(const AcceleratorConfig &cfg)
{
    std::string key;
    const std::shared_ptr<const ConfigCosts> costs = configCosts(cfg, key);
    smart_assert(!costs->schedKey.empty(), cfg.name,
                 " runs no ILP compiler pass");
    return costs->sp;
}

void
clearIlpCache()
{
    ilp_cache.clear();
    config_cache.clear();
}

std::size_t
ilpCacheSize()
{
    return ilp_cache.size();
}

std::uint64_t
ilpCacheInserts()
{
    return ilp_cache.inserts();
}

std::uint64_t
configCacheInserts()
{
    return config_cache.inserts();
}

namespace
{

/**
 * @p memoHit is the layer's memoized schedule outcome, if known.
 * @p scheduled is set when the layer's schedule was computed here.
 */
LayerResult
runLayerWith(const AcceleratorConfig &cfg, const ConfigCosts &costs,
             const systolic::ConvLayer &layer, int batch, SchedMode mode,
             const SchedOutcome *memoHit, bool &scheduled)
{
    smart_assert(batch >= 1, "batch must be >= 1");
    const LayerDemand d = systolic::analyzeDemand(layer, cfg.pe);
    const auto &m = d.mapping;
    const double B = batch;

    LayerResult r;
    r.name = layer.name;
    r.computeCycles = m.idealCycles(batch);
    r.counters.macs = static_cast<double>(m.macsPerImage) * B;

    const double in_acc = static_cast<double>(d.inputPortReads) * B;
    const double out_acc = static_cast<double>(d.outputWrites) * B;
    const double psum_acc =
        static_cast<double>(d.psumReads + d.psumWrites) * B;

    switch (cfg.scheme) {
      case Scheme::Tpu: {
        // Conventional SRAM SPMs with adequate banking: near-ideal
        // streaming, modulated by the steady-state efficiency knob.
        const double eff = cfg.knobs.tpuEfficiency;
        const Cycles inflated = static_cast<Cycles>(
            static_cast<double>(r.computeCycles) / eff);
        r.inputService = inflated;
        r.weightService = weightService(cfg, d);
        r.weightDramCycles = weightDram(cfg, layer, r.counters);
        r.outputService = static_cast<Cycles>(
            (out_acc + 4 * psum_acc) / cfg.outputSpm.banks);
        r.serialOverhead = spillCycles(cfg, layer, batch, r.counters);
        r.counters.randomReadBytes += in_acc + d.weightPortReads;
        r.counters.randomWriteBytes += out_acc + 4 * psum_acc;
        break;
      }

      case Scheme::SuperNpu: {
        // Inputs stream sequentially from im2col-expanded rings: every
        // input element is replicated into each window position that
        // reads it (the only way a shift register serves the reuse
        // pattern without random access). The expansion writes are the
        // "many unnecessary bits" of Sec. 3: they scale with E * window
        // per image and must complete before a fold can stream, so
        // they serialize with compute (no prefetching compiler).
        const double expanded_per_image =
            static_cast<double>(d.inputPortReads) /
            (layer.depthwise ? 1.0
                             : static_cast<double>(m.colFolds));
        double expansion_bytes =
            expanded_per_image * cfg.knobs.interLayerReorderFactor;
        // When the expanded form exceeds the input SPM, strips are
        // re-expanded per column fold instead of recirculating.
        if (expanded_per_image >
            static_cast<double>(cfg.inputSpm.capacityBytes)) {
            expansion_bytes *= static_cast<double>(m.colFolds);
        }
        const double expand_c =
            expansion_bytes * B / cfg.inputSpm.banks;

        r.inputService = static_cast<Cycles>(
            in_acc / cfg.inputSpm.banks);
        r.weightService = weightService(cfg, d);
        r.weightDramCycles = weightDram(cfg, layer, r.counters);
        // Output/PSum rings are word-wide and dual-ended (writes enter
        // one end of the DFF lane while reads drain the other), so the
        // service is the larger of the two streams.
        r.outputService = static_cast<Cycles>(
            std::max(out_acc + psum_acc / 2.0, psum_acc / 2.0) /
            cfg.outputSpm.banks);

        r.serialOverhead = static_cast<Cycles>(expand_c);
        r.serialOverhead += spillCycles(cfg, layer, batch, r.counters);

        r.counters.shiftSteps =
            (in_acc + expansion_bytes * B) + d.weightPortReads +
            out_acc + 4 * psum_acc;
        r.counters.shiftLaneBytes = static_cast<double>(
            cfg.inputSpm.capacityBytes / cfg.inputSpm.banks);
        break;
      }

      case Scheme::Sram: {
        // Every SPM is a Josephson-CMOS SRAM array. Two regimes bound
        // the service: aggregate bank throughput, and — because the
        // accelerator fetches operands just-in-time with no prefetcher
        // (Sec. 4.1) — the dependent access latency of one fetch round
        // per ofmap pixel per fold. The paper's Fig. 5(a) latency
        // dominance comes from the second term.
        const RandomTiming &rt = costs.rt;
        const double pixel_folds =
            static_cast<double>(m.ofmapPixels) * m.folds() * B;

        const double in_tp = in_acc * rt.busyReadCycles /
                             cfg.inputSpm.banks;
        const double in_lat = rt.dependentCycles(pixel_folds, false);
        r.inputService =
            static_cast<Cycles>(std::max(in_tp, in_lat));

        r.weightService = static_cast<Cycles>(
            d.weightPortReads * rt.busyReadCycles /
            cfg.weightSpm.banks);
        r.weightDramCycles = weightDram(cfg, layer, r.counters);

        const double out_tp =
            (out_acc * rt.busyWriteCycles +
             psum_acc * (rt.busyReadCycles + rt.busyWriteCycles) / 2) /
            cfg.outputSpm.banks;
        const double psum_pixel_folds =
            m.rowFolds > 1 ? pixel_folds : out_acc;
        const double out_lat =
            rt.dependentCycles(psum_pixel_folds, true);
        r.outputService =
            static_cast<Cycles>(std::max(out_tp, out_lat));

        r.serialOverhead = spillCycles(cfg, layer, batch, r.counters);
        r.counters.randomReadBytes +=
            in_acc + d.weightPortReads + 4 * psum_acc;
        r.counters.randomWriteBytes += out_acc + 4 * psum_acc;
        break;
      }

      case Scheme::Heter:
      case Scheme::Pipe:
      case Scheme::Smart: {
        const RandomTiming &rt = costs.rt;

        // The compiler (SMART / the "+p" heuristic) restructures input
        // fetches into memory objects staged through the SHIFT arrays
        // and prefetched ahead of each iteration; without it (Heter,
        // Pipe) inputs are fetched from the RANDOM array just in time,
        // exposing per-pixel dependent latency.
        double hidden = 0.0;
        if (cfg.useIlpCompiler) {
            const SchedOutcome out =
                memoHit ? *memoHit
                        : cachedScheduleOutcome(layer, cfg.pe, d, costs,
                                                mode, scheduled);
            hidden = out.hidden;
            r.schedQuality = out.quality;
            r.schedGapBound = out.gapBound;
        } else if (cfg.prefetchIterations > 1) {
            hidden = 1.0; // idealized "+p" prefetching (Fig. 7)
        }

        // Staging traffic: unique input bytes, re-staged per column
        // fold when the ifmap exceeds the staging array. When the
        // staging array cannot even hold one fold's working set
        // (kernelH rows of the ifmap), kernel-overlap reuse is lost and
        // the shortfall re-fetches from the RANDOM array — the Fig. 22
        // "swapping traffic" mechanism.
        const double restage =
            layer.ifmapBytes() <= cfg.inputSpm.capacityBytes
                ? 1.0
                : static_cast<double>(m.colFolds);
        const double fold_ws = static_cast<double>(layer.kernelH) *
                               layer.ifmapW * layer.inChannels;
        const double miss_frac =
            fold_ws <= cfg.inputSpm.capacityBytes
                ? 0.0
                : 1.0 - cfg.inputSpm.capacityBytes / fold_ws;
        const double stage_bytes =
            static_cast<double>(d.inputUniqueBytes) * restage * B;
        // Reuse-miss re-fetches are scattered single elements: one
        // bank-busy slot each, no line coalescing.
        const double miss_c =
            in_acc * miss_frac * rt.busyReadCycles / rt.banks;
        const double stream_c = in_acc / cfg.inputSpm.banks;
        const double stage_c =
            rt.streamCycles(stage_bytes, false) + miss_c;

        // Just-in-time element fetches (no compiler): each fold's input
        // tile must arrive before its systolic stream starts, so fetch
        // time (single-element accesses, no line reuse) serializes with
        // the stream, plus dependent latency per fold start.
        const double jit_tp = in_acc * rt.busyReadCycles / rt.banks;
        const double jit_lat = rt.dependentCycles(
            static_cast<double>(m.folds()), false);
        const double compute_c =
            static_cast<double>(r.computeCycles);
        const double jit_c = compute_c + jit_tp + jit_lat;

        const double staged_c =
            std::max({stream_c, stage_c, compute_c}) +
            rt.readLatencyCycles;
        r.inputService = static_cast<Cycles>(
            hidden * staged_c + (1.0 - hidden) * jit_c);

        // Weights: staged once per batch through the RANDOM array.
        const double w_stage_c = rt.streamCycles(
            static_cast<double>(layer.weightBytes()), false);
        r.weightService = static_cast<Cycles>(std::max(
            static_cast<double>(d.weightPortReads) /
                cfg.weightSpm.banks,
            w_stage_c));
        r.weightDramCycles = weightDram(cfg, layer, r.counters);

        // Outputs drain to the RANDOM array (they are the next layer's
        // inputs there; the Fig. 25 write-latency sensitivity acts on
        // this stream). PSums recirculate in the word-wide dual-ended
        // output/PSum ring at line rate (accumulator semantics, as in
        // SCALE-SIM's weight-stationary model).
        const double psum_c = psum_acc / 2.0 / cfg.outputSpm.banks;
        // Output drains are scattered into the next layer's layout, so
        // they cannot coalesce into lines: one bank-busy slot per
        // element. This is where the Fig. 25 write-latency sensitivity
        // bites ("the outputs of a layer are the inputs of the next").
        const double out_c = std::max(
            out_acc * rt.busyWriteCycles / rt.banks,
            out_acc / cfg.outputSpm.banks);
        r.outputService = static_cast<Cycles>(out_c + psum_c);

        r.serialOverhead = spillCycles(cfg, layer, batch, r.counters);

        r.counters.shiftSteps = in_acc + out_acc + stage_bytes;
        r.counters.shiftLaneBytes = static_cast<double>(
            cfg.inputSpm.capacityBytes / cfg.inputSpm.banks);
        r.counters.randomReadBytes +=
            stage_bytes + layer.weightBytes();
        r.counters.randomWriteBytes += out_acc;
        break;
      }
    }

    r.totalCycles =
        std::max({r.computeCycles, r.inputService, r.weightService,
                  r.outputService}) +
        r.serialOverhead;
    return r;
}

} // namespace

LayerResult
runLayer(const AcceleratorConfig &cfg, const systolic::ConvLayer &layer,
         int batch, SchedMode mode)
{
    bool scheduled = false;
    std::string key;
    return runLayerWith(cfg, *configCosts(cfg, key), layer, batch, mode,
                        nullptr, scheduled);
}

InferenceResult
runInference(const AcceleratorConfig &cfg, const cnn::CnnModel &model,
             int batch, SchedMode mode)
{
    InferenceResult res;
    res.model = model.name;
    res.scheme = schemeName(cfg.scheme);
    res.batch = batch;

    // The whole-model evaluation is the trace's "execute" stage. The
    // scheduler carries the ambient id with each spawned task (see
    // common/taskgraph.hh), so per-layer schedule spans recorded on
    // whichever thread steals a layer attach to the same request
    // without manual re-establishment here.
    const std::uint64_t traceId = TraceRecorder::currentTrace();
    ScopedSpan execSpan(traceId, "execute",
                        static_cast<std::int64_t>(model.layers.size()),
                        "layers");

    // Layers are independent and accumulate serially in layer order
    // afterwards, so results are bit-identical to a serial loop. Only
    // layers whose schedule must be computed fan out as tasks: a memo
    // hit (looked up once) or a layer that schedules nothing costs
    // less than a task hand-off and runs inline. A schedule still in
    // flight on another thread counts as a miss.
    std::string key;
    const std::shared_ptr<const ConfigCosts> held = configCosts(cfg, key);
    const ConfigCosts &costs = *held;
    res.layers.resize(model.layers.size());
    std::vector<std::size_t> misses;
    for (std::size_t i = 0; i < model.layers.size(); ++i) {
        std::optional<SchedOutcome> hit;
        if (!costs.schedKey.empty()) {
            schedMemoKey(key, model.layers[i], cfg.pe, costs, mode);
            hit = ilp_cache.find(key);
            if (!hit) {
                misses.push_back(i);
                continue;
            }
            TraceRecorder::global().instant(traceId, "schedule_memo_hit");
        }
        bool s = false;
        res.layers[i] = runLayerWith(cfg, costs, model.layers[i], batch,
                                     mode, hit ? &*hit : nullptr, s);
    }
    // memory_order: relaxed — a plain tally, read after pFor joins.
    std::atomic<std::size_t> scheduled{0};
    pFor(misses.size(), [&](std::size_t k) {
        const std::size_t i = misses[k];
        bool s = false;
        res.layers[i] = runLayerWith(cfg, costs, model.layers[i], batch,
                                     mode, nullptr, s);
        if (s)
            scheduled.fetch_add(1, std::memory_order_relaxed);
    });
    res.schedulesComputed = scheduled.load(std::memory_order_relaxed);
    for (const auto &lr : res.layers) {
        res.totalCycles += lr.totalCycles;
        res.weightDramCycles += lr.weightDramCycles;
        res.totalMacs += lr.counters.macs;
        // Aggregate quality: one degraded layer degrades the result;
        // the gap bound is the worst layer's (-1 poisons, unknown).
        if (lr.schedQuality != compiler::Quality::Optimal)
            res.schedQuality = compiler::Quality::Greedy;
        if (lr.schedGapBound < 0.0 || res.schedGapBound < 0.0)
            res.schedGapBound = -1.0;
        else
            res.schedGapBound =
                std::max(res.schedGapBound, lr.schedGapBound);
    }
    // Oversized weights stream from DRAM while earlier layers compute;
    // the inference is bound by whichever finishes last.
    res.totalCycles = std::max(res.totalCycles, res.weightDramCycles);
    res.seconds =
        (static_cast<double>(res.totalCycles) * cfg.cyclePs()).value() * 1e-12;
    return res;
}

} // namespace smart::accel
