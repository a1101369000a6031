/**
 * @file
 * Tests for the accelerator configurations and performance model:
 * Table 4 values, scheme ordering, batch effects, and sensitivity
 * directions that mirror Figs. 18/19/22-25.
 */

#include <gtest/gtest.h>

#include "accel/perf.hh"
#include "cnn/models.hh"
#include "common/logging.hh"

namespace
{

using namespace smart;
using namespace smart::accel;

TEST(Config, Table4Values)
{
    AcceleratorConfig tpu = makeTpu();
    EXPECT_EQ(tpu.pe.rows, 256);
    EXPECT_EQ(tpu.pe.cols, 256);
    EXPECT_DOUBLE_EQ(tpu.clockGhz.value(), 0.7);
    EXPECT_NEAR(tpu.peakTmacs(), 45.9, 0.5);

    AcceleratorConfig npu = makeSuperNpu();
    EXPECT_EQ(npu.pe.rows, 64);
    EXPECT_DOUBLE_EQ(npu.clockGhz.value(), 52.6);
    EXPECT_NEAR(npu.peakTmacs(), 862.0, 1.0);
    EXPECT_EQ(npu.inputSpm.banks, 64);
    EXPECT_EQ(npu.inputSpm.capacityBytes, 24 * units::mib);

    AcceleratorConfig smart_cfg = makeSmart();
    EXPECT_EQ(smart_cfg.inputSpm.capacityBytes, 32 * units::kib);
    EXPECT_EQ(smart_cfg.randomArray.capacityBytes, 28 * units::mib);
    EXPECT_EQ(smart_cfg.prefetchIterations, 3);
    EXPECT_TRUE(smart_cfg.useIlpCompiler);
}

TEST(Config, SchemeFactoryCoversAll)
{
    for (Scheme s : {Scheme::Tpu, Scheme::SuperNpu, Scheme::Sram,
                     Scheme::Heter, Scheme::Pipe, Scheme::Smart}) {
        AcceleratorConfig c = makeScheme(s);
        EXPECT_EQ(c.scheme, s);
        EXPECT_GT(c.peakTmacs(), 0.0);
    }
}

TEST(Perf, LayerResultInvariants)
{
    auto cfg = makeSmart();
    auto layer = systolic::ConvLayer::conv("c", 27, 27, 96, 256, 5, 1, 2);
    LayerResult r = runLayer(cfg, layer, 1);
    EXPECT_GT(r.computeCycles, 0u);
    EXPECT_GE(r.totalCycles, r.computeCycles);
    EXPECT_GE(r.totalCycles, r.inputService);
    EXPECT_GT(r.counters.macs, 0.0);
}

TEST(Perf, Fig18SchemeOrderingSingleImage)
{
    // Fig. 18's qualitative ordering on AlexNet: SRAM < Heter <
    // SuperNPU(SHIFT) < Pipe <= SMART, all (except SRAM) above TPU.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto thr = [&](Scheme s) {
        return runInference(makeScheme(s), model, 1).throughputTmacs();
    };
    const double tpu = thr(Scheme::Tpu);
    const double sram = thr(Scheme::Sram);
    const double heter = thr(Scheme::Heter);
    const double shift = thr(Scheme::SuperNpu);
    const double pipe = thr(Scheme::Pipe);
    const double smart_thr = thr(Scheme::Smart);

    EXPECT_LT(sram, heter);
    EXPECT_LT(heter, shift);
    EXPECT_LT(shift, pipe);
    EXPECT_LE(pipe, smart_thr * 1.001);
    EXPECT_GT(shift, tpu);
    EXPECT_GT(smart_thr, 1.4 * shift); // paper: 3.9x (see EXPERIMENTS)
}

TEST(Perf, BatchImprovesThroughput)
{
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    for (Scheme s : {Scheme::SuperNpu, Scheme::Smart}) {
        auto cfg = makeScheme(s);
        const double t1 =
            runInference(cfg, model, 1).throughputTmacs();
        const double tb =
            runInference(cfg, model, 20).throughputTmacs();
        EXPECT_GT(tb, t1) << schemeName(s);
    }
}

TEST(Perf, UtilizationBelowPeak)
{
    for (Scheme s : {Scheme::Tpu, Scheme::SuperNpu, Scheme::Smart}) {
        auto cfg = makeScheme(s);
        auto model = cnn::convLayersOnly(cnn::makeResNet50());
        auto r = runInference(cfg, model, 4);
        EXPECT_GT(r.utilization(cfg), 0.0);
        EXPECT_LT(r.utilization(cfg), 1.0);
    }
}

TEST(Perf, Fig25WriteLatencyHurts)
{
    // Fig. 25: 2-3 ns RANDOM write latency collapses throughput.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto fast_cfg = makeSmart();
    auto slow_cfg = makeSmart();
    slow_cfg.randomWriteLatencyNsOverride = Nanoseconds{3.0};
    const double fast =
        runInference(fast_cfg, model, 1).throughputTmacs();
    const double slow =
        runInference(slow_cfg, model, 1).throughputTmacs();
    EXPECT_LT(slow, fast);
}

TEST(Perf, Fig23RandomCapacityHelpsBatch)
{
    // Fig. 23: a larger RANDOM array helps batch throughput (less
    // spill), while shrinking it hurts.
    auto model = cnn::convLayersOnly(cnn::makeVgg16());
    auto small_cfg = makeSmart();
    small_cfg.randomArray.capacityBytes = 14 * units::mib;
    auto big_cfg = makeSmart();
    big_cfg.randomArray.capacityBytes = 112 * units::mib;
    const double small_thr =
        runInference(small_cfg, model, 8).throughputTmacs();
    const double big_thr =
        runInference(big_cfg, model, 8).throughputTmacs();
    EXPECT_GT(big_thr, small_thr);
}

TEST(Perf, Fig24PrefetchHelps)
{
    // a = 1 (no prefetch) must be slower than a = 3.
    auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    auto no_pf = makeSmart();
    no_pf.prefetchIterations = 1;
    auto pf = makeSmart();
    const double t0 = runInference(no_pf, model, 1).throughputTmacs();
    const double t3 = runInference(pf, model, 1).throughputTmacs();
    EXPECT_GT(t3, t0);
}

TEST(Perf, WeightDramOverlapsAcrossLayers)
{
    // FC-heavy models are bound by weight streaming, which overlaps
    // compute: total >= weight-DRAM time but < naive sum.
    auto cfg = makeSuperNpu();
    auto model = cnn::makeAlexNet(); // includes FC layers
    auto r = runInference(cfg, model, 1);
    EXPECT_GE(r.totalCycles, r.weightDramCycles);
    Cycles layer_sum = 0;
    for (const auto &l : r.layers)
        layer_sum += l.totalCycles;
    EXPECT_LE(r.totalCycles,
              std::max(layer_sum, r.weightDramCycles) + 1);
}

TEST(Perf, DepthwiseUtilizationIsPoor)
{
    auto cfg = makeSmart();
    auto model = cnn::convLayersOnly(cnn::makeMobileNet());
    auto r = runInference(cfg, model, 1);
    EXPECT_LT(r.utilization(cfg), 0.05);
}

TEST(Perf, MemoKeyAliasesNothing)
{
    // Every input the schedule reads must split the memo: each variant
    // differs from the base in exactly one field and must add exactly
    // one entry, so no variant aliases the base or an earlier variant.
    const systolic::ConvLayer base =
        systolic::ConvLayer::conv("c", 14, 14, 16, 32, 3);
    const AcceleratorConfig base_cfg = makeSmart();
    clearIlpCache();
    runLayer(base_cfg, base, 1);
    ASSERT_EQ(ilpCacheSize(), 1u);
    runLayer(base_cfg, base, 1);
    EXPECT_EQ(ilpCacheSize(), 1u) << "re-running the base layer";

    auto expect_new_entry = [](const AcceleratorConfig &cfg,
                               const systolic::ConvLayer &layer,
                               SchedMode mode, const char *what) {
        const std::size_t before = ilpCacheSize();
        runLayer(cfg, layer, 1, mode);
        EXPECT_EQ(ilpCacheSize(), before + 1) << what;
    };
    using Field = int systolic::ConvLayer::*;
    const std::pair<Field, const char *> fields[] = {
        {&systolic::ConvLayer::ifmapH, "ifmapH"},
        {&systolic::ConvLayer::ifmapW, "ifmapW"},
        {&systolic::ConvLayer::inChannels, "inChannels"},
        {&systolic::ConvLayer::filters, "filters"},
        {&systolic::ConvLayer::kernelH, "kernelH"},
        {&systolic::ConvLayer::kernelW, "kernelW"},
        {&systolic::ConvLayer::stride, "stride"},
        {&systolic::ConvLayer::pad, "pad"},
    };
    for (const auto &[field, what] : fields) {
        systolic::ConvLayer l = base;
        l.*field += 1;
        expect_new_entry(base_cfg, l, SchedMode::Ilp, what);
    }
    systolic::ConvLayer dw = base;
    dw.depthwise = true;
    expect_new_entry(base_cfg, dw, SchedMode::Ilp, "depthwise");

    const std::pair<void (*)(AcceleratorConfig &), const char *>
        cfg_variants[] = {
            {[](AcceleratorConfig &c) { c.pe.rows = 32; }, "pe.rows"},
            {[](AcceleratorConfig &c) { c.pe.cols = 128; }, "pe.cols"},
            {[](AcceleratorConfig &c) { c.randomArray.capacityBytes /= 2; },
             "RANDOM capacity"},
            {[](AcceleratorConfig &c) { c.inputSpm.capacityBytes /= 2; },
             "SHIFT capacity"},
            {[](AcceleratorConfig &c) { c.randomArray.banks /= 2; },
             "RANDOM banks"},
            {[](AcceleratorConfig &c) { c.inputSpm.banks /= 2; },
             "SHIFT banks"},
            {[](AcceleratorConfig &c) { c.prefetchIterations = 2; },
             "prefetchIterations"},
            {[](AcceleratorConfig &c) { c.dramBandwidthGBs = 150.0; },
             "DRAM bandwidth"},
        };
    for (const auto &[mutate, what] : cfg_variants) {
        AcceleratorConfig cfg = base_cfg;
        mutate(cfg);
        expect_new_entry(cfg, base, SchedMode::Ilp, what);
    }
    expect_new_entry(base_cfg, base, SchedMode::Greedy, "SchedMode");

    // The scheduler reads RANDOM read timing only, so a write-latency
    // override (Fig. 25) must share the base layer's schedule rather
    // than split the memo.
    AcceleratorConfig slow_write = base_cfg;
    slow_write.randomWriteLatencyNsOverride = Nanoseconds{3.0};
    const std::size_t before = ilpCacheSize();
    runLayer(slow_write, base, 1);
    EXPECT_EQ(ilpCacheSize(), before) << "write-latency override";
    clearIlpCache();
}

/** Bit-identical simulated outputs (cycles, counters, schedule marks). */
bool
sameResult(const InferenceResult &a, const InferenceResult &b)
{
    if (a.totalCycles != b.totalCycles || a.seconds != b.seconds ||
        a.layers.size() != b.layers.size())
        return false;
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        const LayerResult &x = a.layers[i], &y = b.layers[i];
        if (x.inputService != y.inputService ||
            x.weightService != y.weightService ||
            x.outputService != y.outputService ||
            x.serialOverhead != y.serialOverhead ||
            x.totalCycles != y.totalCycles ||
            x.schedQuality != y.schedQuality ||
            x.schedGapBound != y.schedGapBound ||
            x.counters.shiftSteps != y.counters.shiftSteps ||
            x.counters.randomReadBytes != y.counters.randomReadBytes)
            return false;
    }
    return true;
}

TEST(Perf, ConfigMemoKeyAliasesNothing)
{
    // The per-configuration costs (RANDOM timing, scheduler parameters
    // and their key) are memoized process-wide. Each variant differs
    // from its base in one field those costs read, on a scheme where
    // the field matters. Evaluated right after the base, it must equal
    // its own evaluation from cold memos bit for bit (a key missing the
    // field would hand it the base's costs), and it must differ from
    // the base, or the check proves nothing.
    setInformEnabled(false);
    const auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    const AcceleratorConfig sram = makeScheme(Scheme::Sram);
    const AcceleratorConfig pipe = makeScheme(Scheme::Pipe);
    const AcceleratorConfig smart_cfg = makeSmart();
    AcceleratorConfig no_ilp = makeSmart();
    no_ilp.useIlpCompiler = false;
    struct Variant
    {
        const AcceleratorConfig &base;
        void (*mutate)(AcceleratorConfig &);
        const char *what;
    };
    const Variant variants[] = {
        {smart_cfg, [](AcceleratorConfig &c) { c.clockGhz = Gigahertz{40.0}; },
         "clockGhz"},
        {sram, [](AcceleratorConfig &c) { c.inputSpm.capacityBytes /= 4; },
         "input SPM capacity"},
        {sram, [](AcceleratorConfig &c) { c.inputSpm.banks /= 2; },
         "input SPM banks"},
        {pipe, [](AcceleratorConfig &c) { c.randomArray.capacityBytes /= 4; },
         "RANDOM capacity"},
        {pipe, [](AcceleratorConfig &c) { c.randomArray.banks /= 2; },
         "RANDOM banks"},
        {pipe,
         [](AcceleratorConfig &c) { c.randomTech = cryo::MemTech::JcsSram; },
         "randomTech"},
        {pipe,
         [](AcceleratorConfig &c) {
             c.randomWriteLatencyNsOverride = Nanoseconds{3.0};
         },
         "randomWriteLatencyNsOverride"},
        {smart_cfg, [](AcceleratorConfig &c) { c.prefetchIterations = 1; },
         "prefetchIterations"},
        {no_ilp, [](AcceleratorConfig &c) { c.useIlpCompiler = true; },
         "useIlpCompiler"},
        {smart_cfg, [](AcceleratorConfig &c) { c.dramBandwidthGBs = 3.0; },
         "dramBandwidthGBs"},
        {sram,
         [](AcceleratorConfig &c) { c.knobs.randomOutstanding = 1.0; },
         "knobs.randomOutstanding"},
    };
    for (const Variant &v : variants) {
        AcceleratorConfig cfg = v.base;
        v.mutate(cfg);
        clearIlpCache();
        const InferenceResult base = runInference(v.base, model, 1);
        const InferenceResult after_base = runInference(cfg, model, 1);
        clearIlpCache();
        const InferenceResult cold = runInference(cfg, model, 1);
        EXPECT_TRUE(sameResult(after_base, cold)) << v.what;
        EXPECT_FALSE(sameResult(base, cold)) << v.what;
    }
    clearIlpCache();
}

TEST(Perf, SchedulesComputedCountsMemoMisses)
{
    // A cold call computes each distinct layer schedule once; a warm
    // repeat, another batch size (not part of the memo key) and a
    // scheme without the ILP compiler compute none. ilpCacheInserts()
    // counts the same misses and survives clearIlpCache().
    const auto model = cnn::convLayersOnly(cnn::makeAlexNet());
    clearIlpCache();
    const std::uint64_t inserts = ilpCacheInserts();
    const auto cold = runInference(makeSmart(), model, 1);
    EXPECT_GT(cold.schedulesComputed, 0u);
    EXPECT_EQ(cold.schedulesComputed, ilpCacheSize());
    EXPECT_EQ(ilpCacheInserts() - inserts, cold.schedulesComputed);
    EXPECT_EQ(runInference(makeSmart(), model, 1).schedulesComputed, 0u);
    EXPECT_EQ(runInference(makeSmart(), model, 8).schedulesComputed, 0u);
    EXPECT_EQ(runInference(makeScheme(Scheme::Sram), model, 1)
                  .schedulesComputed,
              0u);
    clearIlpCache();
    EXPECT_EQ(ilpCacheInserts() - inserts, cold.schedulesComputed);
    EXPECT_EQ(runInference(makeSmart(), model, 1).schedulesComputed,
              cold.schedulesComputed);
    clearIlpCache();
}

/** Parameterized per-model smoke: every scheme completes. */
class SchemeModelSweep
    : public ::testing::TestWithParam<std::tuple<int, std::string>>
{
};

TEST_P(SchemeModelSweep, RunsAndProducesPositiveThroughput)
{
    const auto [scheme_idx, model_name] = GetParam();
    auto cfg = makeScheme(static_cast<Scheme>(scheme_idx));
    auto model = cnn::convLayersOnly(cnn::makeModel(model_name));
    auto r = runInference(cfg, model, 2);
    EXPECT_GT(r.throughputTmacs(), 0.0);
    EXPECT_EQ(r.layers.size(), model.layers.size());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeModelSweep,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values("AlexNet", "GoogleNet")));

} // namespace
