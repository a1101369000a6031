/**
 * @file
 * Parallel-vs-serial equivalence: the engine's contract is that
 * evaluating on N workers produces bit-identical results to a serial
 * loop. Checked for runBatch vs runInference, the DSE sweep, and the
 * B&B ILP solver under concurrent solves.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>

#include "accel/batch.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "common/logging.hh"
#include "common/taskgraph.hh"
#include "cryomem/dse.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;

// Force a multi-threaded global pool before its first use (unless the
// caller pinned SMART_THREADS explicitly, e.g. the serial CI leg).
const bool force_threads = []() {
    setenv("SMART_THREADS", "4", /*overwrite=*/0);
    return true;
}();

void
expectIdentical(const accel::LayerResult &a, const accel::LayerResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.inputService, b.inputService);
    EXPECT_EQ(a.weightService, b.weightService);
    EXPECT_EQ(a.outputService, b.outputService);
    EXPECT_EQ(a.serialOverhead, b.serialOverhead);
    EXPECT_EQ(a.weightDramCycles, b.weightDramCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.schedQuality, b.schedQuality);
    EXPECT_EQ(a.schedGapBound, b.schedGapBound);
    EXPECT_EQ(a.counters.shiftSteps, b.counters.shiftSteps);
    EXPECT_EQ(a.counters.randomReadBytes, b.counters.randomReadBytes);
    EXPECT_EQ(a.counters.randomWriteBytes, b.counters.randomWriteBytes);
    EXPECT_EQ(a.counters.dramBytes, b.counters.dramBytes);
    EXPECT_EQ(a.counters.macs, b.counters.macs);
}

void
expectIdentical(const accel::InferenceResult &a,
                const accel::InferenceResult &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.weightDramCycles, b.weightDramCycles);
    EXPECT_EQ(a.seconds, b.seconds); // bitwise: same double
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i)
        expectIdentical(a.layers[i], b.layers[i]);
}

TEST(ParallelEquivalence, RunBatchMatchesSerialRunInference)
{
    setInformEnabled(false);
    std::vector<accel::BatchItem> items;
    for (const char *name : {"AlexNet", "MobileNet"}) {
        auto net = cnn::convLayersOnly(cnn::makeModel(name));
        for (auto s :
             {accel::Scheme::Tpu, accel::Scheme::SuperNpu,
              accel::Scheme::Sram, accel::Scheme::Smart}) {
            accel::BatchItem item;
            item.cfg = accel::makeScheme(s);
            item.model = net;
            item.batch = s == accel::Scheme::Smart ? 4 : 1;
            items.push_back(std::move(item));
        }
    }

    // Serial reference first, from cold caches.
    accel::clearIlpCache();
    std::vector<accel::InferenceResult> serial;
    for (const auto &item : items)
        serial.push_back(
            accel::runInference(item.cfg, item.model, item.batch));

    // Parallel run, also from cold caches.
    accel::clearIlpCache();
    const auto parallel = accel::runBatch(items);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], parallel[i]);
}

TEST(ParallelEquivalence, NestedGridRunBatchMatchesSerial)
{
    // Three genuinely nested parallel levels on the work-stealing
    // scheduler: an outer grid sweep (a local TaskScheduler at width
    // 1, 2, and 4) whose every cell calls runBatch (the GLOBAL
    // scheduler's pFor over items), whose every item fans out
    // per-layer inside runInference. Under the fixed-wave pool the
    // inner levels ran serially; now inner chunks are stealable
    // tasks, and the contract is that none of it is observable:
    // every width produces bit-identical results to a serial loop.
    setInformEnabled(false);
    std::vector<std::vector<accel::BatchItem>> cells;
    for (const char *name : {"AlexNet", "MobileNet", "ResNet50"}) {
        auto net = cnn::convLayersOnly(cnn::makeModel(name));
        for (auto s : {accel::Scheme::Sram, accel::Scheme::Smart}) {
            std::vector<accel::BatchItem> cell;
            accel::BatchItem item;
            item.cfg = accel::makeScheme(s);
            item.model = net;
            item.batch = 1;
            cell.push_back(item);
            item.batch = 4;
            cell.push_back(std::move(item));
            cells.push_back(std::move(cell));
        }
    }

    accel::clearIlpCache();
    std::vector<std::vector<accel::InferenceResult>> serial(
        cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        for (const auto &item : cells[c])
            serial[c].push_back(accel::runInference(
                item.cfg, item.model, item.batch));

    for (int width : {1, 2, 4}) {
        SCOPED_TRACE("outer width " + std::to_string(width));
        TaskScheduler outer(width);
        accel::clearIlpCache();
        std::vector<std::vector<accel::InferenceResult>> nested(
            cells.size());
        outer.parallelFor(cells.size(), [&](std::size_t c) {
            nested[c] = accel::runBatch(cells[c]);
        });
        ASSERT_EQ(nested.size(), serial.size());
        for (std::size_t c = 0; c < cells.size(); ++c) {
            ASSERT_EQ(nested[c].size(), serial[c].size());
            for (std::size_t i = 0; i < serial[c].size(); ++i)
                expectIdentical(serial[c][i], nested[c][i]);
        }
    }
}

TEST(ParallelEquivalence, ColdGridDerivesEachConfigurationOnce)
{
    // The 72-point Figs. 18-21 grid (every model x every scheme, at
    // batch 1 and at the paper's batch) has four configurations with
    // derived costs: Sram, Heter, Pipe and Smart (Tpu and SuperNpu
    // read none). From cold memos each is derived exactly once,
    // however many workers race for it, and the results equal a
    // serial runInference loop bit for bit. The whole grid goes
    // through runBatch on the global scheduler (4 workers here, 1 in
    // the serial CI leg), then item by item from outer schedulers of
    // width 1 and 4.
    setInformEnabled(false);
    std::vector<accel::BatchItem> grid;
    for (bool paperBatch : {false, true}) {
        for (const auto &name : cnn::modelNames()) {
            const auto net = cnn::convLayersOnly(cnn::makeModel(name));
            for (auto s : {accel::Scheme::Tpu, accel::Scheme::SuperNpu,
                           accel::Scheme::Sram, accel::Scheme::Heter,
                           accel::Scheme::Pipe, accel::Scheme::Smart}) {
                accel::BatchItem item;
                item.cfg = accel::makeScheme(s);
                item.model = net;
                if (paperBatch)
                    item.batch = cnn::paperBatchSize(
                        name, s == accel::Scheme::SuperNpu);
                grid.push_back(std::move(item));
            }
        }
    }
    ASSERT_EQ(grid.size(), 72u);
    const std::uint64_t kConfigs = 4;

    accel::clearIlpCache();
    std::uint64_t before = accel::configCacheInserts();
    std::vector<accel::InferenceResult> serial;
    for (const auto &item : grid)
        serial.push_back(
            accel::runInference(item.cfg, item.model, item.batch));
    EXPECT_EQ(accel::configCacheInserts() - before, kConfigs);

    accel::clearIlpCache();
    before = accel::configCacheInserts();
    const auto batched = accel::runBatch(grid);
    EXPECT_EQ(accel::configCacheInserts() - before, kConfigs);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectIdentical(serial[i], batched[i]);

    for (int width : {1, 4}) {
        SCOPED_TRACE("outer width " + std::to_string(width));
        TaskScheduler outer(width);
        accel::clearIlpCache();
        before = accel::configCacheInserts();
        std::vector<accel::InferenceResult> nested(grid.size());
        outer.parallelFor(grid.size(), [&](std::size_t i) {
            nested[i] = accel::runBatch({grid[i]}).front();
        });
        EXPECT_EQ(accel::configCacheInserts() - before, kConfigs);
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectIdentical(serial[i], nested[i]);
    }
    accel::clearIlpCache();
}

TEST(ParallelEquivalence, MemoWarmInferenceRunsNoTasks)
{
    // Only layers whose schedule must be computed fan out: a memo-warm
    // evaluation runs every layer inline and spawns no scheduler task,
    // and it equals both the cold run and a serial runLayer loop bit
    // for bit.
    setInformEnabled(false);
    const auto cfg = accel::makeScheme(accel::Scheme::Smart);
    const auto net = cnn::convLayersOnly(cnn::makeModel("MobileNet"));
    auto &sched = TaskScheduler::global();

    accel::clearIlpCache();
    const auto coldStart = sched.stats().tasksRun;
    const auto cold = accel::runInference(cfg, net, 2);
    if (sched.size() > 1) {
        EXPECT_GT(sched.stats().tasksRun - coldStart, 0u);
    }

    const auto warmStart = sched.stats().tasksRun;
    const auto warm = accel::runInference(cfg, net, 2);
    EXPECT_EQ(sched.stats().tasksRun - warmStart, 0u);
    EXPECT_EQ(warm.schedulesComputed, 0u);
    expectIdentical(cold, warm);
    ASSERT_EQ(warm.layers.size(), net.layers.size());
    for (std::size_t i = 0; i < net.layers.size(); ++i)
        expectIdentical(accel::runLayer(cfg, net.layers[i], 2),
                        warm.layers[i]);
}

TEST(ParallelEquivalence, HalfWarmInferenceSpawnsOnlyItsMisses)
{
    // Warm the memo with the even-indexed layers only. The full model
    // then spawns one task per layer the memo lacks (the odd layers
    // whose shape no even layer shares) and nothing for the rest, and
    // still equals a cold evaluation bit for bit.
    setInformEnabled(false);
    const auto cfg = accel::makeScheme(accel::Scheme::Smart);
    const auto net = cnn::convLayersOnly(cnn::makeModel("MobileNet"));
    const auto shapeOf = [](const systolic::ConvLayer &l) {
        return std::array<int, 9>{l.ifmapH,  l.ifmapW,  l.inChannels,
                                  l.filters, l.kernelH, l.kernelW,
                                  l.stride,  l.pad,     l.depthwise};
    };
    cnn::CnnModel evens = net;
    evens.layers.clear();
    std::set<std::array<int, 9>> warmShapes;
    for (std::size_t i = 0; i < net.layers.size(); i += 2) {
        evens.layers.push_back(net.layers[i]);
        warmShapes.insert(shapeOf(net.layers[i]));
    }
    std::size_t misses = 0;
    for (const auto &l : net.layers)
        misses += warmShapes.count(shapeOf(l)) == 0;
    ASSERT_GE(misses, 2u);

    accel::clearIlpCache();
    const auto cold = accel::runInference(cfg, net, 1);

    accel::clearIlpCache();
    accel::runInference(cfg, evens, 1);
    auto &sched = TaskScheduler::global();
    // pFor spawns one task per index while the range is under
    // 8 chunks per worker (and none on a serial scheduler).
    const bool fansOut = sched.size() > 1;
    if (fansOut) {
        ASSERT_LT(misses, static_cast<std::size_t>(sched.size()) * 8);
    }
    const auto start = sched.stats().tasksRun;
    const auto half = accel::runInference(cfg, net, 1);
    EXPECT_EQ(sched.stats().tasksRun - start, fansOut ? misses : 0u);
    EXPECT_GT(half.schedulesComputed, 0u);
    EXPECT_LE(half.schedulesComputed, misses);
    expectIdentical(cold, half);
}

TEST(ParallelEquivalence, DseSweepMatchesPointwiseEvaluation)
{
    cryo::CmosSfqArrayConfig base;
    std::vector<double> freqs;
    for (double f = 0.5; f <= 12.0; f += 0.5)
        freqs.push_back(f);

    // The full sweep fans out across the pool; single-point sweeps are
    // serial by construction (n == 1 runs inline).
    const auto swept = cryo::sweepPipelineFrequency(base, freqs);
    ASSERT_EQ(swept.size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        const auto one =
            cryo::sweepPipelineFrequency(base, {freqs[i]});
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(swept[i].feasible, one[0].feasible);
        EXPECT_EQ(swept[i].achievedFreqGhz, one[0].achievedFreqGhz);
        EXPECT_EQ(swept[i].matsPerSubbank, one[0].matsPerSubbank);
        EXPECT_EQ(swept[i].repeaters, one[0].repeaters);
        EXPECT_EQ(swept[i].leakageMw, one[0].leakageMw);
        EXPECT_EQ(swept[i].energyPerAccessNj, one[0].energyPerAccessNj);
        EXPECT_EQ(swept[i].areaMm2, one[0].areaMm2);
    }
}

ilp::Model
knapsack(int seed)
{
    ilp::Model m;
    ilp::LinExpr w1, w2, obj;
    for (int i = 0; i < 14; ++i) {
        ilp::Var v = m.addBinary();
        w1.add(v, 1.0 + ((i + seed) % 7));
        w2.add(v, 1.0 + ((i + 3 * seed) % 5));
        obj.add(v, 2.0 + ((i + 2 * seed) % 9));
    }
    m.addConstr(w1, ilp::Sense::Le, 18.0);
    m.addConstr(w2, ilp::Sense::Le, 14.0);
    m.setObjective(obj, true);
    return m;
}

TEST(ParallelEquivalence, ConcurrentIlpSolvesMatchSerialObjectives)
{
    const int n = 16;
    std::vector<double> serial(n), parallel(n);
    std::vector<int> serial_status(n), parallel_status(n);

    for (int t = 0; t < n; ++t) {
        auto s = ilp::solve(knapsack(t));
        serial[t] = s.objective;
        serial_status[t] = static_cast<int>(s.status);
    }
    pFor(n, [&](std::size_t t) {
        auto s = ilp::solve(knapsack(static_cast<int>(t)));
        parallel[t] = s.objective;
        parallel_status[t] = static_cast<int>(s.status);
    });

    EXPECT_EQ(serial, parallel); // bitwise-equal objectives
    EXPECT_EQ(serial_status, parallel_status);
}

TEST(ParallelEquivalence, RepeatedSolvesAreDeterministic)
{
    auto a = ilp::solve(knapsack(3));
    auto b = ilp::solve(knapsack(3));
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.bnbNodes, b.bnbNodes);
    EXPECT_EQ(a.simplexIters, b.simplexIters);
}

} // namespace
