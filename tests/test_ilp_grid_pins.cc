/**
 * @file
 * Bit-exact pin of the ILP compiler over the Figs. 18-21 grid.
 *
 * Runs buildLayerDag + scheduleIlp on every distinct layer the SMART
 * scheme schedules across the six grid models (the same solves the
 * schedule memo performs on a cold grid pass) and folds each Schedule's
 * decisions, objective bits, gap-bound bits and B&B node count into one
 * FNV-1a digest. The simplex may only change how much work it does per
 * pivot, never the pivot sequence or the arithmetic on a nonzero cell:
 * a new pivot order that breaks a degenerate tie differently moves
 * this digest, the node total or the pivot total even when every
 * decision survives.
 *
 * The same 102 layer ILPs also check ilp::solve's per-thread
 * workspace: a solve must come out bit for bit the same whatever the
 * thread solved before it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "compiler/dag.hh"
#include "compiler/ilpsched.hh"
#include "ilp/solver.hh"

namespace
{

using namespace smart;

template <typename T>
void
appendBytes(std::string &out, const T &v)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

/** Every layer-shape field the demand and schedule models read. */
std::string
shapeKey(const systolic::ConvLayer &l)
{
    std::string key;
    for (int v : {l.ifmapH, l.ifmapW, l.inChannels, l.filters, l.kernelH,
                  l.kernelW, l.stride, l.pad, l.depthwise ? 1 : 0})
        key += std::to_string(v) + ',';
    return key;
}

/** The DAG of every distinct layer SMART schedules across the grid. */
std::vector<compiler::LayerDag>
gridDags()
{
    const accel::AcceleratorConfig cfg = accel::makeSmart();
    std::set<std::string> seen;
    std::vector<compiler::LayerDag> dags;
    for (const auto &name : cnn::modelNames()) {
        const cnn::CnnModel net = cnn::convLayersOnly(cnn::makeModel(name));
        for (const auto &layer : net.layers) {
            if (seen.insert(shapeKey(layer)).second)
                dags.push_back(compiler::buildLayerDag(
                    layer, systolic::analyzeDemand(layer, cfg.pe)));
        }
    }
    return dags;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

TEST(IlpGridPins, FigureGridSchedulesAreBitExact)
{
    const compiler::SchedParams sp =
        accel::ilpSchedParams(accel::makeSmart());
    const std::vector<compiler::LayerDag> dags = gridDags();

    std::string bytes;
    long totalNodes = 0;
    long totalPivots = 0;
    for (const auto &dag : dags) {
        const auto s = compiler::scheduleIlp(dag, sp);
        for (const auto &d : s.decisions) {
            appendBytes(bytes, static_cast<int>(d.placement));
            appendBytes(bytes, d.prefetched);
        }
        appendBytes(bytes, s.objective);
        appendBytes(bytes, s.gapBound);
        appendBytes(bytes, s.bnbNodes);
        totalNodes += s.bnbNodes;
        totalPivots += s.simplexIters;
    }

    EXPECT_EQ(dags.size(), 102u);
    EXPECT_EQ(totalNodes, 6381);
    EXPECT_EQ(totalPivots, 365585);
    EXPECT_EQ(accel::requestDigest(bytes), 0xa98d4e6aeeb22345ull);
}

TEST(IlpGridPins, ThreadWorkspaceMatchesFreshWorkspace)
{
    // Every solve on a thread reuses that thread's workspace. Each
    // layer ILP is solved first on a thread of its own (a fresh
    // workspace), then by two threads at once that each run the grid
    // three times in alternating order (306 solves each, so every
    // cell epoch wraps), and then largest, smallest, largest on one
    // more thread, which then releases its workspace and solves the
    // smallest again. Every solve must match the fresh one bit for
    // bit: status, objective, values, pivots and nodes.
    const compiler::SchedParams sp =
        accel::ilpSchedParams(accel::makeSmart());
    std::vector<compiler::LayerIlp> ilps;
    for (const auto &dag : gridDags())
        ilps.push_back(compiler::buildLayerIlp(dag, sp));
    const int n = static_cast<int>(ilps.size());
    ASSERT_EQ(n, 102);

    auto solveAt = [&ilps](int k) {
        return ilp::solve(ilps[k].model, ilps[k].opts);
    };
    std::vector<ilp::Solution> fresh(n);
    for (int k = 0; k < n; ++k)
        std::thread([&, k] { fresh[k] = solveAt(k); }).join();

    auto expectFresh = [&](const ilp::Solution &s, int k) {
        const ilp::Solution &f = fresh[k];
        EXPECT_EQ(s.status, f.status) << "layer " << k;
        EXPECT_EQ(s.simplexIters, f.simplexIters) << "layer " << k;
        EXPECT_EQ(s.bnbNodes, f.bnbNodes) << "layer " << k;
        EXPECT_EQ(s.lpReplays, f.lpReplays) << "layer " << k;
        EXPECT_EQ(bitsOf(s.objective), bitsOf(f.objective)) << "layer " << k;
        EXPECT_EQ(bitsOf(s.bestBound), bitsOf(f.bestBound)) << "layer " << k;
        ASSERT_EQ(s.values.size(), f.values.size()) << "layer " << k;
        for (std::size_t j = 0; j < s.values.size(); ++j)
            EXPECT_EQ(bitsOf(s.values[j]), bitsOf(f.values[j]))
                << "layer " << k << " var " << j;
    };

    // Thread t solves pass p in forward order when (t + p) is even.
    std::vector<std::vector<std::pair<int, ilp::Solution>>> runs(2);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            for (int p = 0; p < 3; ++p)
                for (int i = 0; i < n; ++i) {
                    const int k = (t + p) % 2 == 0 ? i : n - 1 - i;
                    runs[t].emplace_back(k, solveAt(k));
                }
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &run : runs) {
        ASSERT_EQ(run.size(), 3u * n);
        for (const auto &[k, s] : run)
            expectFresh(s, k);
    }

    int large = 0;
    int small = 0;
    for (int k = 1; k < n; ++k) {
        if (ilps[k].model.numVars() > ilps[large].model.numVars())
            large = k;
        if (ilps[k].model.numVars() < ilps[small].model.numVars())
            small = k;
    }
    ASSERT_LT(ilps[small].model.numVars(), ilps[large].model.numVars());
    std::thread([&] {
        for (int k : {large, small, large})
            expectFresh(solveAt(k), k);
        ilp::trimThreadWorkspace(); // used since: kept
        ilp::trimThreadWorkspace(); // idle: freed
        expectFresh(solveAt(small), small);
    }).join();
}

} // namespace
