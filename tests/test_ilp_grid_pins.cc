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
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "compiler/dag.hh"
#include "compiler/ilpsched.hh"

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

TEST(IlpGridPins, FigureGridSchedulesAreBitExact)
{
    const accel::AcceleratorConfig cfg = accel::makeSmart();
    const compiler::SchedParams sp = accel::ilpSchedParams(cfg);

    std::set<std::string> seen;
    std::string bytes;
    long totalNodes = 0;
    long totalPivots = 0;
    for (const auto &name : cnn::modelNames()) {
        const cnn::CnnModel net = cnn::convLayersOnly(cnn::makeModel(name));
        for (const auto &layer : net.layers) {
            if (!seen.insert(shapeKey(layer)).second)
                continue;
            const auto demand = systolic::analyzeDemand(layer, cfg.pe);
            const auto dag = compiler::buildLayerDag(layer, demand);
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
    }

    EXPECT_EQ(seen.size(), 102u);
    EXPECT_EQ(totalNodes, 6381);
    EXPECT_EQ(totalPivots, 365585);
    EXPECT_EQ(accel::requestDigest(bytes), 0xa98d4e6aeeb22345ull);
}

} // namespace
