/**
 * @file
 * Canonical request hashing regression guard (in the spirit of the
 * PR 1 ilp_cache under-keying fix): the serving cache key must be
 * deterministic — same request, same key, on any thread — and must
 * change whenever any result-relevant config, model, or batch field
 * changes, so distinct requests can never alias a cache line.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "accel/hash.hh"
#include "cnn/models.hh"
#include "common/rng.hh"
#include "common/taskgraph.hh"

namespace
{

using namespace smart;

const bool force_threads = []() {
    setenv("SMART_THREADS", "4", /*overwrite=*/0);
    return true;
}();

accel::AcceleratorConfig
baseCfg()
{
    return accel::makeSmart();
}

cnn::CnnModel
baseModel()
{
    return cnn::convLayersOnly(cnn::makeAlexNet());
}

// ----------------------------------------------------------------
// Reference formatter: the snprintf key builder the to_chars one
// replaced, kept verbatim so the key bytes (and with them the
// coalescing groups, EvalResponse::digest and incident digests) are
// pinned against it.
// ----------------------------------------------------------------

void
refD(std::string &out, double v)
{
    char buf[48];
    out.append(buf, std::snprintf(buf, sizeof(buf), "%a,", v));
}

void
refI(std::string &out, long long v)
{
    char buf[24];
    out.append(buf, std::snprintf(buf, sizeof(buf), "%lld", v));
}

void
refU(std::string &out, unsigned long long v)
{
    char buf[24];
    out.append(buf, std::snprintf(buf, sizeof(buf), "%llu", v));
}

void
refSpm(std::string &out, const accel::SpmSpec &s)
{
    refU(out, s.capacityBytes);
    out += ',';
    refU(out, s.banks);
    out += ',';
}

void
refS(std::string &out, const std::string &s)
{
    refU(out, s.size());
    out += ':';
    out += s;
    out += ',';
}

std::string
refRequestKey(const accel::AcceleratorConfig &cfg,
              const cnn::CnnModel &model, int batch)
{
    std::string out = "cfg{";
    refI(out, static_cast<int>(cfg.scheme));
    out += ',';
    refI(out, cfg.pe.rows);
    out += 'x';
    refI(out, cfg.pe.cols);
    out += ',';
    refD(out, cfg.clockGhz.value());
    refD(out, cfg.temperatureK);
    refD(out, cfg.coolingFactor);
    refSpm(out, cfg.inputSpm);
    refSpm(out, cfg.outputSpm);
    refSpm(out, cfg.weightSpm);
    refI(out, cfg.spmsAreShift);
    out += ',';
    refSpm(out, cfg.randomArray);
    refI(out, static_cast<int>(cfg.randomTech));
    out += ',';
    refD(out, cfg.randomWriteLatencyNsOverride.value());
    refI(out, cfg.prefetchIterations);
    out += ',';
    refI(out, cfg.useIlpCompiler);
    out += ',';
    refD(out, cfg.dramBandwidthGBs);
    refD(out, cfg.knobs.dauWindowBytes);
    refD(out, cfg.knobs.interLayerReorderFactor);
    refD(out, cfg.knobs.tpuEfficiency);
    refD(out, cfg.knobs.shiftSegmentBytes);
    refD(out, cfg.knobs.leakageActivityFactor);
    refD(out, cfg.knobs.randomOutstanding);
    out += "}model{";
    refS(out, model.name);
    for (const auto &l : model.layers) {
        refS(out, l.name);
        for (int v : {l.ifmapH, l.ifmapW, l.inChannels, l.filters,
                      l.kernelH, l.kernelW, l.stride, l.pad}) {
            refI(out, v);
            out += ',';
        }
        refI(out, l.depthwise);
        out += ';';
    }
    out += "}batch{";
    refI(out, batch);
    out += '}';
    return out;
}

std::string
refRequestShapeKey(const cnn::CnnModel &model, int batch)
{
    std::uint64_t dims = 0;
    for (const auto &l : model.layers) {
        dims = dims * 1099511628211ull +
               static_cast<std::uint64_t>(l.ifmapH) * l.ifmapW +
               static_cast<std::uint64_t>(l.inChannels) * l.filters +
               static_cast<std::uint64_t>(l.kernelH) * l.kernelW;
    }
    std::string out = "shape{";
    refS(out, model.name);
    refU(out, model.layers.size());
    out += ',';
    refU(out, dims);
    out += ",b";
    refI(out, batch);
    out += '}';
    return out;
}

/** A double from @p rng: raw bit patterns (every class) or plain. */
double
randomDouble(Rng &rng)
{
    switch (rng.range(3)) {
      case 0: {
        const std::uint64_t bits = rng.next();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
      }
      case 1:
        return rng.uniform(-1e6, 1e6);
      default:
        return static_cast<double>(rng.range(4096)) / 8.0;
    }
}

int
randomInt(Rng &rng)
{
    // Mostly layer-sized values, with the int extremes mixed in.
    switch (rng.range(8)) {
      case 0:
        return std::numeric_limits<int>::min();
      case 1:
        return std::numeric_limits<int>::max();
      case 2:
        return -static_cast<int>(rng.range(1000));
      default:
        return static_cast<int>(rng.range(100000));
    }
}

std::string
randomName(Rng &rng)
{
    static constexpr char kAlphabet[] = "ab,;:{}|x0\x7f";
    std::string s(rng.range(12), ' ');
    for (char &c : s)
        c = kAlphabet[rng.range(sizeof(kAlphabet) - 1)];
    return s;
}

TEST(RequestHash, SameRequestSameKeyAcrossThreads)
{
    const auto cfg = baseCfg();
    const auto model = baseModel();
    const std::string reference = accel::requestKey(cfg, model, 4);
    const std::uint64_t ref_digest = accel::requestDigest(reference);

    std::vector<std::string> keys(64);
    std::vector<std::uint64_t> digests(64);
    pFor(keys.size(), [&](std::size_t i) {
        keys[i] = accel::requestKey(cfg, model, 4);
        digests[i] = accel::requestDigest(keys[i]);
    });
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(keys[i], reference) << "thread-slot " << i;
        EXPECT_EQ(digests[i], ref_digest) << "thread-slot " << i;
    }
}

TEST(RequestHash, EveryConfigFieldIsKeyed)
{
    const auto model = baseModel();
    const std::string base = accel::requestKey(baseCfg(), model, 1);

    // One mutation per result-relevant field; each must change the key.
    std::vector<std::function<void(accel::AcceleratorConfig &)>> mutations
        = {
            [](auto &c) { c.scheme = accel::Scheme::Pipe; },
            [](auto &c) { c.pe.rows += 1; },
            [](auto &c) { c.pe.cols += 1; },
            [](auto &c) { c.clockGhz += Gigahertz{0.1}; },
            [](auto &c) { c.temperatureK += 1.0; },
            [](auto &c) { c.coolingFactor += 1.0; },
            [](auto &c) { c.inputSpm.capacityBytes += 1; },
            [](auto &c) { c.inputSpm.banks += 1; },
            [](auto &c) { c.outputSpm.capacityBytes += 1; },
            [](auto &c) { c.outputSpm.banks += 1; },
            [](auto &c) { c.weightSpm.capacityBytes += 1; },
            [](auto &c) { c.weightSpm.banks += 1; },
            [](auto &c) { c.spmsAreShift = !c.spmsAreShift; },
            [](auto &c) { c.randomArray.capacityBytes += 1; },
            [](auto &c) { c.randomArray.banks += 1; },
            [](auto &c) { c.randomTech = cryo::MemTech::JcsSram; },
            [](auto &c) { c.randomWriteLatencyNsOverride = Nanoseconds{1.5}; },
            [](auto &c) { c.prefetchIterations += 1; },
            [](auto &c) { c.useIlpCompiler = !c.useIlpCompiler; },
            [](auto &c) { c.dramBandwidthGBs += 1.0; },
            [](auto &c) { c.knobs.dauWindowBytes += 1.0; },
            [](auto &c) { c.knobs.interLayerReorderFactor += 0.1; },
            [](auto &c) { c.knobs.tpuEfficiency += 0.01; },
            [](auto &c) { c.knobs.shiftSegmentBytes += 1.0; },
            [](auto &c) { c.knobs.leakageActivityFactor += 0.01; },
            [](auto &c) { c.knobs.randomOutstanding += 1.0; },
        };

    std::set<std::string> keys{base};
    for (std::size_t i = 0; i < mutations.size(); ++i) {
        auto cfg = baseCfg();
        mutations[i](cfg);
        const std::string key = accel::requestKey(cfg, model, 1);
        EXPECT_NE(key, base) << "mutation " << i << " did not change key";
        // ... and no two mutations alias each other either.
        EXPECT_TRUE(keys.insert(key).second)
            << "mutation " << i << " aliases another mutation";
    }
}

TEST(RequestHash, ModelAndBatchAreKeyed)
{
    const auto cfg = baseCfg();
    const auto alex = baseModel();
    const std::string base = accel::requestKey(cfg, alex, 1);

    EXPECT_NE(accel::requestKey(cfg, alex, 2), base);
    EXPECT_NE(
        accel::requestKey(cfg, cnn::convLayersOnly(cnn::makeMobileNet()),
                          1),
        base);

    // Any single layer-field change re-keys.
    auto tweaked = alex;
    tweaked.layers[0].stride += 1;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
    tweaked = alex;
    tweaked.layers.back().filters += 1;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
    tweaked = alex;
    tweaked.layers[1].depthwise = !tweaked.layers[1].depthwise;
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);

    // Names flow into InferenceResult, so they are keyed too.
    tweaked = alex;
    tweaked.name += "x";
    EXPECT_NE(accel::requestKey(cfg, tweaked, 1), base);
}

TEST(RequestHash, SeparatorInjectionCannotAlias)
{
    // A crafted model name containing the key's separators must not
    // serialize to the same bytes as a structurally different model.
    const auto cfg = baseCfg();
    cnn::CnnModel a = baseModel();
    cnn::CnnModel b = baseModel();
    a.name = "m;1,2,3,4,5,6,7,8,0;";
    b.name = "m";
    EXPECT_NE(accel::requestKey(cfg, a, 1), accel::requestKey(cfg, b, 1));
}

TEST(RequestHash, KeyBytesMatchSnprintfReference)
{
    // The to_chars builder must reproduce the snprintf formatter byte
    // for byte over random configurations and models.
    Rng rng(0x6b657973);
    const cnn::CnnModel zoo[] = {
        cnn::makeAlexNet(), cnn::makeVgg16(), cnn::makeMobileNet()};
    for (int trial = 0; trial < 400; ++trial) {
        accel::AcceleratorConfig cfg =
            accel::makeScheme(static_cast<accel::Scheme>(rng.range(6)));
        cfg.pe.rows = randomInt(rng);
        cfg.pe.cols = randomInt(rng);
        cfg.clockGhz = Gigahertz{randomDouble(rng)};
        cfg.temperatureK = randomDouble(rng);
        cfg.coolingFactor = randomDouble(rng);
        for (accel::SpmSpec *spm : {&cfg.inputSpm, &cfg.outputSpm,
                                    &cfg.weightSpm, &cfg.randomArray}) {
            spm->capacityBytes = rng.next() >> rng.range(64);
            spm->banks = randomInt(rng);
        }
        cfg.spmsAreShift = rng.range(2) != 0;
        cfg.randomWriteLatencyNsOverride = Nanoseconds{randomDouble(rng)};
        cfg.prefetchIterations = randomInt(rng);
        cfg.useIlpCompiler = rng.range(2) != 0;
        cfg.dramBandwidthGBs = randomDouble(rng);
        for (double *k :
             {&cfg.knobs.dauWindowBytes, &cfg.knobs.interLayerReorderFactor,
              &cfg.knobs.tpuEfficiency, &cfg.knobs.shiftSegmentBytes,
              &cfg.knobs.leakageActivityFactor,
              &cfg.knobs.randomOutstanding})
            *k = randomDouble(rng);

        cnn::CnnModel model = zoo[rng.range(3)];
        if (rng.range(2) != 0) {
            model.name = randomName(rng);
            model.layers.resize(rng.range(6));
            for (auto &l : model.layers) {
                l.name = randomName(rng);
                l.ifmapH = randomInt(rng);
                l.ifmapW = randomInt(rng);
                l.inChannels = randomInt(rng);
                l.filters = randomInt(rng);
                l.kernelH = randomInt(rng);
                l.kernelW = randomInt(rng);
                l.stride = randomInt(rng);
                l.pad = randomInt(rng);
                l.depthwise = rng.range(2) != 0;
            }
        }
        const int batch = randomInt(rng);
        ASSERT_EQ(accel::requestKey(cfg, model, batch),
                  refRequestKey(cfg, model, batch))
            << "trial " << trial;
        ASSERT_EQ(accel::requestShapeKey(model, batch),
                  refRequestShapeKey(model, batch))
            << "trial " << trial;
    }
}

TEST(RequestHash, EdgeDoublesMatchSnprintfReference)
{
    using Lim = std::numeric_limits<double>;
    const double edges[] = {
        0.0,          -0.0,          Lim::denorm_min(),
        -Lim::denorm_min(),          0x1.23456789abcdep-1030,
        Lim::min(),   -Lim::min(),   0x0.fffffffffffffp-1022,
        Lim::max(),   -Lim::max(),   1e300,
        1.0,          -1.0,          0.5,
        0.1,          3.0,           Lim::epsilon(),
        Lim::infinity(),             -Lim::infinity(),
        Lim::quiet_NaN(),            -Lim::quiet_NaN(),
        Lim::signaling_NaN()};
    const auto model = baseModel();
    for (double v : edges) {
        auto cfg = baseCfg();
        cfg.temperatureK = v;
        cfg.knobs.randomOutstanding = -v;
        cfg.clockGhz = Gigahertz{v};
        EXPECT_EQ(accel::requestKey(cfg, model, 1),
                  refRequestKey(cfg, model, 1))
            << std::hexfloat << v;
    }
}

TEST(RequestHash, DisplayNameIsNotKeyed)
{
    // cfg.name is never read by the model; configs differing only in
    // label share a cache line by design.
    const auto model = baseModel();
    auto a = baseCfg();
    auto b = baseCfg();
    b.name = "renamed";
    EXPECT_EQ(accel::requestKey(a, model, 1),
              accel::requestKey(b, model, 1));
}

} // namespace
