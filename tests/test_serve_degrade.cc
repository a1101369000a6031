/**
 * @file
 * Graceful-degradation tests for the evaluation service: anytime
 * (greedy) scheduling under DegradePolicy Off/Auto (the hopeless
 * rescue), suggested-deadline resubmits, and the persistent result
 * store across restarts (including injected corruption). Companion
 * to tests/test_serve.cc, which covers the non-degraded serve path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "serve/service.hh"
#include "serve/trace.hh"

namespace
{

using namespace smart;

// Degraded waves still fan out through the pool; keep it bounded so
// CI machines don't oversubscribe.
const bool force_threads = []() {
    setenv("SMART_THREADS", "4", 0);
    return true;
}();

serve::EvalRequest
makeRequest(accel::Scheme s, const cnn::CnnModel &model, int batch)
{
    serve::EvalRequest r;
    r.cfg = accel::makeScheme(s);
    r.model = model;
    r.batch = batch;
    return r;
}

void
expectIdentical(const accel::InferenceResult &a,
                const accel::InferenceResult &b)
{
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.batch, b.batch);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.seconds, b.seconds); // bitwise: same double
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i)
        EXPECT_EQ(a.layers[i].totalCycles, b.layers[i].totalCycles);
}

/**
 * Teach @p svc's estimator that the ILP path of every (@p net, batch)
 * shape in @p batches costs 60 s, far past a 2 s p95 target, over a
 * fast queue drain; the greedy twins stay untracked (optimistically
 * cheap). Under degradePolicy Auto such requests are then rescued
 * onto the greedy path, as in AutoRescuesHopelessBurstAsServedDegraded.
 */
void
teachIlpHopeless(serve::EvalService &svc, const cnn::CnnModel &net,
                 std::initializer_list<int> batches)
{
    for (int b : batches)
        svc.costEstimator().recordService(accel::requestShapeKey(net, b),
                                          60e3);
    svc.costEstimator().recordWave(10.0, 100);
}

/** degradePolicy Auto under a 2 s p95 target (see teachIlpHopeless). */
serve::ServiceConfig
rescueConfig()
{
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 2000.0;
    cfg.degradePolicy = serve::DegradePolicy::Auto;
    return cfg;
}

std::string
cachePath(const std::string &name)
{
    const std::string p = ::testing::TempDir() + "smart_l2_" + name;
    std::remove(p.c_str());
    std::remove((p + ".tmp").c_str());
    return p;
}

// ------------------------------------------------------------------
// Policy Off vs Auto: the rescue contract
// ------------------------------------------------------------------

TEST(EvalServiceDegrade, OffPolicyRejectsWhatAutoWouldServe)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    const std::string shape = accel::requestShapeKey(net, 1);

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 2000.0;
    cfg.degradePolicy = serve::DegradePolicy::Off;
    serve::EvalService svc(cfg);
    // Teach the estimator the ILP path is far past the SLO; the
    // greedy twin stays untracked (optimistically cheap).
    svc.costEstimator().recordService(shape, 60e3);
    svc.costEstimator().recordWave(10.0, 100); // fast drain

    auto sub = svc.submit(makeRequest(accel::Scheme::Smart, net, 1));
    EXPECT_EQ(sub.admission, serve::Admission::RejectedHopeless);
    EXPECT_FALSE(sub.response.valid());
    EXPECT_EQ(svc.metrics().rejectedHopeless, 1u);
    EXPECT_EQ(svc.metrics().servedDegraded, 0u);
}

TEST(EvalServiceDegrade, AutoRescuesHopelessBurstAsServedDegraded)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 2000.0;
    cfg.degradePolicy = serve::DegradePolicy::Auto;
    cfg.queue.maxDepth = 64;
    serve::EvalService svc(cfg);
    // The ILP path is hopeless for both shapes in the burst; a fast
    // drain rate keeps the (shared) queue-wait term under the SLO so
    // the verdict is about the service term, not the queue.
    for (int b : {1, 2})
        svc.costEstimator().recordService(
            accel::requestShapeKey(net, b), 60e3);
    svc.costEstimator().recordWave(10.0, 100);

    // A burst that would be rejected wholesale under Off: every
    // request must instead ride the greedy path, within deadline.
    const int n = 12;
    int servedDegraded = 0;
    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < n; ++i) {
        auto req =
            makeRequest(accel::Scheme::Smart, net, 1 + i % 2);
        req.deadlineMs = 10e3; // generous queue budget
        req.tag = "burst";
        auto sub = svc.submit(req);
        ASSERT_TRUE(sub.admitted()) << "request " << i;
        if (sub.admission == serve::Admission::ServedDegraded)
            ++servedDegraded;
        futures.push_back(std::move(sub.response));
    }
    // The ISSUE acceptance bar: >= 90% of the previously-rejected
    // burst served degraded (here the estimator state is pinned, so
    // it is in fact all of them).
    EXPECT_GE(servedDegraded, (n * 9 + 9) / 10);

    for (auto &f : futures) {
        auto resp = f.get();
        ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
        EXPECT_TRUE(resp.degraded);
        EXPECT_EQ(resp.quality, compiler::Quality::Greedy);
        EXPECT_EQ(resp.tag, "burst");
    }

    const auto m = svc.metrics();
    EXPECT_EQ(m.servedDegraded, static_cast<std::uint64_t>(n));
    EXPECT_EQ(m.rejectedHopeless, 0u);
    EXPECT_GT(m.degradedLatencyP95Ms, 0.0);
    bool sawTenant = false;
    for (const auto &t : m.tenantSlo)
        if (t.tag == "burst") {
            sawTenant = true;
            EXPECT_EQ(t.degraded, static_cast<std::uint64_t>(n));
        }
    EXPECT_TRUE(sawTenant);
}

TEST(EvalServiceDegrade, AutoRejectsWhenGreedyTwinIsAlsoHopeless)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    const std::string shape = accel::requestShapeKey(net, 1);

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 5000.0;
    cfg.degradePolicy = serve::DegradePolicy::Auto;
    serve::EvalService svc(cfg);
    // Both paths are tracked over budget, so the rescue has no
    // cheaper path to route the request to: Auto rejects like Off.
    svc.costEstimator().recordService(shape, 100e3);
    svc.costEstimator().recordService(shape + "|greedy", 100e3);
    svc.costEstimator().recordWave(1.0, 100); // near-zero wait term

    auto sub = svc.submit(makeRequest(accel::Scheme::Smart, net, 1));
    EXPECT_EQ(sub.admission, serve::Admission::RejectedHopeless);
    EXPECT_FALSE(sub.response.valid());
    EXPECT_GT(sub.suggestedDeadlineMs, 0.0);
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 1u);
    EXPECT_EQ(m.admitted, 0u);
    EXPECT_EQ(m.servedDegraded, 0u);
}

// ------------------------------------------------------------------
// The degraded determinism contract
// ------------------------------------------------------------------

TEST(EvalServiceDegrade, RescuedRequestBitIdenticalToDirectGreedyRun)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());

    serve::EvalService svc(rescueConfig());
    teachIlpHopeless(svc, net, {2});

    auto sub = svc.submit(makeRequest(accel::Scheme::Smart, net, 2));
    ASSERT_EQ(sub.admission, serve::Admission::ServedDegraded);
    auto resp = sub.response.get();
    ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
    EXPECT_TRUE(resp.degraded);
    EXPECT_EQ(resp.quality, compiler::Quality::Greedy);
    EXPECT_LT(resp.gapBound, 0.0); // plain greedy: no LP bound

    // The degraded determinism contract (service.hh): bit-identical
    // to a direct greedy-mode runInference.
    const auto direct =
        accel::runInference(accel::makeScheme(accel::Scheme::Smart),
                            net, 2, accel::SchedMode::Greedy);
    expectIdentical(resp.result, direct);

    // A repeat is a fresh greedy re-evaluation (the schedule memo
    // holds the greedy layer schedules under their own key), still
    // honestly degraded and bit-identical to the first. The ILP
    // estimate is untouched by the greedy sample, so it is rescued
    // again.
    auto again = svc.submit(makeRequest(accel::Scheme::Smart, net, 2));
    ASSERT_EQ(again.admission, serve::Admission::ServedDegraded);
    auto repeat = again.response.get();
    ASSERT_EQ(repeat.status, serve::ResponseStatus::Ok);
    EXPECT_FALSE(repeat.cacheHit);
    EXPECT_TRUE(repeat.degraded);
    EXPECT_EQ(repeat.quality, compiler::Quality::Greedy);
    expectIdentical(repeat.result, direct);
}

TEST(EvalServiceDegrade, CachedOptimalResultServesDegradeMarkedRequest)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());
    const std::string path = cachePath("optimal_for_degraded");

    serve::ServiceConfig cfg = rescueConfig();
    cfg.diskCachePath = path;
    serve::EvalService svc(cfg);

    // Populate the optimal store entry first, while the estimator is
    // cold: nothing is hopeless yet, so it is served at full quality.
    auto seeded = svc.submit(makeRequest(accel::Scheme::Smart, net, 1));
    ASSERT_EQ(seeded.admission, serve::Admission::Admitted);
    auto optimal = seeded.response.get();
    ASSERT_EQ(optimal.status, serve::ResponseStatus::Ok);
    EXPECT_FALSE(optimal.degraded);

    // Once the ILP path is known to be hopeless, a twin is rescued
    // (degrade-marked) at submit, and takes the already-stored optimal
    // result: better quality at the same (store-hit) cost, and
    // honestly NOT counted as degraded — no greedy schedule was ever
    // served. (The seed's real sample and the 60 s one fold into an
    // EWMA still far over the 2 s target.)
    teachIlpHopeless(svc, net, {1});
    auto sub = svc.submit(makeRequest(accel::Scheme::Smart, net, 1));
    ASSERT_EQ(sub.admission, serve::Admission::ServedDegraded);
    auto resp = sub.response.get();
    ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
    EXPECT_TRUE(resp.cacheHit);
    EXPECT_EQ(resp.quality, compiler::Quality::CacheHit);
    EXPECT_FALSE(resp.degraded);
    expectIdentical(resp.result, optimal.result);
    EXPECT_EQ(svc.metrics().servedDegraded, 0u);
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Suggested-deadline resubmits
// ------------------------------------------------------------------

TEST(EvalServiceDegrade, SuggestedDeadlineResubmitIsNotDegraded)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    const std::string shape = accel::requestShapeKey(net, 1);

    serve::ServiceConfig cfg;
    cfg.degradePolicy = serve::DegradePolicy::Auto;
    cfg.queue.maxDepth = 8;
    cfg.linger = std::chrono::milliseconds(300); // pins the filler
    serve::EvalService svc(cfg);
    // A wait-bound doom: the queue drains slowly, so a tight queue
    // deadline is hopeless REGARDLESS of scheduler — degrading cannot
    // drain the queue in front of the request any faster, so Auto
    // must reject (with a suggestion), not degrade.
    svc.costEstimator().recordService(shape, 1.0);
    svc.costEstimator().recordWave(10e3, 1); // 10 s per queued item

    auto filler = svc.submit(makeRequest(accel::Scheme::Smart, net, 1));
    ASSERT_TRUE(filler.admitted());

    auto doomed = makeRequest(accel::Scheme::Smart, net, 1);
    doomed.deadlineMs = 5.0;
    auto rejected = svc.submit(doomed);
    ASSERT_EQ(rejected.admission, serve::Admission::RejectedHopeless);
    ASSERT_GT(rejected.suggestedDeadlineMs, 0.0);

    // The resubmit carries the suggested budget: it passes the wait
    // gate by construction, and since nothing constrains its QUALITY,
    // it must come back at full quality — a resubmitted rejection is
    // never quietly degraded on the way in.
    auto retry = makeRequest(accel::Scheme::Smart, net, 1);
    retry.deadlineMs = rejected.suggestedDeadlineMs;
    auto sub = svc.submit(retry);
    ASSERT_EQ(sub.admission, serve::Admission::Admitted);
    auto resp = sub.response.get();
    ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
    EXPECT_FALSE(resp.degraded);
    EXPECT_EQ(filler.response.get().status, serve::ResponseStatus::Ok);
}

// ------------------------------------------------------------------
// Persistent L2: warm starts and corruption tolerance
// ------------------------------------------------------------------

TEST(EvalServiceDegrade, DiskCacheWarmStartsAcrossRestart)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());
    const std::string path = cachePath("warmstart");

    serve::ServiceConfig cfg;
    cfg.diskCachePath = path;

    std::vector<serve::EvalRequest> reqs;
    for (auto s : {accel::Scheme::Smart, accel::Scheme::Sram,
                   accel::Scheme::SuperNpu})
        for (int b : {1, 2})
            reqs.push_back(makeRequest(s, net, b));

    std::vector<accel::InferenceResult> first;
    {
        serve::EvalService svc(cfg);
        for (auto &r : reqs) {
            auto sub = svc.submit(r);
            ASSERT_TRUE(sub.admitted());
            auto resp = sub.response.get();
            ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
            first.push_back(std::move(resp.result));
        }
        const auto m = svc.metrics();
        EXPECT_EQ(m.l2Puts, reqs.size());
        EXPECT_EQ(m.l2Entries, reqs.size());
    }

    // A fresh process over the same log: every request is a store
    // hit, so the restart serves stored results without re-solving.
    serve::EvalService svc(cfg);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        auto sub = svc.submit(reqs[i]);
        ASSERT_TRUE(sub.admitted());
        auto resp = sub.response.get();
        ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
        EXPECT_TRUE(resp.cacheHit) << "request " << i;
        EXPECT_EQ(resp.quality, compiler::Quality::CacheHit);
        expectIdentical(resp.result, first[i]);
    }
    const auto m = svc.metrics();
    // ISSUE acceptance bar is >= 50% L2 hits; with an intact log it
    // is all of them.
    EXPECT_GE(m.l2Hits, reqs.size() / 2);
    EXPECT_EQ(m.l2Hits, reqs.size());
    EXPECT_EQ(m.l2CorruptSkipped, 0u);
    std::remove(path.c_str());
}

TEST(EvalServiceDegrade, DiskCacheCorruptionToleratedOnRestart)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());
    const std::string path = cachePath("corrupt");

    serve::ServiceConfig cfg;
    cfg.diskCachePath = path;

    // An ODD number of requests: with every append torn, each
    // even-numbered put self-heals the previous tear by compacting
    // (and skips its own append), so an odd count guarantees the
    // surviving log ends in a torn tail — the crash shape under test.
    std::vector<serve::EvalRequest> reqs;
    reqs.push_back(makeRequest(accel::Scheme::Smart, net, 1));
    reqs.push_back(makeRequest(accel::Scheme::Smart, net, 2));
    reqs.push_back(makeRequest(accel::Scheme::Sram, net, 1));

    // Serve the working set with EVERY append torn mid-record: the
    // log that survives the "crash" is clean except for its tail.
    {
        serve::EvalService svc(cfg);
        FaultInjector::Config faults;
        faults.diskTornWriteProb = 1.0;
        FaultInjector::global().configure(faults);
        for (auto &r : reqs) {
            auto sub = svc.submit(r);
            ASSERT_TRUE(sub.admitted());
            ASSERT_EQ(sub.response.get().status,
                      serve::ResponseStatus::Ok);
        }
        svc.drain();
        FaultInjector::global().reset();
    }

    // Restart: the torn tail is skipped and counted, every intact
    // record warm-starts, and the lost one is simply re-evaluated.
    serve::EvalService svc(cfg);
    std::size_t hits = 0;
    for (auto &r : reqs) {
        auto sub = svc.submit(r);
        ASSERT_TRUE(sub.admitted());
        auto resp = sub.response.get();
        ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
        hits += resp.cacheHit ? 1 : 0;
    }
    const auto m = svc.metrics();
    EXPECT_GE(m.l2CorruptSkipped, 1u);
    EXPECT_GE(hits, reqs.size() - 1);  // only the torn tail lost
    EXPECT_GE(hits, reqs.size() / 2);  // the ISSUE acceptance bar
    std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Trace replay accounting
// ------------------------------------------------------------------

TEST(EvalServiceDegrade, TraceReplayTalliesServedDegraded)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());

    // Hand-built trace of Smart-scheme points (the scheme with a real
    // ILP-vs-greedy distinction), two tenants.
    std::vector<serve::TraceRequest> trace;
    for (int i = 0; i < 6; ++i) {
        serve::TraceRequest tr;
        tr.arrivalMs = i * 0.1;
        tr.req = makeRequest(accel::Scheme::Smart, net, 1 + i % 2);
        tr.req.tag = i % 3 == 0 ? "alpha" : "beta";
        trace.push_back(std::move(tr));
    }

    // Every point's ILP path is hopeless, so Auto rescues the whole
    // trace onto the greedy path.
    serve::EvalService svc(rescueConfig());
    teachIlpHopeless(svc, net, {1, 2});
    const auto rep = serve::replayTrace(svc, trace, 0.0);
    EXPECT_TRUE(rep.consistent());
    EXPECT_EQ(rep.completed, trace.size());
    EXPECT_EQ(rep.servedDegraded, trace.size());
    std::size_t tenantSum = 0;
    for (const auto &[tag, tally] : rep.tenants)
        tenantSum += tally.servedDegraded;
    EXPECT_EQ(tenantSum, trace.size());
    EXPECT_EQ(rep.metrics.servedDegraded, trace.size());
}

} // namespace
