/**
 * @file
 * Serving-layer tests: deterministic RequestQueue admission semantics
 * (priority order, reject/shed/deadline handling, per-tenant quotas
 * and fair shed-victim selection, deadline-aware linger wakeups), and
 * EvalService end-to-end behavior — admitted results bit-identical to
 * direct runInference, repeated sweeps served from the schedule memo
 * without a single new layer schedule, SLO-adaptive
 * wave sizing, rejections and sheds always reported, metrics
 * accounting closed under drain, and the synthetic trace replay
 * acceptance criteria.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"
#include "common/logging.hh"
#include "serve/service.hh"
#include "serve/trace.hh"

namespace
{

using namespace smart;
using Clock = std::chrono::steady_clock;

const bool force_threads = []() {
    setenv("SMART_THREADS", "4", /*overwrite=*/0);
    return true;
}();

// ------------------------------------------------------------------
// RequestQueue (no dispatcher thread: fully deterministic)
// ------------------------------------------------------------------

serve::Pending
makePending(serve::Priority pr, std::uint64_t seq,
            double deadline_in_ms = 0.0, const std::string &tag = "")
{
    serve::Pending p;
    p.req.priority = pr;
    p.req.tag = tag;
    p.seq = seq;
    p.submitTime = Clock::now();
    p.deadline = deadline_in_ms != 0.0
                     ? p.submitTime +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   deadline_in_ms))
                     : Clock::time_point::max();
    return p;
}

TEST(RequestQueue, PopsPriorityOrderFifoWithinPriority)
{
    serve::RequestQueue q({/*maxDepth=*/16,
                           serve::AdmissionPolicy::Reject});
    using P = serve::Priority;
    for (auto [pr, seq] :
         std::vector<std::pair<P, std::uint64_t>>{
             {P::Low, 0}, {P::High, 1}, {P::Normal, 2}, {P::High, 3}}) {
        auto res = q.push(makePending(pr, seq));
        EXPECT_EQ(res.admission, serve::Admission::Admitted);
    }
    auto wave = q.popWave(10, std::chrono::milliseconds(0));
    ASSERT_EQ(wave.items.size(), 4u);
    EXPECT_TRUE(wave.expired.empty());
    EXPECT_EQ(wave.items[0].seq, 1u); // High, oldest first
    EXPECT_EQ(wave.items[1].seq, 3u);
    EXPECT_EQ(wave.items[2].seq, 2u); // Normal
    EXPECT_EQ(wave.items[3].seq, 0u); // Low
}

TEST(RequestQueue, RejectPolicyRefusesWhenFull)
{
    serve::RequestQueue q({2, serve::AdmissionPolicy::Reject});
    EXPECT_EQ(q.push(makePending(serve::Priority::Normal, 0)).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(serve::Priority::Normal, 1)).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(serve::Priority::High, 2)).admission,
              serve::Admission::RejectedFull);
    EXPECT_EQ(q.depth(), 2u);
    EXPECT_EQ(q.highWater(), 2u);
}

TEST(RequestQueue, ShedPolicyEvictsLowestPriorityNewest)
{
    serve::RequestQueue q({2, serve::AdmissionPolicy::Shed});
    q.push(makePending(serve::Priority::Low, 0));
    q.push(makePending(serve::Priority::Low, 1));

    // A High newcomer evicts the newest Low (seq 1).
    auto res = q.push(makePending(serve::Priority::High, 2));
    EXPECT_EQ(res.admission, serve::Admission::Admitted);
    ASSERT_TRUE(res.shed.has_value());
    EXPECT_EQ(res.shed->seq, 1u);

    // An equal-priority newcomer does not shed: strict outranking only.
    auto res2 = q.push(makePending(serve::Priority::Low, 3));
    EXPECT_EQ(res2.admission, serve::Admission::RejectedFull);
    EXPECT_FALSE(res2.shed.has_value());

    auto wave = q.popWave(10, std::chrono::milliseconds(0));
    ASSERT_EQ(wave.items.size(), 2u);
    EXPECT_EQ(wave.items[0].seq, 2u); // High
    EXPECT_EQ(wave.items[1].seq, 0u); // surviving Low
}

TEST(RequestQueue, ExpiredEntriesAreSweptNotDispatched)
{
    serve::RequestQueue q({8, serve::AdmissionPolicy::Reject});
    q.push(makePending(serve::Priority::Normal, 0, /*deadline=*/-1.0));
    q.push(makePending(serve::Priority::Normal, 1));
    auto wave = q.popWave(10, std::chrono::milliseconds(0));
    ASSERT_EQ(wave.expired.size(), 1u);
    EXPECT_EQ(wave.expired[0].seq, 0u);
    ASSERT_EQ(wave.items.size(), 1u);
    EXPECT_EQ(wave.items[0].seq, 1u);
}

TEST(RequestQueue, ExpiringEntryWakesLingerEarly)
{
    serve::RequestQueue q({8, serve::AdmissionPolicy::Reject});
    q.push(makePending(serve::Priority::Normal, 0, /*deadline=*/40.0));
    const auto t0 = Clock::now();
    // A 5 s linger used to hold the already-dying entry the full
    // wait; the linger must wake at the earliest pending deadline.
    auto wave = q.popWave(4, std::chrono::milliseconds(5000));
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    ASSERT_EQ(wave.expired.size(), 1u);
    EXPECT_TRUE(wave.items.empty());
    EXPECT_LT(ms, 2500.0);
}

TEST(RequestQueue, PerTenantQuotaCapsBurstyTenant)
{
    serve::QueueConfig qc;
    qc.maxDepth = 8;
    qc.policy = serve::AdmissionPolicy::Reject;
    qc.maxPerTenant = 2;
    serve::RequestQueue q(qc);

    using P = serve::Priority;
    EXPECT_EQ(q.push(makePending(P::Normal, 0, 0.0, "hog")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(P::Normal, 1, 0.0, "hog")).admission,
              serve::Admission::Admitted);
    // The quota, not the depth bound, refuses the third: the queue
    // still has six free slots.
    EXPECT_EQ(q.push(makePending(P::High, 2, 0.0, "hog")).admission,
              serve::Admission::RejectedQuota);
    // A different tenant is unaffected by the hog's quota state.
    EXPECT_EQ(q.push(makePending(P::Normal, 3, 0.0, "mouse")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.tenantDepth("hog"), 2u);
    EXPECT_EQ(q.tenantDepth("mouse"), 1u);
    EXPECT_EQ(q.depth(), 3u);
}

TEST(RequestQueue, FairShedDisplacesFloodingTenant)
{
    // Depth-4 queue flooded by one tenant at Normal priority. An
    // equal-priority newcomer from a lighter tenant displaces the
    // flooder's newest entry instead of being refused, converging to
    // an even split; once even, equal-priority sheds stop.
    serve::RequestQueue q({4, serve::AdmissionPolicy::Shed});
    using P = serve::Priority;
    for (std::uint64_t s = 0; s < 4; ++s)
        EXPECT_TRUE(q.push(makePending(P::Normal, s, 0.0, "hog"))
                        .admission == serve::Admission::Admitted);

    auto r1 = q.push(makePending(P::Normal, 4, 0.0, "mouse"));
    EXPECT_EQ(r1.admission, serve::Admission::Admitted);
    ASSERT_TRUE(r1.shed.has_value());
    EXPECT_EQ(r1.shed->seq, 3u); // hog's newest
    EXPECT_EQ(r1.shed->req.tag, "hog");

    auto r2 = q.push(makePending(P::Normal, 5, 0.0, "mouse"));
    EXPECT_EQ(r2.admission, serve::Admission::Admitted);
    ASSERT_TRUE(r2.shed.has_value());
    EXPECT_EQ(r2.shed->req.tag, "hog");

    // 2 hog + 2 mouse: neither tenant is strictly heavier, so an
    // equal-priority push from either side is refused, not shed.
    auto r3 = q.push(makePending(P::Normal, 6, 0.0, "mouse"));
    EXPECT_EQ(r3.admission, serve::Admission::RejectedFull);
    EXPECT_FALSE(r3.shed.has_value());
    EXPECT_EQ(q.tenantDepth("hog"), 2u);
    EXPECT_EQ(q.tenantDepth("mouse"), 2u);

    // Strict priority outranking still sheds as before (fairness only
    // adds displacement, it never blocks the priority rule).
    auto r4 = q.push(makePending(P::High, 7, 0.0, "mouse"));
    EXPECT_EQ(r4.admission, serve::Admission::Admitted);
    ASSERT_TRUE(r4.shed.has_value());
    EXPECT_EQ(r4.shed->req.priority, P::Normal);
}

TEST(RequestQueue, FairShedNeverInvertsPriority)
{
    // Fairness must not let Low-priority spam from an idle tenant
    // displace a flooding tenant's Normal-priority work: the tenant
    // rule only applies at matching priority.
    serve::RequestQueue q({2, serve::AdmissionPolicy::Shed});
    using P = serve::Priority;
    EXPECT_EQ(q.push(makePending(P::Normal, 0, 0.0, "hog")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(P::Normal, 1, 0.0, "hog")).admission,
              serve::Admission::Admitted);

    auto low = q.push(makePending(P::Low, 2, 0.0, "mouse"));
    EXPECT_EQ(low.admission, serve::Admission::RejectedFull);
    EXPECT_FALSE(low.shed.has_value());
    EXPECT_EQ(q.tenantDepth("hog"), 2u);
}

TEST(RequestQueue, FairShedDoesNotChurnUniqueTagTraffic)
{
    // Every request with its own tag (all tenants at load 1): an
    // equal-priority newcomer must be refused, not allowed to
    // displace admitted work one entry at a time (displacement
    // requires a two-entry load gap, which load 1 vs 0 never has).
    serve::RequestQueue q({2, serve::AdmissionPolicy::Shed});
    using P = serve::Priority;
    EXPECT_EQ(q.push(makePending(P::Normal, 0, 0.0, "r0")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(P::Normal, 1, 0.0, "r1")).admission,
              serve::Admission::Admitted);
    auto r = q.push(makePending(P::Normal, 2, 0.0, "r2"));
    EXPECT_EQ(r.admission, serve::Admission::RejectedFull);
    EXPECT_FALSE(r.shed.has_value());
    EXPECT_EQ(q.depth(), 2u);
}

TEST(RequestQueue, ShedPolicyCannotBypassTenantQuota)
{
    // The quota is checked before the full-queue shed logic, so a
    // tenant at its cap gets RejectedQuota — never a shed victim —
    // whether the queue has free space or is full, and regardless of
    // the newcomer's priority.
    serve::QueueConfig qc;
    qc.maxDepth = 4;
    qc.policy = serve::AdmissionPolicy::Shed;
    qc.maxPerTenant = 2;
    serve::RequestQueue q(qc);
    using P = serve::Priority;

    EXPECT_EQ(q.push(makePending(P::Low, 0, 0.0, "hog")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(P::Low, 1, 0.0, "hog")).admission,
              serve::Admission::Admitted);
    // Queue not full (2/4): a High push from the capped tenant is
    // refused by quota, and nothing is shed to make room for it.
    auto r1 = q.push(makePending(P::High, 2, 0.0, "hog"));
    EXPECT_EQ(r1.admission, serve::Admission::RejectedQuota);
    EXPECT_FALSE(r1.shed.has_value());
    EXPECT_EQ(q.depth(), 2u);

    // Queue full (2 hog Low + 2 mouse Low): still RejectedQuota for
    // the capped tenant — High priority must not shed its way past
    // the quota, even with shed-eligible Low entries present.
    EXPECT_EQ(q.push(makePending(P::Low, 3, 0.0, "mouse")).admission,
              serve::Admission::Admitted);
    EXPECT_EQ(q.push(makePending(P::Low, 4, 0.0, "mouse")).admission,
              serve::Admission::Admitted);
    auto r2 = q.push(makePending(P::High, 5, 0.0, "hog"));
    EXPECT_EQ(r2.admission, serve::Admission::RejectedQuota);
    EXPECT_FALSE(r2.shed.has_value());
    EXPECT_EQ(q.tenantDepth("hog"), 2u);
    EXPECT_EQ(q.tenantDepth("mouse"), 2u);
}

TEST(RequestQueue, DeadlinePushedMidLingerShortensTheWait)
{
    serve::RequestQueue q({8, serve::AdmissionPolicy::Reject});
    q.push(makePending(serve::Priority::Normal, 0)); // no deadline
    const auto t0 = Clock::now();
    // The popper starts a 5 s linger over a deadline-free queue; a
    // request expiring in ~50 ms arrives mid-linger and must re-arm
    // the wake time instead of sitting out the remaining linger.
    std::thread pusher([&]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        q.push(makePending(serve::Priority::Normal, 1,
                           /*deadline=*/50.0));
    });
    auto wave = q.popWave(4, std::chrono::milliseconds(5000));
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    pusher.join();
    ASSERT_EQ(wave.expired.size(), 1u);
    EXPECT_EQ(wave.expired[0].seq, 1u);
    ASSERT_EQ(wave.items.size(), 1u);
    EXPECT_EQ(wave.items[0].seq, 0u);
    EXPECT_LT(ms, 2500.0);
}

TEST(RequestQueue, CloseRejectsAndDrains)
{
    serve::RequestQueue q({8, serve::AdmissionPolicy::Reject});
    q.push(makePending(serve::Priority::Normal, 0));
    q.close();
    EXPECT_EQ(q.push(makePending(serve::Priority::Normal, 1)).admission,
              serve::Admission::RejectedClosed);
    // Remaining entries still drain...
    auto wave = q.popWave(10, std::chrono::milliseconds(0));
    EXPECT_EQ(wave.items.size(), 1u);
    // ... and a drained closed queue pops empty (never blocks).
    auto empty = q.popWave(10, std::chrono::milliseconds(0));
    EXPECT_TRUE(empty.items.empty());
    EXPECT_TRUE(empty.expired.empty());
}

// ------------------------------------------------------------------
// EvalService end-to-end
// ------------------------------------------------------------------

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
    EXPECT_EQ(a.weightDramCycles, b.weightDramCycles);
    EXPECT_EQ(a.seconds, b.seconds); // bitwise: same double
    EXPECT_EQ(a.totalMacs, b.totalMacs);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].totalCycles, b.layers[i].totalCycles);
        EXPECT_EQ(a.layers[i].counters.macs, b.layers[i].counters.macs);
    }
}

TEST(EvalService, AdmittedResultsBitIdenticalToDirectRunInference)
{
    setInformEnabled(false);
    auto alex = cnn::convLayersOnly(cnn::makeAlexNet());
    auto mobile = cnn::convLayersOnly(cnn::makeMobileNet());

    std::vector<serve::EvalRequest> reqs;
    for (const auto *m : {&alex, &mobile})
        for (auto s : {accel::Scheme::Tpu, accel::Scheme::SuperNpu,
                       accel::Scheme::Smart})
            for (int b : {1, 2})
                reqs.push_back(makeRequest(s, *m, b));

    serve::EvalService svc;
    std::vector<std::future<serve::EvalResponse>> futures;
    for (auto &r : reqs) {
        auto sub = svc.submit(r);
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        auto resp = futures[i].get();
        ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
        const auto direct = accel::runInference(
            reqs[i].cfg, reqs[i].model, reqs[i].batch);
        expectIdentical(resp.result, direct);
    }
}

TEST(EvalService, RepeatedSweepServedFromScheduleMemo)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());
    std::vector<serve::EvalRequest> sweep;
    for (auto s : {accel::Scheme::SuperNpu, accel::Scheme::Sram,
                   accel::Scheme::Smart})
        for (int b : {1, 4})
            sweep.push_back(makeRequest(s, net, b));

    accel::clearIlpCache(); // pass 0 schedules every SMART layer
    const std::uint64_t inserts0 = accel::ilpCacheInserts();
    serve::EvalService svc;
    std::vector<serve::EvalResponse> first, third;
    std::uint64_t firstPassInserts = 0;
    std::size_t firstPassSchedules = 0;
    for (int pass = 0; pass < 3; ++pass) {
        std::vector<std::future<serve::EvalResponse>> futures;
        for (auto &r : sweep) {
            auto sub = svc.submit(r);
            ASSERT_TRUE(sub.admitted());
            futures.push_back(std::move(sub.response));
        }
        for (auto &f : futures) {
            auto resp = f.get();
            ASSERT_EQ(resp.status, serve::ResponseStatus::Ok);
            // Every request is evaluated; cacheHit is always false.
            EXPECT_FALSE(resp.cacheHit);
            if (pass == 0)
                firstPassSchedules += resp.result.schedulesComputed;
            else
                EXPECT_EQ(resp.result.schedulesComputed, 0u)
                    << "pass " << pass;
            EXPECT_EQ(resp.servedFromCache(),
                      resp.result.schedulesComputed == 0);
            (pass == 0 ? first : third).push_back(std::move(resp));
        }
        // Pass 0 scheduled every layer shape of the sweep; later
        // passes re-evaluate through memo hits and schedule nothing.
        const std::uint64_t inserts = accel::ilpCacheInserts() - inserts0;
        if (pass == 0)
            firstPassInserts = inserts;
        else
            EXPECT_EQ(inserts, firstPassInserts)
                << "pass " << pass << " scheduled new layers";
    }
    EXPECT_GT(firstPassInserts, 0u);

    // Each layer schedule was computed by exactly one first-pass
    // request. Only those (SMART) requests are cache misses: the
    // other schemes schedule nothing, and later passes are served
    // whole by the memo.
    EXPECT_EQ(firstPassSchedules, firstPassInserts);
    const auto m = svc.metrics();
    EXPECT_GE(m.cacheMisses, 1u);
    EXPECT_LE(m.cacheMisses, 2u);
    EXPECT_EQ(m.cacheHits + m.cacheMisses, m.completed);
    EXPECT_EQ(m.completed, 3 * sweep.size());
    EXPECT_GT(m.latencyP99Ms, 0.0); // p99 present in the snapshot

    // Re-evaluated responses carry bit-identical results.
    ASSERT_EQ(first.size(), sweep.size());
    for (std::size_t i = 0; i < sweep.size(); ++i)
        expectIdentical(third[third.size() - sweep.size() + i].result,
                        first[i].result);
}

TEST(EvalService, RejectionsAreReportedNeverSilent)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 2;
    cfg.queue.policy = serve::AdmissionPolicy::Reject;
    cfg.maxWave = 64;
    // A long linger pins queued requests while we over-submit, making
    // the rejection count immune to dispatcher timing.
    cfg.linger = std::chrono::milliseconds(800);
    serve::EvalService svc(cfg);

    const int n = 8;
    int admitted = 0, rejected = 0;
    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < n; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        if (sub.admitted()) {
            ++admitted;
            futures.push_back(std::move(sub.response));
        } else {
            EXPECT_EQ(sub.admission, serve::Admission::RejectedFull);
            ++rejected;
        }
    }
    EXPECT_EQ(admitted + rejected, n); // every request accounted for
    EXPECT_GE(rejected, 1);
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);

    const auto m = svc.metrics();
    EXPECT_EQ(m.submitted, static_cast<std::uint64_t>(n));
    EXPECT_EQ(m.admitted, static_cast<std::uint64_t>(admitted));
    EXPECT_EQ(m.rejected, static_cast<std::uint64_t>(rejected));
}

TEST(EvalService, ShedRequestsResolveWithShedStatus)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 2;
    cfg.queue.policy = serve::AdmissionPolicy::Shed;
    cfg.maxWave = 64;
    cfg.linger = std::chrono::milliseconds(800);
    serve::EvalService svc(cfg);

    auto low = makeRequest(accel::Scheme::Sram, net, 1);
    low.priority = serve::Priority::Low;
    auto high = makeRequest(accel::Scheme::Sram, net, 1);
    high.priority = serve::Priority::High;

    auto l1 = svc.submit(low);
    auto l2 = svc.submit(low);
    auto h1 = svc.submit(high);
    auto h2 = svc.submit(high);
    ASSERT_TRUE(l1.admitted() && l2.admitted());
    ASSERT_TRUE(h1.admitted() && h2.admitted());

    // Both lows were evicted by the highs; their futures say so.
    EXPECT_EQ(l2.response.get().status, serve::ResponseStatus::Shed);
    EXPECT_EQ(l1.response.get().status, serve::ResponseStatus::Shed);
    EXPECT_EQ(h1.response.get().status, serve::ResponseStatus::Ok);
    EXPECT_EQ(h2.response.get().status, serve::ResponseStatus::Ok);
    EXPECT_EQ(svc.metrics().shed, 2u);
}

TEST(EvalService, TenantQuotaReportedSynchronously)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 6;
    cfg.queue.policy = serve::AdmissionPolicy::Reject;
    cfg.queue.maxPerTenant = 3;
    cfg.maxWave = 64;
    // A long linger pins queued requests while we over-submit, making
    // the admission outcomes immune to dispatcher timing.
    cfg.linger = std::chrono::milliseconds(800);
    serve::EvalService svc(cfg);

    std::vector<std::future<serve::EvalResponse>> futures;
    int hogQuotaRejected = 0;
    for (int i = 0; i < 6; ++i) {
        auto req = makeRequest(accel::Scheme::Sram, net, 1 + i);
        req.tag = "hog";
        auto sub = svc.submit(req);
        if (sub.admitted())
            futures.push_back(std::move(sub.response));
        else {
            EXPECT_EQ(sub.admission, serve::Admission::RejectedQuota);
            ++hogQuotaRejected;
        }
    }
    EXPECT_EQ(hogQuotaRejected, 3);
    // The queue still has three free slots: the light tenant admits.
    for (int i = 0; i < 3; ++i) {
        auto req = makeRequest(accel::Scheme::Sram, net, 1 + i);
        req.tag = "mouse";
        auto sub = svc.submit(req);
        EXPECT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    EXPECT_EQ(svc.metrics().rejected, 3u);
}

TEST(EvalService, HopelessNeverFiresWithoutSloOrDeadline)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // sloAdmissionFactor defaults on, but with sloP95Ms == 0 and no
    // per-request deadline there is no budget to miss: hopeless
    // rejection must never fire, warm estimator or not.
    serve::ServiceConfig cfg;
    serve::EvalService svc(cfg);
    svc.submit(makeRequest(accel::Scheme::Sram, net, 1))
        .response.get(); // warm the estimator
    for (int i = 0; i < 8; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        ASSERT_EQ(sub.admission, serve::Admission::Admitted);
        sub.response.get();
    }
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 0u);
    EXPECT_EQ(m.rejected, 0u);
    EXPECT_GT(m.estServiceSamples, 0u); // the estimator was warm
}

TEST(EvalService, HopelessDeadlineRejectedAtSubmitOnceWarm)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 64;
    cfg.maxWave = 8;
    // The linger pins the filler requests in the queue so the
    // predicted wait is over a known nonzero depth.
    cfg.linger = std::chrono::milliseconds(800);
    serve::EvalService svc(cfg);

    // Cold estimator: even an absurd deadline is admitted (no
    // evidence to reject on), and completes or expires normally.
    auto cold = makeRequest(accel::Scheme::Sram, net, 1);
    cold.deadlineMs = 1e-6;
    auto coldSub = svc.submit(cold);
    EXPECT_EQ(coldSub.admission, serve::Admission::Admitted);
    coldSub.response.get();

    // Warm it with one full evaluation, then queue two fillers.
    svc.submit(makeRequest(accel::Scheme::Sram, net, 1)).response.get();
    std::vector<std::future<serve::EvalResponse>> fillers;
    for (int i = 0; i < 2; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 2));
        ASSERT_TRUE(sub.admitted());
        fillers.push_back(std::move(sub.response));
    }

    // Predicted wait is now >= one wave EWMA (> 0 ms); a queue
    // deadline of 1 ns is hopeless by any estimate.
    auto doomed = makeRequest(accel::Scheme::Sram, net, 1);
    doomed.deadlineMs = 1e-6;
    auto sub = svc.submit(doomed);
    EXPECT_EQ(sub.admission, serve::Admission::RejectedHopeless);
    EXPECT_FALSE(sub.response.valid()); // rejected: no future attached

    for (auto &f : fillers)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 1u);
    EXPECT_EQ(m.rejected, 1u);
    EXPECT_EQ(m.submitted, m.admitted + m.rejected);
}

TEST(EvalService, HopelessSloRejectedOnceWarm)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 1e-6; // unmeetable once any real latency is seen
    serve::EvalService svc(cfg);

    // Cold: admitted (the estimator refuses to guess) and evaluated.
    auto first = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
    EXPECT_EQ(first.admission, serve::Admission::Admitted);
    EXPECT_EQ(first.response.get().status, serve::ResponseStatus::Ok);

    // Warm: the per-shape service EWMA alone now exceeds the SLO, so
    // the same request is refused at submit even with an idle queue.
    auto second = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
    EXPECT_EQ(second.admission, serve::Admission::RejectedHopeless);
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 1u);
    EXPECT_EQ(m.completed, 1u);
}

TEST(EvalService, IdleHopelessRejectionsAdmitPeriodicProbe)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // Rejected requests produce no estimator samples, so an idle
    // service whose estimate got stuck above the SLO must admit a
    // periodic probe to re-measure — otherwise one pathological
    // sample would lock the shape out forever. Every 8th consecutive
    // idle hopeless rejection is admitted as that probe.
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 1e-6; // every warm estimate is over budget
    serve::EvalService svc(cfg);
    svc.submit(makeRequest(accel::Scheme::Sram, net, 1))
        .response.get(); // warm

    int rejected = 0, probed = 0;
    for (int i = 0; i < 8; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        if (sub.admitted()) {
            ++probed;
            EXPECT_EQ(sub.response.get().status,
                      serve::ResponseStatus::Ok);
        } else {
            EXPECT_EQ(sub.admission,
                      serve::Admission::RejectedHopeless);
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, 7); // streak of seven idle rejections...
    EXPECT_EQ(probed, 1);   // ...then the 8th goes through as a probe
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 7u);
    EXPECT_EQ(m.completed, 2u); // warm-up + the probe
}

TEST(EvalService, ClosedServiceReportsClosedNotHopeless)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // Shutdown must stay distinguishable from load rejection: even
    // with a warm estimator and an unmeetable SLO, a submit after
    // close() reports RejectedClosed, never RejectedHopeless.
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 1e-6;
    serve::EvalService svc(cfg);
    svc.submit(makeRequest(accel::Scheme::Sram, net, 1))
        .response.get(); // warm: the next submit would be hopeless
    svc.close();
    auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
    EXPECT_EQ(sub.admission, serve::Admission::RejectedClosed);
    EXPECT_EQ(svc.metrics().rejectedHopeless, 0u);
}

TEST(EvalService, SloAdmissionFactorZeroDisablesHopeless)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 1e-6;
    cfg.sloAdmissionFactor = 0.0;
    serve::EvalService svc(cfg);
    for (int i = 0; i < 4; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        ASSERT_EQ(sub.admission, serve::Admission::Admitted);
        sub.response.get();
    }
    EXPECT_EQ(svc.metrics().rejectedHopeless, 0u);
}

TEST(EvalService, AdaptiveWaveShrinksToMinUnderViolatedSlo)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 256;
    cfg.maxWave = 8;
    cfg.sloP95Ms = 1e-6; // unreachable: every window violates
    // This test measures wave adaptation, not admission: with the
    // absurd SLO, hopeless rejection would start refusing submissions
    // as soon as the estimator warms (raced by the dispatcher).
    cfg.sloAdmissionFactor = 0.0;
    serve::EvalService svc(cfg);
    EXPECT_EQ(svc.waveLimit(), 8u); // starts at maxWave

    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < 128; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    svc.drain();

    const auto m = svc.metrics();
    // 128 completions = 4 full windows of 32; multiplicative decrease
    // walks 8 -> 4 -> 2 -> 1 within the first three.
    EXPECT_EQ(m.waveLimit, 1u);
    EXPECT_EQ(svc.waveLimit(), 1u);
    EXPECT_GE(m.sloViolatedWindows, 3u);
    EXPECT_EQ(m.sloWindows, m.sloViolatedWindows); // every one violated
}

TEST(EvalService, AdaptiveWaveHoldsMaxUnderHealthySlo)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 128;
    cfg.maxWave = 8;
    cfg.sloP95Ms = 1e9; // generous: p95 always comfortably within
    serve::EvalService svc(cfg);

    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < 64; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    svc.drain();

    const auto m = svc.metrics();
    EXPECT_EQ(m.waveLimit, 8u); // growth branch keeps it pegged at max
    EXPECT_EQ(m.sloViolatedWindows, 0u);
    EXPECT_GE(m.sloWindows, 1u);
    EXPECT_DOUBLE_EQ(m.sloP95Ms, 1e9);
}

TEST(EvalService, QueueDeadlineExpiresBeforeDispatch)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.maxWave = 4;
    cfg.linger = std::chrono::milliseconds(300);
    serve::EvalService svc(cfg);

    auto req = makeRequest(accel::Scheme::Sram, net, 1);
    req.deadlineMs = 0.5; // expires long before the linger elapses
    auto sub = svc.submit(req);
    ASSERT_TRUE(sub.admitted());
    auto resp = sub.response.get();
    EXPECT_EQ(resp.status, serve::ResponseStatus::Expired);
    EXPECT_EQ(svc.metrics().expired, 1u);
}

TEST(EvalService, DrainResolvesEverythingAndAccountingCloses)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeAlexNet());
    serve::EvalService svc;
    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < 6; ++i) {
        auto sub = svc.submit(makeRequest(
            i % 2 ? accel::Scheme::Smart : accel::Scheme::SuperNpu, net,
            1 + i % 3));
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    svc.drain();
    for (auto &f : futures) {
        ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
                  std::future_status::ready);
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    }
    const auto m = svc.metrics();
    EXPECT_EQ(m.submitted, m.admitted + m.rejected);
    EXPECT_EQ(m.admitted, m.completed + m.shed + m.expired + m.failed);
    EXPECT_EQ(m.failed, 0u);
    EXPECT_EQ(m.queueDepth, 0u);
}

TEST(EvalService, CloseRejectsNewSubmissions)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    serve::EvalService svc;
    svc.close();
    auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 1));
    EXPECT_EQ(sub.admission, serve::Admission::RejectedClosed);
}

TEST(EvalService, MetricsJsonMatchesBenchSchema)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    serve::EvalService svc;
    auto req = makeRequest(accel::Scheme::Sram, net, 1);
    req.tag = "hog";
    svc.submit(req).response.get();

    const std::string json = svc.metrics().toJson("smart_serve");
    EXPECT_NE(json.find("\"bench\": \"smart_serve\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\": "), std::string::npos);
    EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(json.find("\"cache_hit_rate\": "), std::string::npos);
    EXPECT_NE(json.find("\"latency_p99_ms\": "), std::string::npos);
    EXPECT_NE(json.find("\"queue_depth\": "), std::string::npos);
    EXPECT_NE(json.find("\"rejected_hopeless\": "), std::string::npos);
    EXPECT_NE(json.find("\"est_wave_ms\": "), std::string::npos);
    // The tagged request's latency slice rides along per tenant.
    EXPECT_NE(json.find("\"tenant_hog_completed\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant_hog_latency_p95_ms\": "),
              std::string::npos);
}

// ------------------------------------------------------------------
// Cost estimator (deadline suggestion contract)
// ------------------------------------------------------------------

TEST(CostEstimator, SuggestDeadlineFollowsWaitPlusServiceOverFactor)
{
    serve::CostEstimator est(/*alpha=*/1.0); // latest sample wins
    est.recordService("shape", 10.0);
    est.recordWave(20.0, 4); // 5 ms per item drain

    // (depth * item + service) / factor, from the same EWMAs the
    // admission gate reads.
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("shape", 2, 1.0),
                     2 * 5.0 + 10.0);
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("shape", 2, 0.5),
                     (2 * 5.0 + 10.0) / 0.5);
    // Unknown shapes fall back to the global service EWMA.
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("other", 0, 1.0), 10.0);
    // Degenerate factors (0, negative, inf) behave like 1.
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("shape", 1, 0.0), 15.0);
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("shape", 1, -2.0), 15.0);
}

TEST(CostEstimator, SuggestDeadlineColdReturnsZero)
{
    serve::CostEstimator est;
    EXPECT_DOUBLE_EQ(est.suggestDeadlineMs("any", 8, 0.5), 0.0);
}

// ------------------------------------------------------------------
// Per-tenant SLOs (admission, deadlines, metrics, wave sizing)
// ------------------------------------------------------------------

TEST(EvalService, TenantSloGatesAdmissionPerTenant)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // No global SLO: only the "rt" tenant carries an (unmeetable) p95
    // target. Once the estimator is warm, rt submissions are refused
    // as hopeless while every other tenant still admits freely — the
    // gate is scoped to the submitting tenant.
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 0.0;
    cfg.tenantSlo["rt"] = {/*p95Ms=*/1e-6, /*admissionFactor=*/1.0};
    serve::EvalService svc(cfg);

    // Warm through an unconstrained tenant.
    auto warm = makeRequest(accel::Scheme::Sram, net, 1);
    warm.tag = "batch";
    svc.submit(warm).response.get();

    auto strict = makeRequest(accel::Scheme::Sram, net, 1);
    strict.tag = "rt";
    auto rejected = svc.submit(strict);
    EXPECT_EQ(rejected.admission, serve::Admission::RejectedHopeless);
    // The rejection carries an estimator-derived feasible deadline.
    EXPECT_GT(rejected.suggestedDeadlineMs, 0.0);

    auto lax = makeRequest(accel::Scheme::Sram, net, 1);
    lax.tag = "batch";
    auto admitted = svc.submit(lax);
    EXPECT_EQ(admitted.admission, serve::Admission::Admitted);
    admitted.response.get();

    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 1u);
    EXPECT_EQ(m.completed, 2u);
}

TEST(EvalService, TenantSloOptOutShieldsLaxTenantFromGlobalSlo)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // A strict global SLO with one tenant explicitly opted out
    // (p95Ms < 0): the lax tenant admits freely while default-policy
    // tenants are refused once warm.
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 1e-6;
    cfg.tenantSlo["lax"] = {/*p95Ms=*/-1.0, /*admissionFactor=*/-1.0};
    serve::EvalService svc(cfg);
    auto warm = makeRequest(accel::Scheme::Sram, net, 1);
    warm.tag = "lax";
    svc.submit(warm).response.get();

    for (int i = 0; i < 3; ++i) {
        auto lax = makeRequest(accel::Scheme::Sram, net, 1);
        lax.tag = "lax";
        auto sub = svc.submit(lax);
        ASSERT_EQ(sub.admission, serve::Admission::Admitted);
        sub.response.get();
    }
    auto other = makeRequest(accel::Scheme::Sram, net, 1);
    other.tag = "anyone-else";
    EXPECT_EQ(svc.submit(other).admission,
              serve::Admission::RejectedHopeless);
    EXPECT_EQ(svc.metrics().rejectedHopeless, 1u);
}

TEST(EvalService, SuggestedDeadlineAdmitsOnResubmitOnceDrained)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 64;
    cfg.maxWave = 8;
    // The linger pins the fillers so the doomed submit sees a known
    // nonzero depth.
    cfg.linger = std::chrono::milliseconds(800);
    serve::EvalService svc(cfg);
    svc.submit(makeRequest(accel::Scheme::Sram, net, 1))
        .response.get(); // warm
    std::vector<std::future<serve::EvalResponse>> fillers;
    for (int i = 0; i < 2; ++i) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 2));
        ASSERT_TRUE(sub.admitted());
        fillers.push_back(std::move(sub.response));
    }

    auto doomed = makeRequest(accel::Scheme::Sram, net, 1);
    doomed.deadlineMs = 1e-6;
    auto rejected = svc.submit(doomed);
    ASSERT_EQ(rejected.admission, serve::Admission::RejectedHopeless);
    // The suggestion covers the predicted wait with headroom: a
    // deadline this long passes the wait gate under unchanged
    // estimates, and after the queue drains it must admit.
    ASSERT_GT(rejected.suggestedDeadlineMs, 0.0);
    for (auto &f : fillers)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    svc.drain();

    // The suggested budget covers predicted queue drain + service
    // plus the service's 800 ms batching linger, which a lone retry
    // waits out before dispatch. Here the retry is submitted at the
    // head of a full wave (maxWave = 8 requests back-to-back), which
    // dispatches immediately instead of lingering.
    EXPECT_GT(rejected.suggestedDeadlineMs, 800.0);
    doomed.deadlineMs = rejected.suggestedDeadlineMs;
    auto retried = svc.submit(doomed);
    ASSERT_EQ(retried.admission, serve::Admission::Admitted);
    std::vector<std::future<serve::EvalResponse>> waveFill;
    for (int b = 10; b < 17; ++b) {
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, b));
        if (sub.admitted())
            waveFill.push_back(std::move(sub.response));
    }
    EXPECT_EQ(retried.response.get().status, serve::ResponseStatus::Ok);
    for (auto &f : waveFill)
        f.get();
    const auto m = svc.metrics();
    EXPECT_EQ(m.rejectedHopeless, 1u);
    EXPECT_EQ(m.submitted, m.admitted + m.rejected);
}

TEST(EvalService, NegativeLingerNeverShortensSuggestedDeadline)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());
    const std::string shape = accel::requestShapeKey(net, 1);

    // A negative linger is clamped to 0 at construction, so it can
    // neither linger nor subtract from a hopeless rejection's
    // suggested deadline (which could then go negative). The p95
    // target makes the request hopeless on an idle queue, where its
    // queue deadline alone could not be (zero predicted wait).
    serve::ServiceConfig cfg;
    cfg.linger = std::chrono::milliseconds(-5);
    cfg.sloP95Ms = 1.0;
    serve::EvalService svc(cfg);
    EXPECT_EQ(svc.config().linger.count(), 0);
    svc.costEstimator().recordService(shape, 50.0);
    svc.costEstimator().recordWave(50.0, 1);

    auto req = makeRequest(accel::Scheme::Sram, net, 1);
    req.deadlineMs = 10.0;
    auto rejected = svc.submit(req);
    ASSERT_EQ(rejected.admission, serve::Admission::RejectedHopeless);
    EXPECT_DOUBLE_EQ(rejected.suggestedDeadlineMs,
                     svc.costEstimator().suggestDeadlineMs(shape, 0, 1.0));
}

TEST(EvalService, PerTenantLatencyAndSloExportedInSnapshotAndJson)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.sloP95Ms = 500.0;
    cfg.tenantSlo["rt"] = {/*p95Ms=*/250.0, /*admissionFactor=*/-1.0};
    serve::EvalService svc(cfg);
    for (const char *tag : {"rt", "bulk", "rt"}) {
        auto req = makeRequest(accel::Scheme::Sram, net, 1);
        req.tag = tag;
        auto sub = svc.submit(req);
        ASSERT_TRUE(sub.admitted());
        sub.response.get();
    }

    const auto m = svc.metrics();
    ASSERT_EQ(m.tenantSlo.size(), 2u); // ordered by tag
    EXPECT_EQ(m.tenantSlo[0].tag, "bulk");
    EXPECT_EQ(m.tenantSlo[0].completed, 1u);
    EXPECT_DOUBLE_EQ(m.tenantSlo[0].sloP95Ms, 500.0); // inherited
    EXPECT_EQ(m.tenantSlo[1].tag, "rt");
    EXPECT_EQ(m.tenantSlo[1].completed, 2u);
    EXPECT_DOUBLE_EQ(m.tenantSlo[1].sloP95Ms, 250.0); // own entry
    EXPECT_GT(m.tenantSlo[1].latencyP95Ms, 0.0);
    EXPECT_GE(m.tenantSlo[1].latencyP95Ms,
              m.tenantSlo[1].latencyP50Ms);

    const std::string json = m.toJson("smart_serve");
    EXPECT_NE(json.find("\"tenant_rt_latency_p95_ms\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant_rt_slo_p95_ms\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant_rt_slo_violated_windows\": "),
              std::string::npos);
    EXPECT_NE(json.find("\"tenant_bulk_completed\": "),
              std::string::npos);
}

TEST(EvalService, AdaptiveWaveShrinksWhenStrictestTenantViolates)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // Mixed window: the lax tenant's generous SLO is comfortably met,
    // but the strict tenant's unreachable one is violated — the
    // strictest violated tenant must drive the halving (a healthy
    // majority must never average the violation away). Admission is
    // disabled for the strict tenant so its completions keep flowing.
    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 256;
    cfg.maxWave = 8;
    cfg.sloP95Ms = 0.0;
    cfg.tenantSlo["strict"] = {/*p95Ms=*/1e-6,
                               /*admissionFactor=*/0.0};
    cfg.tenantSlo["lax"] = {/*p95Ms=*/1e9, /*admissionFactor=*/0.0};
    serve::EvalService svc(cfg);
    EXPECT_EQ(svc.waveLimit(), 8u);

    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < 128; ++i) {
        auto req = makeRequest(accel::Scheme::Sram, net, 1);
        req.tag = (i % 2) ? "strict" : "lax";
        auto sub = svc.submit(req);
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    svc.drain();

    const auto m = svc.metrics();
    EXPECT_EQ(m.waveLimit, 1u); // halved to the floor
    EXPECT_GE(m.sloViolatedWindows, 3u);
    bool sawStrict = false;
    for (const auto &t : m.tenantSlo) {
        if (t.tag == "strict") {
            sawStrict = true;
            EXPECT_GT(t.violatedWindows, 0u);
        } else if (t.tag == "lax") {
            EXPECT_EQ(t.violatedWindows, 0u);
        }
    }
    EXPECT_TRUE(sawStrict);
}

TEST(EvalService, AdaptiveWaveHoldsMaxWhenEveryTenantHealthy)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 128;
    cfg.maxWave = 8;
    cfg.sloP95Ms = 0.0; // per-tenant targets only
    cfg.tenantSlo["a"] = {/*p95Ms=*/1e9, /*admissionFactor=*/-1.0};
    cfg.tenantSlo["b"] = {/*p95Ms=*/1e9, /*admissionFactor=*/-1.0};
    serve::EvalService svc(cfg);

    std::vector<std::future<serve::EvalResponse>> futures;
    for (int i = 0; i < 64; ++i) {
        auto req = makeRequest(accel::Scheme::Sram, net, 1);
        req.tag = (i % 2) ? "a" : "b";
        auto sub = svc.submit(req);
        ASSERT_TRUE(sub.admitted());
        futures.push_back(std::move(sub.response));
    }
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, serve::ResponseStatus::Ok);
    svc.drain();

    const auto m = svc.metrics();
    EXPECT_EQ(m.waveLimit, 8u);
    EXPECT_EQ(m.sloViolatedWindows, 0u);
    EXPECT_GE(m.sloWindows, 1u);
}

TEST(EvalService, IdleProbeSelfHealsAPoisonedEstimate)
{
    setInformEnabled(false);
    auto net = cnn::convLayersOnly(cnn::makeMobileNet());

    // Measure the true per-request cost on this machine first, with
    // an unconstrained probe service.
    double trueMs = 0.0;
    {
        serve::EvalService probe;
        probe.submit(makeRequest(accel::Scheme::Sram, net, 1))
            .response.get();
        trueMs = probe.metrics().estServiceMs;
    }
    ASSERT_GT(trueMs, 0.0);

    // An SLO the true cost meets with lots of slack, and an estimator
    // poisoned far above it (the pathological first measurement the
    // probe path exists for: e.g. a cold 100x outlier).
    serve::ServiceConfig cfg;
    cfg.sloP95Ms = std::max(50.0, 64.0 * trueMs);
    cfg.sloAdmissionFactor = 1.0;
    serve::EvalService svc(cfg);
    const std::string shape = accel::requestShapeKey(net, 1);
    const double poisonedMs = 100.0 * cfg.sloP95Ms;
    svc.costEstimator().recordService(shape, poisonedMs);
    svc.costEstimator().recordWave(poisonedMs, 1);
    EXPECT_GT(svc.metrics().estServiceMs, cfg.sloP95Ms);

    // Without probes the traffic would now be locked out forever: the
    // rejections it provokes produce no samples. Drive submissions at
    // the idle service until probe admissions fold enough real
    // latencies in to pull the estimate back under the threshold and
    // admissions resume. Each submission uses a fresh batch (= a
    // fresh shape class falling back to the poisoned global EWMA), so
    // every probe is judged against the poisoned estimate.
    int rejected = 0, probed = 0, submits = 0;
    bool healed = false;
    for (; submits < 256 && !healed; ++submits) {
        auto sub = svc.submit(
            makeRequest(accel::Scheme::Sram, net, 100 + submits));
        if (!sub.admitted()) {
            ASSERT_EQ(sub.admission,
                      serve::Admission::RejectedHopeless);
            ++rejected;
            continue;
        }
        ++probed;
        EXPECT_EQ(sub.response.get().status,
                  serve::ResponseStatus::Ok);
        svc.drain(); // keep the queue idle so the streak advances
        // Healed once the estimate is back inside the admission
        // threshold — the next submits stop being rejected. The
        // threshold mirrors the service's confidence tightening: a
        // wide EWMA-variance interval (and this estimator's is huge,
        // straddling the poisoned outlier and the real latencies)
        // shrinks the effective factor by up to half.
        const double meanMs = svc.metrics().estServiceMs;
        const auto ival = svc.costEstimator().estimateInterval();
        double eff = cfg.sloAdmissionFactor;
        const double halfWidth = (ival.second - ival.first) / 2.0;
        if (halfWidth > 0.0 && meanMs > 0.0)
            eff /= 1.0 + std::min(1.0, halfWidth / meanMs);
        healed = meanMs < eff * cfg.sloP95Ms;
    }
    EXPECT_TRUE(healed) << "estimate never recovered: est_service_ms="
                        << svc.metrics().estServiceMs
                        << " threshold=" << cfg.sloP95Ms;
    EXPECT_GT(rejected, 0);  // the poisoned estimate did reject
    EXPECT_GE(probed, 1);    // probes were admitted while idle
    EXPECT_LT(svc.metrics().estServiceMs, cfg.sloP95Ms);

    // And the service is actually usable again: the next submission
    // is admitted outright (no probe streak needed).
    auto after =
        svc.submit(makeRequest(accel::Scheme::Sram, net, 9999));
    EXPECT_EQ(after.admission, serve::Admission::Admitted);
    after.response.get();
}

// ------------------------------------------------------------------
// Trace replay (the PR's acceptance scenario)
// ------------------------------------------------------------------

TEST(TraceReplay, AccountingClosesAndResultsMatchDirect)
{
    setInformEnabled(false);
    serve::TraceConfig tcfg;
    tcfg.bursts = 2;
    tcfg.requestsPerBurst = 12;
    tcfg.intraGapMs = 0.0;
    tcfg.burstGapMs = 0.0;
    tcfg.models = {"AlexNet"};
    auto trace = serve::makeSyntheticTrace(tcfg);

    accel::clearIlpCache();
    const std::uint64_t inserts0 = accel::ilpCacheInserts();
    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 256; // generous: nothing rejected
    serve::EvalService svc(cfg);
    auto rep = serve::replayTrace(svc, trace, /*timeScale=*/0.0);

    EXPECT_TRUE(rep.consistent());
    EXPECT_EQ(rep.rejected, 0u);
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_EQ(rep.completed + rep.expired, trace.size());

    // With no rejections, responses[i] answers trace[i]; every Ok
    // result must be bit-identical to a direct evaluation.
    ASSERT_EQ(rep.responses.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (rep.responses[i].status != serve::ResponseStatus::Ok)
            continue;
        const auto &req = trace[i].req;
        expectIdentical(
            rep.responses[i].result,
            accel::runInference(req.cfg, req.model, req.batch));
    }

    // A repeated sweep is memo-dominated: every layer shape was
    // scheduled by the time pass 1 drained, so later passes
    // re-evaluate through memo hits and schedule nothing new.
    const std::uint64_t inserts = accel::ilpCacheInserts();
    EXPECT_GT(inserts, inserts0);
    auto rep2 = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    EXPECT_TRUE(rep2.consistent());
    EXPECT_EQ(rep2.cacheHits, rep2.completed);
    auto rep3 = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    EXPECT_TRUE(rep3.consistent());
    EXPECT_EQ(accel::ilpCacheInserts(), inserts);
    EXPECT_GT(rep3.metrics.latencyP99Ms, 0.0);
}

TEST(TraceConfig, PerTenantDeadlineMixAssignsDeadlinesByTenant)
{
    serve::TraceConfig tcfg;
    tcfg.bursts = 2;
    tcfg.requestsPerBurst = 16;
    tcfg.models = {"AlexNet"};
    tcfg.tenants = {"interactive", "batch"};
    tcfg.tenantDeadlineMs = {25.0, 0.0};
    tcfg.deadlineFraction = 0.5; // overridden by the per-tenant mix
    auto trace = serve::makeSyntheticTrace(tcfg);

    std::size_t interactive = 0, batch = 0;
    for (const auto &tr : trace) {
        if (tr.req.tag == "interactive") {
            ++interactive;
            EXPECT_DOUBLE_EQ(tr.req.deadlineMs, 25.0);
        } else {
            ++batch;
            EXPECT_DOUBLE_EQ(tr.req.deadlineMs, 0.0);
        }
    }
    EXPECT_GT(interactive, 0u);
    EXPECT_GT(batch, 0u);

    // The per-tenant mix must not perturb the rest of the stream: the
    // same seed without it draws the same requests, deadlines aside.
    serve::TraceConfig plain = tcfg;
    plain.tenantDeadlineMs.clear();
    auto twin = serve::makeSyntheticTrace(plain);
    ASSERT_EQ(twin.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(twin[i].req.tag, trace[i].req.tag);
        EXPECT_EQ(twin[i].req.batch, trace[i].req.batch);
        EXPECT_EQ(twin[i].req.priority, trace[i].req.priority);
    }
}

TEST(TraceReplay, ResubmitOnSuggestionRetriesHopelessRejections)
{
    setInformEnabled(false);

    // An interactive tenant with impossible queue deadlines over a
    // back-to-back flood: once the estimator warms, its submissions
    // behind any queue are hopeless and carry a suggestion; the
    // replay's resubmit mode retries each once against the drained
    // queue, where the suggested budget holds.
    serve::TraceConfig tcfg;
    tcfg.bursts = 2;
    tcfg.requestsPerBurst = 16;
    tcfg.intraGapMs = 0.0;
    tcfg.burstGapMs = 0.0;
    tcfg.models = {"AlexNet"};
    tcfg.repeatFraction = 0.5;
    tcfg.tenants = {"rt", "batch"};
    tcfg.tenantDeadlineMs = {1e-6, 0.0};
    auto trace = serve::makeSyntheticTrace(tcfg);

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 256;
    cfg.maxWave = 4;
    serve::EvalService svc(cfg);
    // Warm the estimator so the flood is judged on evidence from the
    // first submission on.
    {
        auto net = cnn::convLayersOnly(cnn::makeAlexNet());
        auto sub = svc.submit(makeRequest(accel::Scheme::Sram, net, 77));
        ASSERT_TRUE(sub.admitted());
        sub.response.get();
    }

    serve::ReplayOptions opts;
    opts.timeScale = 0.0;
    opts.resubmitOnSuggestion = true;
    const auto rep = serve::replayTrace(svc, trace, opts);

    // Original-trace accounting stays closed; retries ride on top.
    EXPECT_TRUE(rep.consistent());
    EXPECT_GT(rep.rejectedHopeless, 0u);
    EXPECT_GT(rep.resubmitted, 0u);
    EXPECT_LE(rep.resubmitted, rep.rejectedHopeless);
    // Retried against a drained queue with the suggested budget,
    // retries must overwhelmingly land (the acceptance bar is >= 90%
    // in the bench scenario; the tiny test trace should not lose any,
    // but tolerate one timing casualty under sanitizers).
    EXPECT_GE(rep.resubmitOk + 1, rep.resubmitted);
    // Per-tenant tallies mirror the totals.
    std::size_t resubmitted = 0, resubmitOk = 0;
    for (const auto &[tag, t] : rep.tenants) {
        resubmitted += t.resubmitted;
        resubmitOk += t.resubmitOk;
        if (tag == "batch") {
            EXPECT_EQ(t.resubmitted, 0u); // no deadline, never doomed
            EXPECT_EQ(t.rejectedHopeless, 0u);
        }
    }
    EXPECT_EQ(resubmitted, rep.resubmitted);
    EXPECT_EQ(resubmitOk, rep.resubmitOk);
}

TEST(TraceReplay, TwoTenantBurstyTraceAccountsEveryRequest)
{
    setInformEnabled(false);
    serve::TraceConfig tcfg;
    tcfg.bursts = 2;
    tcfg.requestsPerBurst = 16;
    tcfg.intraGapMs = 0.0;
    tcfg.burstGapMs = 0.0;
    tcfg.models = {"AlexNet"};
    tcfg.repeatFraction = 0.6; // still bursty, but visits most points
    tcfg.tenants = {"hog", "mouse"};
    tcfg.tenantWeights = {0.85, 0.15};
    auto trace = serve::makeSyntheticTrace(tcfg);

    // Both tenants must actually appear for the fairness accounting.
    std::size_t hog = 0, mouse = 0;
    for (const auto &tr : trace)
        (tr.req.tag == "hog" ? hog : mouse) += 1;
    ASSERT_GT(hog, 0u);
    ASSERT_GT(mouse, 0u);

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 256; // admit everything
    serve::EvalService svc(cfg);

    const auto cold = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    const std::uint64_t inserts = accel::ilpCacheInserts();
    const auto warm = serve::replayTrace(svc, trace, /*timeScale=*/0.0);
    EXPECT_TRUE(cold.consistent());
    EXPECT_TRUE(warm.consistent());
    EXPECT_EQ(warm.rejected, 0u);
    EXPECT_EQ(warm.failed, 0u);
    // The warm pass re-evaluates the bursty working set through memo
    // hits: not one new layer schedule, so every completion is a
    // cache hit.
    EXPECT_EQ(accel::ilpCacheInserts(), inserts);
    EXPECT_EQ(warm.cacheHits, warm.completed);

    // Per-tenant accounting covers the full trace and the results
    // stay bit-identical to direct evaluation.
    for (const auto *rep : {&cold, &warm}) {
        std::size_t accounted = 0;
        for (const auto &[tag, t] : rep->tenants) {
            EXPECT_TRUE(tag == "hog" || tag == "mouse");
            accounted += t.submitted;
            EXPECT_EQ(t.submitted, t.completed + t.rejected + t.shed +
                                       t.expired + t.failed);
        }
        EXPECT_EQ(accounted, trace.size());
    }
    for (std::size_t i = 0; i < warm.responses.size(); ++i) {
        if (warm.responses[i].status != serve::ResponseStatus::Ok)
            continue;
        const auto &req = trace[i].req;
        expectIdentical(
            warm.responses[i].result,
            accel::runInference(req.cfg, req.model, req.batch));
    }
}

} // namespace
