/**
 * @file
 * Serving-layer demo and smoke test: replay a synthetic two-tenant
 * bursty request trace (one tenant takes ~85% of the traffic) against
 * the async evaluation service twice — a cold pass and a warm pass —
 * under a per-tenant admission quota and per-tenant p95 latency SLOs
 * (the light "mouse" tenant gets a stricter target than the global
 * default the "hog" inherits) driving both the adaptive wave sizing
 * and SLO-aware (hopeless) admission. After the replays it
 * demonstrates estimator-driven deadline assignment: a request with
 * an impossible deadline is refused with a suggested feasible
 * deadline, and the resubmission carrying that suggestion is
 * admitted. Prints admission/cache/latency metrics, the layer
 * schedules each pass computed into the schedule memo, plus the
 * per-tenant accounting and SLO standing. The replays rarely fill the
 * queue (memo-hit evaluations take microseconds), so a final overload
 * pass drives admission on purpose: fresh layer shapes whose every
 * ILP solve is stalled by the FaultInjector, against a small service,
 * must draw per-tenant quota rejections, shedding and hopeless
 * rejections. With --json [--out PATH]
 * the final metrics snapshot is also written in the
 * BENCH_micro.json-compatible schema (SERVE_metrics.json by
 * default).
 *
 * SMART_DISK_CACHE=<path> enables the persistent result store at
 * that path, so a second run of this binary against the same file
 * warm-starts from the first run's results (the crash-recovery CI leg
 * runs exactly that, with torn writes injected via SMART_FAULT_*).
 * SMART_EXPECT_WARM=1 additionally fails the smoke test when the run
 * saw no L2 hits — the assertion that a restart actually warm-started.
 *
 * Exits nonzero if the replay accounting is inconsistent (a request
 * neither completed nor reported rejected/shed/expired), if the warm
 * pass scheduled a new layer although the cold pass completed every
 * (model, scheme) pair the warm pass served, if the per-tenant SLO
 * rows are missing from the snapshot, or if the suggested-deadline
 * handshake fails, or if the overload pass misses one of its three
 * admission paths or leaves a request unaccounted for — so CI can run
 * this binary as a correctness smoke test, not just a demo.
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <fstream>
#include <future>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "accel/perf.hh"
#include "common/faultinject.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "serve/trace.hh"

namespace
{

using namespace smart;

/** What the overload pass submitted and how each request ended. */
struct OverloadTally
{
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    std::size_t quota = 0;    //!< RejectedQuota.
    std::size_t hopeless = 0; //!< RejectedHopeless.
    std::size_t rejectedOther = 0;
    std::size_t completed = 0;
    std::size_t shed = 0;
    std::size_t expired = 0;
    std::size_t failed = 0;
    serve::MetricsSnapshot metrics;

    /** Every request in exactly one terminal bucket, both views. */
    bool closes() const
    {
        const auto &m = metrics;
        return submitted ==
                   admitted + quota + hopeless + rejectedOther &&
               admitted == completed + shed + expired + failed &&
               m.submitted == m.admitted + m.rejected &&
               m.admitted == m.completed + m.shed + m.expired + m.failed &&
               m.submitted == submitted && m.shed == shed &&
               m.rejectedHopeless == hopeless;
    }
};

/**
 * Overload pass: a service with an 8-deep shedding queue, a 6-request
 * per-tenant quota and a 20 ms p95 SLO gets fresh one-layer SMART
 * models, each of whose ILP solves the FaultInjector stalls by 30 ms.
 * A cold burst (the estimator has no samples yet, so nothing is
 * hopeless) overruns the hog's quota and then the queue, so a third
 * tenant's arrivals shed the hog's newest entries. Once the burst has
 * drained, the estimator has measured ~30 ms per request, above the
 * SLO, so further arrivals on the idle queue are rejected as hopeless
 * (four of them: the idle-queue probe admits only the 8th in a row).
 * The previous fault configuration is restored afterwards.
 */
OverloadTally
runOverload()
{
    const FaultInjector::Config saved = FaultInjector::global().config();
    FaultInjector::Config stall = saved;
    stall.ilpStallMs = 30.0;
    FaultInjector::global().configure(stall);

    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 8;
    cfg.queue.policy = serve::AdmissionPolicy::Shed;
    cfg.queue.maxPerTenant = 6;
    cfg.maxWave = 1;
    cfg.linger = std::chrono::milliseconds(0);
    cfg.sloP95Ms = 20.0;
    cfg.sloAdmissionFactor = 1.0;
    serve::EvalService svc(cfg);

    OverloadTally t;
    int fresh = 0;
    std::vector<std::future<serve::EvalResponse>> admitted;
    const auto submit = [&](const char *tag) {
        serve::EvalRequest req;
        req.cfg = accel::makeSmart();
        const int side = 8 + fresh++; // a layer shape never seen before
        req.model.name = "overload";
        req.model.layers.push_back(
            {"conv", side, side, 16, 16, 3, 3, 1, 1, false});
        req.tag = tag;
        auto sub = svc.submit(std::move(req));
        ++t.submitted;
        switch (sub.admission) {
          case serve::Admission::Admitted:
          case serve::Admission::ServedDegraded:
            ++t.admitted;
            admitted.push_back(std::move(sub.response));
            break;
          case serve::Admission::RejectedQuota:
            ++t.quota;
            break;
          case serve::Admission::RejectedHopeless:
            ++t.hopeless;
            break;
          default:
            ++t.rejectedOther;
        }
    };
    for (int i = 0; i < 10; ++i)
        submit("hog");
    for (int i = 0; i < 2; ++i)
        submit("mouse");
    for (int i = 0; i < 3; ++i)
        submit("cat");
    svc.drain();
    for (int i = 0; i < 4; ++i)
        submit("mouse");
    svc.drain();
    for (auto &f : admitted) {
        try {
            switch (f.get().status) {
              case serve::ResponseStatus::Ok:
                ++t.completed;
                break;
              case serve::ResponseStatus::Shed:
                ++t.shed;
                break;
              case serve::ResponseStatus::Expired:
                ++t.expired;
                break;
            }
        } catch (const std::exception &) {
            ++t.failed;
        }
    }
    t.metrics = svc.metrics();
    FaultInjector::global().configure(saved);
    return t;
}

} // namespace

int
main(int argc, char **argv)
{
    setInformEnabled(false);
    bool json = false;
    std::string out = "SERVE_metrics.json";
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json = true;
        else if (std::string(argv[i]) == "--out" && i + 1 < argc)
            out = argv[++i];
    }

    // A service sized so the bursty trace exercises admission control:
    // bounded queue, shed policy, per-tenant quota, and small
    // coalescing waves under a p95 SLO (driving adaptive wave sizing
    // AND hopeless rejection).
    serve::ServiceConfig cfg;
    cfg.queue.maxDepth = 48;
    cfg.queue.policy = serve::AdmissionPolicy::Shed;
    cfg.queue.maxPerTenant = 36;
    cfg.maxWave = 8;
    cfg.linger = std::chrono::milliseconds(1);
    cfg.sloP95Ms = 250.0;
    cfg.sloAdmissionFactor = 1.0;
    // Per-tenant SLO: the light interactive tenant gets a stricter
    // p95 target (with admission headroom) than the global default
    // the bursty hog inherits, so wave adaptation and hopeless
    // admission treat the two asymmetrically.
    cfg.tenantSlo["mouse"] = {/*p95Ms=*/150.0, /*admissionFactor=*/0.8};
    // End-to-end tracing: sample one submission in four. A sampled
    // request that expires or is rejected as hopeless leaves its span
    // history in the flight recorder.
    cfg.traceSampleEvery = 4;
    // Persistent store (opt-in): point SMART_DISK_CACHE at a file and
    // a rerun of this binary warm-starts from it across the restart.
    const char *diskEnv = std::getenv("SMART_DISK_CACHE");
    if (diskEnv && *diskEnv)
        cfg.diskCachePath = diskEnv;
    const char *warmEnv = std::getenv("SMART_EXPECT_WARM");
    const bool expectWarm =
        warmEnv && *warmEnv && std::string(warmEnv) != "0";
    serve::EvalService svc(cfg);

    serve::TraceConfig tcfg;
    tcfg.tenants = {"hog", "mouse"};
    tcfg.tenantWeights = {0.85, 0.15};
    tcfg.repeatFraction = 0.6;
    auto trace = serve::makeSyntheticTrace(tcfg);
    std::cout << "replaying " << trace.size() << " requests ("
              << tcfg.bursts << " bursts, " << tcfg.tenants.size()
              << " tenants) against the service...\n";

    // Repeats are served by the process-wide schedule memo: the warm
    // pass re-evaluates, but its layers hit schedules the cold pass
    // made. The memo's insert count per pass counts the new layer
    // schedules.
    const std::uint64_t memoStart = accel::ilpCacheInserts();
    const auto cold = serve::replayTrace(svc, trace, /*timeScale=*/1.0);
    const std::uint64_t memoCold = accel::ilpCacheInserts();
    const auto warm = serve::replayTrace(svc, trace, /*timeScale=*/1.0);
    const std::uint64_t coldSchedules = memoCold - memoStart;
    const std::uint64_t warmSchedules =
        accel::ilpCacheInserts() - memoCold;

    Table t({"pass", "completed", "rejected", "hopeless", "shed",
             "expired", "cache hits", "coalesced", "new schedules",
             "wall ms"});
    for (const auto *p : {&cold, &warm}) {
        t.row()
            .cell(p == &cold ? "cold" : "warm")
            .integer(static_cast<long long>(p->completed))
            .integer(static_cast<long long>(p->rejected))
            .integer(static_cast<long long>(p->rejectedHopeless))
            .integer(static_cast<long long>(p->shed))
            .integer(static_cast<long long>(p->expired))
            .integer(static_cast<long long>(p->cacheHits))
            .integer(static_cast<long long>(p->coalesced))
            .integer(static_cast<long long>(
                p == &cold ? coldSchedules : warmSchedules))
            .num(p->wallMs, 1);
    }
    t.print(std::cout);

    Table per({"pass", "tenant", "submitted", "completed", "rejected",
               "shed", "cache hits"});
    for (const auto *p : {&cold, &warm}) {
        for (const auto &[tag, tally] : p->tenants) {
            per.row()
                .cell(p == &cold ? "cold" : "warm")
                .cell(tag)
                .integer(static_cast<long long>(tally.submitted))
                .integer(static_cast<long long>(tally.completed))
                .integer(static_cast<long long>(tally.rejected))
                .integer(static_cast<long long>(tally.shed))
                .integer(static_cast<long long>(tally.cacheHits));
        }
    }
    per.print(std::cout);

    // Estimator-driven deadline assignment, end to end: behind a
    // queue of in-flight fillers, a request with an impossible
    // deadline is refused up front with a suggested feasible one; the
    // resubmission carrying that suggestion is admitted once the
    // queue drains. Admission under load is timing-dependent, so the
    // handshake is attempted a few times before the smoke test calls
    // it a failure.
    bool suggestionDemoOk = false;
    double suggestedMs = 0.0;
    for (int attempt = 0; attempt < 5 && !suggestionDemoOk; ++attempt) {
        std::vector<std::future<serve::EvalResponse>> fillers;
        for (int i = 0; i < 16; ++i) {
            serve::EvalRequest fr;
            fr.cfg = accel::makeScheme(accel::Scheme::Sram);
            fr.model = cnn::convLayersOnly(cnn::makeAlexNet());
            fr.batch = 500 + 32 * attempt + i; // none coalesce
            fr.tag = "hog";
            auto sub = svc.submit(fr);
            if (sub.admitted())
                fillers.push_back(std::move(sub.response));
        }
        serve::EvalRequest doomed;
        doomed.cfg = accel::makeScheme(accel::Scheme::Sram);
        doomed.model = cnn::convLayersOnly(cnn::makeAlexNet());
        doomed.batch = 499;
        doomed.tag = "mouse";
        doomed.deadlineMs = 1e-3; // cannot survive the filler queue
        auto rejected = svc.submit(doomed);
        for (auto &f : fillers)
            f.get();
        if (rejected.admission != serve::Admission::RejectedHopeless ||
            rejected.suggestedDeadlineMs <= 0.0)
            continue;
        suggestedMs = rejected.suggestedDeadlineMs;
        svc.drain();
        doomed.deadlineMs = rejected.suggestedDeadlineMs;
        auto retried = svc.submit(doomed);
        if (retried.admitted() &&
            retried.response.get().status == serve::ResponseStatus::Ok)
            suggestionDemoOk = true;
    }
    std::cout << "suggested-deadline handshake: "
              << (suggestionDemoOk ? "rejected -> resubmitted Ok"
                                   : "FAILED")
              << " (suggested " << suggestedMs << " ms)\n";

    const auto m = svc.metrics();

    Table tslo({"tenant", "completed", "p95 (ms)", "SLO p95 (ms)",
                "violated windows"});
    for (const auto &ts : m.tenantSlo) {
        tslo.row()
            .cell(ts.tag)
            .integer(static_cast<long long>(ts.completed))
            .num(ts.latencyP95Ms, 3)
            .num(ts.sloP95Ms, 1)
            .integer(static_cast<long long>(ts.violatedWindows));
    }
    tslo.print(std::cout);

    Table s({"metric", "value"});
    s.row().cell("cache hit rate (%)").num(100.0 * m.cacheHitRate, 1);
    s.row().cell("rejected hopeless").integer(
        static_cast<long long>(m.rejectedHopeless));
    s.row().cell("est service (ms)").num(m.estServiceMs, 3);
    s.row().cell("est wave (ms)").num(m.estWaveMs, 3);
    s.row().cell("mean wave size").num(m.meanWaveSize, 2);
    s.row().cell("wave limit (adaptive)").integer(
        static_cast<long long>(m.waveLimit));
    s.row().cell("SLO p95 target (ms)").num(m.sloP95Ms, 1);
    s.row().cell("SLO windows violated").integer(
        static_cast<long long>(m.sloViolatedWindows));
    s.row().cell("latency p50 (ms)").num(m.latencyP50Ms, 3);
    s.row().cell("latency p95 (ms)").num(m.latencyP95Ms, 3);
    s.row().cell("latency p99 (ms)").num(m.latencyP99Ms, 3);
    s.row().cell("throughput (req/s)").num(m.throughputRps, 1);
    s.row().cell("queue high water").integer(
        static_cast<long long>(m.queueHighWater));
    if (!cfg.diskCachePath.empty()) {
        s.row().cell("L2 hits").integer(
            static_cast<long long>(m.l2Hits));
        s.row().cell("L2 misses").integer(
            static_cast<long long>(m.l2Misses));
        s.row().cell("L2 puts").integer(
            static_cast<long long>(m.l2Puts));
        s.row().cell("L2 entries").integer(
            static_cast<long long>(m.l2Entries));
        s.row().cell("L2 corrupt skipped").integer(
            static_cast<long long>(m.l2CorruptSkipped));
    }
    s.print(std::cout);

    // Per-stage latency breakdown from the sampled traces: the
    // queue_wait + serve pair partitions each request's end-to-end
    // time; the schedule/execute stages sit inside serve.
    if (!m.stages.empty()) {
        Table st({"stage", "count", "p50 (ms)", "p95 (ms)"});
        for (const auto &stage : m.stages) {
            st.row()
                .cell(stage.name)
                .integer(static_cast<long long>(stage.count))
                .num(stage.p50Ms, 3)
                .num(stage.p95Ms, 3);
        }
        st.print(std::cout);
    }

    // Flight recorder: every sampled request that expired or was
    // refused as hopeless left its span history here ("[]" when the
    // replay went cleanly).
    std::cout << "incident log: " << svc.dumpIncidents() << "\n";

    if (json) {
        std::ofstream os(out);
        os << m.toJson("smart_serve");
        std::cout << "wrote " << out << "\n";
    }

    // Overload pass, last: it leaves stall-era schedules in the
    // process-wide memo, and nothing after it reads the memo.
    const OverloadTally ov = runOverload();
    Table ot({"overload", "submitted", "completed", "quota", "shed",
              "hopeless", "expired", "failed"});
    ot.row()
        .cell("stalled ILP")
        .integer(static_cast<long long>(ov.submitted))
        .integer(static_cast<long long>(ov.completed))
        .integer(static_cast<long long>(ov.quota))
        .integer(static_cast<long long>(ov.shed))
        .integer(static_cast<long long>(ov.hopeless))
        .integer(static_cast<long long>(ov.expired))
        .integer(static_cast<long long>(ov.failed));
    ot.print(std::cout);

    if (!cold.consistent() || !warm.consistent()) {
        std::cerr << "FAIL: replay accounting is inconsistent\n";
        return 1;
    }
    // The warm pass may only schedule layers for (model, scheme)
    // pairs the cold pass never completed (shed or rejected there);
    // when the cold pass covered every pair the warm pass served, any
    // new schedule means repeats stopped reaching the memo.
    std::set<std::pair<std::string, std::string>> coldPairs;
    for (const auto &r : cold.responses)
        if (r.status == serve::ResponseStatus::Ok)
            coldPairs.insert({r.result.model, r.result.scheme});
    bool warmCovered = true;
    for (const auto &r : warm.responses)
        if (r.status == serve::ResponseStatus::Ok &&
            !coldPairs.count({r.result.model, r.result.scheme}))
            warmCovered = false;
    if (warm.completed > 0 && warmCovered && warmSchedules > 0) {
        std::cerr << "FAIL: warm pass scheduled " << warmSchedules
                  << " new layers; repeats missed the schedule memo\n";
        return 1;
    }
    // Per-tenant SLO rows: both tenants completed work, so both must
    // carry a latency/SLO row, with the mouse's stricter target and
    // the hog's inherited global target resolved correctly.
    bool sawHogSlo = false, sawMouseSlo = false;
    for (const auto &ts : m.tenantSlo) {
        if (ts.tag == "hog")
            sawHogSlo = ts.sloP95Ms == cfg.sloP95Ms;
        else if (ts.tag == "mouse")
            sawMouseSlo = ts.sloP95Ms == 150.0;
    }
    if (!sawHogSlo || !sawMouseSlo) {
        std::cerr << "FAIL: per-tenant SLO rows missing or carrying "
                     "the wrong resolved target\n";
        return 1;
    }
    // Crash-recovery leg: a rerun against a populated disk store must
    // actually warm-start (its hits are served without evaluation),
    // even when the first run's log carries injected torn writes.
    if (expectWarm && m.l2Hits == 0) {
        std::cerr << "FAIL: SMART_EXPECT_WARM set but the run saw no "
                     "L2 (disk cache) hits\n";
        return 1;
    }
    if (!ov.closes()) {
        std::cerr << "FAIL: overload pass accounting does not close\n";
        return 1;
    }
    if (ov.quota == 0 || ov.shed == 0 || ov.hopeless == 0) {
        std::cerr << "FAIL: overload pass missed an admission path "
                     "(quota "
                  << ov.quota << ", shed " << ov.shed << ", hopeless "
                  << ov.hopeless << ")\n";
        return 1;
    }
    if (!suggestionDemoOk) {
        std::cerr << "FAIL: suggested-deadline handshake did not "
                     "complete (no rejection with a suggestion, or "
                     "the resubmission failed)\n";
        return 1;
    }
    std::cout << "OK: all requests accounted for; warm pass scheduled "
                 "no new layers; SLO rows held; suggested deadline "
                 "admitted on retry; overload drew quota, shed and "
                 "hopeless rejections\n";
    return 0;
}
