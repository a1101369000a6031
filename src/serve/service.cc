#include "serve/service.hh"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "accel/hash.hh"
#include "accel/perf.hh"
#include "common/arena.hh"
#include "common/logging.hh"
#include "common/taskgraph.hh"
#include "common/tracespan.hh"

namespace smart::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * Every Nth consecutive hopeless rejection on an IDLE queue is
 * admitted anyway, as a probe. Rejected requests produce no samples,
 * so without probes one pathological first measurement (a 10x cold
 * outlier seeding the shape EWMA above the SLO) would lock that shape
 * out forever even while the service sits idle; the probe's real
 * latency refreshes the estimator and admission self-heals. Probes
 * are restricted to an empty queue: there they cost nothing and
 * cannot miss by much, while under load the admitted stream keeps
 * the estimator fresh on its own (no lockout to heal) and a probe
 * would just be a genuinely doomed request.
 */
constexpr std::uint32_t kHopelessProbeInterval = 8;

/** Ok completions per SLO adaptation decision. */
constexpr std::size_t kSloWindow = 32;

/** Clamp the wave/SLO knobs into a usable shape once, up front. */
ServiceConfig
normalized(ServiceConfig cfg)
{
    cfg.maxWave = std::max<std::size_t>(1, cfg.maxWave);
    cfg.linger = std::max(cfg.linger, std::chrono::milliseconds(0));
    cfg.sloAdmissionFactor = std::max(0.0, cfg.sloAdmissionFactor);
    return cfg;
}

/** Any p95 target at all — global, or any tenant's own? */
bool
anySloConfigured(const ServiceConfig &cfg)
{
    if (cfg.sloP95Ms > 0.0)
        return true;
    for (const auto &[tag, slo] : cfg.tenantSlo)
        if (slo.p95Ms > 0.0)
            return true;
    return false;
}

} // namespace

EvalService::EvalService(ServiceConfig cfg)
    : cfg_(normalized(cfg)), queue_(cfg_.queue), waveLimit_(cfg_.maxWave),
      sloActive_(anySloConfigured(cfg_)),
      dispatcher_([this]() { dispatcherLoop(); })
{
    // Arm the process-wide tracer (common/tracespan.hh) when this
    // service wants sampling. Safe after the dispatcher started: no
    // sampled request can exist before submit() is callable, and the
    // recorder's configure() is thread-safe. A zero rate leaves the
    // recorder exactly as it was (another service may own it).
    if (cfg_.traceSampleEvery > 0) {
        TraceRecorder::Config tc;
        tc.sampleEvery = cfg_.traceSampleEvery;
        tc.ringSlots = cfg_.traceRingSlots;
        TraceRecorder::global().configure(tc);
    }
}

EvalService::~EvalService()
{
    close();
    dispatcher_.join();
}

void
EvalService::close()
{
    queue_.close();
}

void
EvalService::drain()
{
    LockGuard lock(drainMu_);
    // Explicit loop (not a CV predicate lambda) so the analysis sees
    // unresolved_ read under drainMu_.
    while (unresolved_ != 0)
        lock.wait(drainCv_);
}

MetricsSnapshot
EvalService::metrics() const
{
    MetricsSnapshot s =
        metrics_.snapshot(queue_.depth(), queue_.highWater());
    // memory_order: relaxed — monitoring reads of independent counters;
    // a snapshot is a statistical view, not a synchronization point.
    s.waveLimit = waveLimit_.load(std::memory_order_relaxed);
    s.sloP95Ms = cfg_.sloP95Ms;
    s.sloWindows = sloWindows_.load(std::memory_order_relaxed);
    s.sloViolatedWindows =
        sloViolatedWindows_.load(std::memory_order_relaxed);
    // Overlay the parts of the per-tenant SLO rows only the service
    // knows: the effective target from the SLO table and the
    // per-tenant violated-window counters from the adaptation loop. A
    // tenant that violated windows without completing a request in
    // the histogram cap still gets a row — violations must never be
    // silently invisible.
    {
        LockGuard lock(sloMu_);
        for (auto &t : s.tenantSlo) {
            t.sloP95Ms = sloFor(t.tag).p95Ms;
            auto it = tenantViolatedWindows_.find(t.tag);
            if (it != tenantViolatedWindows_.end())
                t.violatedWindows = it->second;
        }
        for (const auto &[tag, violated] : tenantViolatedWindows_) {
            const bool present = std::any_of(
                s.tenantSlo.begin(), s.tenantSlo.end(),
                [&](const auto &t) { return t.tag == tag; });
            if (!present) {
                MetricsSnapshot::TenantSloStat ts;
                ts.tag = tag;
                ts.sloP95Ms = sloFor(tag).p95Ms;
                ts.violatedWindows = violated;
                s.tenantSlo.push_back(std::move(ts));
            }
        }
        std::sort(s.tenantSlo.begin(), s.tenantSlo.end(),
                  [](const auto &a, const auto &b) {
                      return a.tag < b.tag;
                  });
    }
    const auto es = estimator_.snapshot();
    s.estServiceMs = es.serviceMs;
    s.estWaveMs = es.waveMs;
    s.estServiceSamples = es.serviceSamples;
    s.estServiceIntervalMs = es.serviceIntervalMs;
    // Per-stage latency breakdown, when this service armed the
    // process-wide tracer (stage histograms are recorder-global; a
    // service that never armed it reports none rather than another
    // service's).
    if (cfg_.traceSampleEvery > 0 &&
        TraceRecorder::global().armed()) {
        for (auto &st : TraceRecorder::global().stageStats())
            s.stages.push_back(
                {std::move(st.name), st.count, st.p50Ms, st.p95Ms});
    }
    return s;
}

std::string
EvalService::dumpIncidents() const
{
    return TraceRecorder::global().incidentsJson();
}

EvalService::SloView
EvalService::sloFor(const std::string &tag) const
{
    SloView v;
    v.p95Ms = std::max(0.0, cfg_.sloP95Ms);
    v.factor = cfg_.sloAdmissionFactor; // normalized() clamped >= 0
    auto it = cfg_.tenantSlo.find(tag);
    if (it == cfg_.tenantSlo.end())
        return v;
    const TenantSlo &t = it->second;
    if (t.p95Ms != 0.0) // > 0 overrides; < 0 opts out entirely
        v.p95Ms = std::max(0.0, t.p95Ms);
    if (t.admissionFactor >= 0.0) // < 0 inherits; 0 disables
        v.factor = t.admissionFactor;
    return v;
}

double
EvalService::tightenedFactor(const std::string &shapeKey, double factor,
                             bool greedy) const
{
    if (factor <= 0.0)
        return factor;
    const auto [lo, hi] = greedy ? estimator_.shapeInterval(shapeKey)
                                 : estimator_.estimateInterval(shapeKey);
    const double halfWidth = (hi - lo) / 2.0;
    const double meanMs = estimator_.estimateServiceMs(shapeKey);
    if (halfWidth <= 0.0 || meanMs <= 0.0)
        return factor;
    // Relative uncertainty, capped at 1: a 2-sigma half-width as
    // large as the mean itself (or larger) halves the factor.
    return factor / (1.0 + std::min(1.0, halfWidth / meanMs));
}

bool
EvalService::hopeless(const std::string &shapeKey, double deadlineMs,
                      std::size_t queueDepth, const SloView &slo,
                      bool greedy) const
{
    if (slo.factor <= 0.0)
        return false;
    const bool hasDeadline = deadlineMs > 0.0;
    if (!hasDeadline && slo.p95Ms <= 0.0)
        return false; // no budget to miss
    // Each path is confidence-tightened against its own key's interval.
    // Until that key has two samples, the ILP path uses the global
    // interval and the greedy twin is not tightened.
    const std::string greedyKey =
        greedy ? shapeKey + "|greedy" : std::string();
    const std::string &pathKey = greedy ? greedyKey : shapeKey;
    const double factor = tightenedFactor(pathKey, slo.factor, greedy);
    const double waitMs = estimator_.estimateQueueWaitMs(queueDepth);
    if (hasDeadline && waitMs > factor * deadlineMs)
        return true; // queue deadlines bound waiting, not service
    if (slo.p95Ms > 0.0) {
        // The greedy twin's service estimate is optimistically 0 when
        // untracked: a cold degraded path is given the benefit of the
        // doubt rather than inheriting the ILP-dominated global
        // average it exists to undercut.
        const double serviceMs =
            greedy ? estimator_.shapeEstimateMs(pathKey)
                   : estimator_.estimateServiceMs(pathKey);
        if (waitMs + serviceMs > factor * slo.p95Ms)
            return true;
    }
    return false;
}

Submission
EvalService::submit(EvalRequest req)
{
    metrics_.recordSubmitted();

    // Sampling decision for this submission (common/tracespan.hh).
    // Disarmed (traceSampleEvery == 0) the gate is the plain config
    // compare alone; armed, startTrace() is a relaxed load plus a
    // relaxed fetch_add. traceTag is only copied for sampled requests
    // — the flight recorder needs the tenant tag after req is moved.
    const std::uint64_t traceId = cfg_.traceSampleEvery > 0
                                      ? TraceRecorder::global().startTrace()
                                      : 0;
    const std::string traceTag = traceId ? req.tag : std::string();
    ScopedSpan submitSpan(traceId, "submit");

    // SLO-aware admission, judged against the submitting tenant's
    // resolved SLO policy (sloFor: per-tag table entry, global knobs
    // as fallback): refuse work the estimator predicts cannot meet
    // its deadline/SLO even if admitted right now — before the
    // request costs a queue slot or a drain slot. Decided from cheap
    // O(1) reads (queue depth, EWMAs, the coarse shape key); the
    // expensive canonical key is still only computed at dispatch. A
    // closed service reports RejectedClosed, never RejectedHopeless —
    // shutdown must stay distinguishable from load rejection (clients
    // back off differently) — hence the closed() guard. The depth is
    // sampled once, so the hopeless verdict, the rescue, and the
    // probe decision below are all judged against the same queue
    // state.
    const std::uint64_t estimateBegin =
        traceId ? TraceRecorder::nowNs() : 0;
    const SloView slo = sloFor(req.tag);
    // The coarse shape key feeds the hopeless gate and the deadline
    // suggestion; it is computed only when the gate has a budget to
    // judge, so a service with no SLO and no deadline keeps the
    // zero-allocation submit path.
    const bool needShapeKey =
        slo.factor > 0.0 && (slo.p95Ms > 0.0 || req.deadlineMs > 0.0);
    const std::string shapeKey =
        needShapeKey ? accel::requestShapeKey(req.model, req.batch)
                     : std::string();
    const std::size_t depthNow = queue_.depth();
    const bool isClosed = queue_.closed();

    bool doomed = !isClosed && hopeless(shapeKey, req.deadlineMs,
                                        depthNow, slo, /*greedy=*/false);
    // Anytime-scheduling rescue: a request the ILP path cannot serve
    // in time is re-routed through the greedy path instead of being
    // turned away, when that path is predicted to make the budget
    // (degradePolicy Auto; Off keeps the strict reject behavior).
    bool degrade = false;
    if (doomed && cfg_.degradePolicy == DegradePolicy::Auto &&
        !hopeless(shapeKey, req.deadlineMs, depthNow, slo,
                  /*greedy=*/true)) {
        degrade = true;
        doomed = false;
    }
    // The estimate/admission-decision region: tenant policy resolve,
    // hopeless gate, degrade rescue.
    if (traceId)
        TraceRecorder::global().endSpan(traceId, "estimate",
                                        estimateBegin,
                                        static_cast<std::int64_t>(depthNow),
                                        "queue_depth");
    if (doomed) {
        // Probe admission (see kHopelessProbeInterval): the streak
        // only advances — and a probe only fires — when the queue is
        // idle, so burst rejections under load stay rejections.
        // memory_order: relaxed — the streak is an advisory heuristic
        // counter; a racy read admits (or skips) one probe early, which
        // the self-healing design tolerates by construction.
        const bool probe =
            depthNow == 0 &&
            hopelessStreak_.fetch_add(1, std::memory_order_relaxed) +
                    1 >=
                kHopelessProbeInterval;
        if (!probe) {
            metrics_.recordRejectedHopeless();
            // The rejection carries the deadline a resubmission could
            // meet (see Submission::suggestedDeadlineMs) instead of
            // leaving the client to blind-retry. The estimate covers
            // queue drain + service; a lone retry also waits out the
            // batching linger before dispatch, so the suggestion adds
            // it.
            Submission rejected{Admission::RejectedHopeless,
                                std::future<EvalResponse>()};
            const double budget = estimator_.suggestDeadlineMs(
                shapeKey, depthNow, slo.factor);
            if (budget > 0.0)
                rejected.suggestedDeadlineMs =
                    budget + std::chrono::duration<double, std::milli>(
                                 effectiveLinger())
                                 .count();
            if (traceId) {
                auto &rec = TraceRecorder::global();
                rec.instant(traceId, "admission",
                            static_cast<std::int64_t>(
                                Admission::RejectedHopeless),
                            "verdict");
                rec.recordIncident(traceId, "rejected_hopeless", 0,
                                   traceTag);
            }
            return rejected;
        }
    }
    // Admitted (a probe or not): the idle rejection streak restarts.
    // memory_order: relaxed — the streak is advisory (see above).
    hopelessStreak_.store(0, std::memory_order_relaxed);

    Pending p;
    p.submitTime = Clock::now();
    p.deadline =
        req.deadlineMs > 0.0
            ? p.submitTime +
                  std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          req.deadlineMs))
            : Clock::time_point::max();
    // memory_order: relaxed — seq_ only needs uniqueness/monotonicity
    // of the returned values, not ordering of surrounding memory.
    p.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    p.degrade = degrade;
    p.traceId = traceId;
    // The canonical key is deliberately NOT computed here: it is the
    // expensive part of submission and only dispatch needs it, so a
    // rejected request costs almost nothing (see serveWave).
    p.req = std::move(req);
    std::future<EvalResponse> fut = p.promise.get_future();

    // Admission is counted (and the drain slot taken) before the push
    // publishes the request: once the dispatcher can resolve it, it is
    // already admitted in the metrics, so a concurrent snapshot never
    // shows completed > admitted. Both are rolled back on rejection.
    metrics_.recordAdmitted();
    {
        LockGuard lock(drainMu_);
        ++unresolved_;
    }
    auto pushed = queue_.push(std::move(p));
    if (pushed.admission != Admission::Admitted) {
        metrics_.rollbackAdmittedToRejected();
        releaseDrainSlot();
        if (traceId)
            TraceRecorder::global().instant(
                traceId, "admission",
                static_cast<std::int64_t>(pushed.admission), "verdict");
        return {pushed.admission, std::future<EvalResponse>()};
    }
    if (pushed.shed)
        finish(std::move(*pushed.shed), ResponseStatus::Shed);
    const Admission verdict =
        degrade ? Admission::ServedDegraded : Admission::Admitted;
    if (traceId)
        TraceRecorder::global().instant(
            traceId, "admission", static_cast<std::int64_t>(verdict),
            "verdict");
    return {verdict, std::move(fut)};
}

void
EvalService::resolve(Pending &&p, EvalResponse &&r)
{
    switch (r.status) {
      case ResponseStatus::Ok:
        metrics_.recordCompleted(r.totalMs, r.servedFromCache(),
                                 r.coalesced,
                                 r.degraded, r.tag);
        if (sloActive_) {
            LockGuard lock(sloMu_);
            sloLatencies_.emplace_back(r.tag, r.totalMs);
        }
        break;
      case ResponseStatus::Shed:
        metrics_.recordShed();
        break;
      case ResponseStatus::Expired:
        metrics_.recordExpired();
        break;
    }
    p.promise.set_value(std::move(r));
    releaseDrainSlot();
}

void
EvalService::releaseDrainSlot()
{
    {
        LockGuard lock(drainMu_);
        --unresolved_;
    }
    drainCv_.notify_all();
}

void
EvalService::finish(Pending &&p, ResponseStatus status)
{
    smart_assert(status != ResponseStatus::Ok,
                 "finish() is for terminal non-Ok states");
    const auto now = Clock::now();
    if (p.traceId) {
        auto &rec = TraceRecorder::global();
        rec.instant(p.traceId,
                    status == ResponseStatus::Expired ? "expired"
                                                      : "shed");
        // Flight recorder: an expired sampled request is an incident
        // worth forensics (where did its budget go?); a shed one was
        // displaced by policy, not lost to latency.
        if (status == ResponseStatus::Expired)
            rec.recordIncident(p.traceId, "expired", p.digest,
                               p.req.tag);
    }
    EvalResponse r;
    r.status = status;
    r.queueMs = r.totalMs = msBetween(p.submitTime, now);
    r.digest = p.digest;
    r.traceId = p.traceId;
    r.tag = std::move(p.req.tag);
    resolve(std::move(p), std::move(r));
}

std::chrono::milliseconds
EvalService::effectiveLinger() const
{
    if (!sloActive_ || cfg_.linger.count() == 0)
        return cfg_.linger;
    // Scale the batching delay with the adaptive cap: a halved wave
    // limit halves the time requests wait for wave-mates. Floored at
    // 1 ms so a short configured linger degrades to minimal
    // coalescing rather than none (integer division would otherwise
    // zero it on the first halving).
    // memory_order: relaxed — the cap is an independent tuning knob; a
    // stale read just sizes one linger from the previous window.
    const auto cap = waveLimit_.load(std::memory_order_relaxed);
    return std::chrono::milliseconds(
        std::max<long long>(1, static_cast<long long>(cfg_.linger.count()) *
                                   static_cast<long long>(cap) /
                                   static_cast<long long>(cfg_.maxWave)));
}

namespace
{

/** Nearest-rank p95 of @p xs (destructive); NaN-safe via caller. */
double
p95Of(std::vector<double> &xs)
{
    const std::size_t rank = std::min(
        xs.size() - 1,
        static_cast<std::size_t>(std::ceil(0.95 * xs.size())) - 1);
    std::nth_element(xs.begin(),
                     xs.begin() + static_cast<std::ptrdiff_t>(rank),
                     xs.end());
    return xs[rank];
}

} // namespace

void
EvalService::adaptWaveLimit()
{
    if (!sloActive_)
        return;
    std::vector<std::pair<std::string, double>> window;
    {
        LockGuard lock(sloMu_);
        if (sloLatencies_.size() < kSloWindow)
            return;
        window.swap(sloLatencies_);
    }
    if (window.empty())
        return; // defensive: an empty window carries no decision

    // Group the window by SLO policy and judge each group against
    // its own effective target. Tenants with their own tenantSlo
    // entry get their own group; everyone else — untagged traffic
    // and tenants inheriting the global target — pools into one
    // group judged against the global SLO, exactly the pre-tenant
    // pooled-window behavior (so many small tags sharing the global
    // target can never starve adaptation of samples). The decision
    // is driven by the strictest violated group: ANY violated group
    // halves the cap — a latency-insensitive batch tenant's
    // comfortable p95 must never average away an interactive
    // tenant's violation — while growth requires every SLO-bearing
    // group comfortably healthy (p95 under 80% of its own target).
    // Per-tenant groups smaller than a handful of samples carry no
    // stable p95 (a lone scheduling outlier from a 3% tenant must
    // not halve the cap for everyone), so they are skipped; the
    // pooled group — the legacy judgment — is exempt.
    constexpr std::size_t kMinGroup = 4;
    std::map<std::string, std::vector<double>> groups;
    for (auto &[tag, ms] : window) {
        // Own group only for tenants that set their own p95 (> 0
        // overrides, < 0 opts out — its group is then skipped as
        // target-less); an entry that merely tunes the admission
        // factor still inherits the global
        // target and pools with everyone else.
        const auto it = cfg_.tenantSlo.find(tag);
        const bool ownTarget =
            it != cfg_.tenantSlo.end() && it->second.p95Ms != 0.0;
        groups[ownTarget ? tag : std::string()].push_back(ms);
    }
    bool judged = false;     //!< Any group carried an SLO verdict.
    bool violated = false;   //!< Some tenant over its own target.
    bool comfortable = true; //!< Every judged group under 80%.
    std::vector<std::string> violatedTags;
    for (auto &[tag, xs] : groups) {
        const bool pooled = tag.empty();
        if (!pooled && xs.size() < kMinGroup)
            continue; // too few samples for a stable verdict
        const double slo = sloFor(tag).p95Ms;
        if (slo <= 0.0)
            continue; // no target for this tenant: no verdict
        const double p95 = p95Of(xs);
        if (!std::isfinite(p95))
            continue; // a NaN p95 is neither healthy nor violated
        judged = true;
        if (p95 > slo) {
            violated = true;
            // Untagged traffic has no tenant row; its violations are
            // visible in the global sloViolatedWindows counter.
            if (!tag.empty())
                violatedTags.push_back(tag);
        } else if (p95 >= 0.8 * slo) {
            comfortable = false;
        }
    }
    if (!judged)
        return; // a window of opted-out tenants decides nothing

    // memory_order: relaxed — window/violation counters and the wave
    // cap are independent statistics; only the dispatcher writes the
    // cap, so the load-modify-store below has no concurrent writer.
    sloWindows_.fetch_add(1, std::memory_order_relaxed);
    std::size_t cap = waveLimit_.load(std::memory_order_relaxed);
    if (violated) {
        // Violated: halve the cap (multiplicative decrease) so queued
        // requests stop paying for large waves and long lingers.
        sloViolatedWindows_.fetch_add(1, std::memory_order_relaxed);
        {
            // Tags are client-controlled, so the per-tenant counter
            // map is bounded; past the cap, violations still count in
            // the global sloViolatedWindows_ above.
            constexpr std::size_t kMaxViolatedTagRows = 256;
            LockGuard lock(sloMu_);
            for (const auto &tag : violatedTags)
                if (tenantViolatedWindows_.count(tag) > 0 ||
                    tenantViolatedWindows_.size() < kMaxViolatedTagRows)
                    ++tenantViolatedWindows_[tag];
        }
        cap = std::max<std::size_t>(1, cap / 2);
    } else if (comfortable) {
        // Comfortably healthy across every judged tenant: grow
        // additively back toward maxWave for better coalescing.
        cap = std::min(cfg_.maxWave, cap + 1);
    }
    // memory_order: relaxed — readers (dispatcher, snapshots, linger
    // scaling) tolerate a stale cap for one wave by design.
    waveLimit_.store(cap, std::memory_order_relaxed);
}

void
EvalService::dispatcherLoop()
{
    while (true) {
        // memory_order: relaxed — the adaptive cap is written by this
        // same thread (adaptWaveLimit); no cross-thread ordering needed.
        auto wave =
            queue_.popWave(waveLimit_.load(std::memory_order_relaxed),
                           effectiveLinger());
        for (auto &p : wave.expired)
            finish(std::move(p), ResponseStatus::Expired);
        if (!wave.items.empty())
            serveWave(std::move(wave.items));
        else if (wave.expired.empty())
            break; // closed and drained
        adaptWaveLimit();
    }
}

void
EvalService::serveWave(std::vector<Pending> &&wave)
{
    const auto dispatch = Clock::now();

    // Requests are grouped by key so identical requests in one wave
    // share a single evaluation (coalescing). group_of is keyed on the
    // canonical key, or its "|greedy" twin for degraded requests; its
    // keys are views into the wave key arena.
    using Group = std::vector<Pending>;
    std::vector<Group> groups;
    std::unordered_map<std::string_view, std::size_t> group_of;

    auto resolveOk = [&](Pending &&p, accel::InferenceResult res,
                         bool coalesced) {
        const auto now = Clock::now();
        // One "serve" span per sampled request: wave dispatch →
        // resolution. Together with queue_wait (submit → dispatch,
        // closed in popWave) the two spans partition the request's
        // end-to-end time.
        if (p.traceId) {
            const auto ns = [](Clock::time_point t) {
                return static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(t.time_since_epoch())
                        .count());
            };
            TraceRecorder::global().recordSpan(p.traceId, "serve",
                                               ns(dispatch), ns(now));
        }
        EvalResponse r;
        r.status = ResponseStatus::Ok;
        r.coalesced = coalesced;
        // A degrade-marked request reports degraded only when a greedy
        // schedule actually shaped its result: a scheme that schedules
        // nothing was served at full quality.
        r.degraded = p.degrade &&
                     res.schedQuality == compiler::Quality::Greedy;
        r.queueMs = msBetween(p.submitTime, dispatch);
        r.serviceMs = msBetween(dispatch, now);
        r.totalMs = msBetween(p.submitTime, now);
        r.digest = p.digest;
        r.traceId = p.traceId;
        r.tag = std::move(p.req.tag);
        r.result = std::move(res);
        resolve(std::move(p), std::move(r));
    };

    // One wave-scoped arena owns every request's canonical key bytes:
    // the key and its "|greedy" degraded twin are interned as a single
    // contiguous block per request, so the key, the eval key, and the
    // coalescing-map keys are all views of the same bytes — one
    // bump allocation per request where key construction previously
    // cost a handful of string allocations (ROADMAP hot-path (c)).
    // The scratch build buffer is reused across the wave, so its
    // growth amortizes to zero steady-state allocations.
    static constexpr std::string_view kGreedySuffix = "|greedy";
    Arena keyArena;
    std::string keyScratch;

    for (auto &p : wave) {
        keyScratch.clear();
        accel::appendRequestKey(keyScratch, p.req.cfg, p.req.model,
                                p.req.batch);
        const std::string_view block =
            keyArena.intern2(keyScratch, kGreedySuffix);
        const std::string_view key = block.substr(0, keyScratch.size());
        p.digest = accel::requestDigest(key);
        // Degraded evaluations coalesce under the canonical key plus
        // "|greedy", so the two paths never share a wave item.
        const std::string_view evalKey = p.degrade ? block : key;
        auto [it, fresh] = group_of.emplace(evalKey, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(std::move(p));
    }
    metrics_.recordWave(groups.size());

    // Evaluate one coalescing group and resolve its members. The
    // evaluation runs under the group head's trace id (the request
    // that triggered it); a sampled member coalesced behind an
    // unsampled head still gets its serve span, just not the
    // schedule/execute internals.
    auto serveGroup = [&](Group &g) {
        const Pending &head = g.front();
        TraceRecorder::TraceScope trace(head.traceId);
        accel::InferenceResult res = accel::runInference(
            head.req.cfg, head.req.model, head.req.batch,
            head.degrade ? accel::SchedMode::Greedy
                         : accel::SchedMode::Ilp);
        // The cost sample follows the group head; read its fields
        // before resolveOk moves them into the response. Degraded
        // groups feed the greedy shape EWMA, keeping both paths' cost
        // models separate.
        std::string shapeKey =
            accel::requestShapeKey(head.req.model, head.req.batch);
        if (head.degrade)
            shapeKey += "|greedy";
        estimator_.recordService(shapeKey,
                                 msBetween(dispatch, Clock::now()));
        const std::size_t n = g.size();
        for (std::size_t k = 0; k + 1 < n; ++k)
            resolveOk(std::move(g[k]), res, /*coalesced=*/k > 0);
        resolveOk(std::move(g.back()), std::move(res),
                  /*coalesced=*/n > 1);
    };

    try {
        // A one-group wave (an open-loop stream's usual wave: one
        // memo-hit request) is served on the dispatcher, since a task
        // hand-off costs more than a memo-hit evaluation. A larger wave
        // runs each group as a scheduler task; the dispatcher joins by
        // helping (TaskGroup::wait runs queued tasks), so it
        // contributes a lane. Fulfilment is race-free without extra
        // locking: group membership is disjoint.
        const auto waveStart = Clock::now();
        if (groups.size() == 1) {
            serveGroup(groups.front());
        } else {
            TaskGroup tasks;
            for (auto &g : groups)
                tasks.run([&]() { serveGroup(g); });
            tasks.wait();
        }
        estimator_.recordWave(msBetween(waveStart, Clock::now()),
                              groups.size());
    } catch (...) {
        // A failed wave must still resolve every future: promises the
        // hook already satisfied throw future_error and are skipped.
        // Each exception-resolved request is counted as failed so the
        // admitted == completed + shed + expired + failed accounting
        // stays closed.
        for (auto &g : groups) {
            for (auto &p : g) {
                try {
                    p.promise.set_exception(std::current_exception());
                } catch (const std::future_error &) {
                    continue;
                }
                // Flight recorder: a failed evaluation (including
                // FaultInjector-style injected faults) snapshots the
                // sampled request's span history for forensics.
                if (p.traceId)
                    TraceRecorder::global().recordIncident(
                        p.traceId, "wave_failed", p.digest, p.req.tag);
                metrics_.recordFailed();
                releaseDrainSlot();
            }
        }
    }
}

} // namespace smart::serve
