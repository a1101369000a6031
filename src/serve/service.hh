/**
 * @file
 * Async evaluation service over accel::runBatch — the serving layer of
 * the ROADMAP's north star. Clients submit (configuration, model,
 * batch) requests with priorities and deadlines and get back futures;
 * a dispatcher thread coalesces queued requests into waves sized by a
 * configurable policy. A one-group wave is evaluated on the dispatcher;
 * a larger one runs each group as a task on the global scheduler, the
 * pool the figure benches share. A memo-hit request runs no task.
 *
 * Three production behaviors sit between submission and evaluation:
 *
 *  - Admission control: a bounded queue with Reject / Shed policies
 *    (serve/queue.hh); submit() never blocks. Rejections are reported
 *    synchronously from submit(); shed and expired requests resolve
 *    their futures with the corresponding status — nothing is
 *    silently dropped. SLO-aware admission (serve/estimator.hh)
 *    additionally refuses a request up front (RejectedHopeless) when
 *    the predicted queue wait + service time already exceeds its
 *    deadline or its tenant's p95 SLO (ServiceConfig::tenantSlo,
 *    global knobs as fallback): doomed work is turned away in
 *    microseconds instead of occupying a queue slot and failing
 *    slowly. A hopeless rejection carries
 *    Submission::suggestedDeadlineMs — the budget the estimator
 *    predicts a resubmission could meet.
 *  - Repeat serving: identical requests in one wave are coalesced
 *    into a single evaluation, and runInference's process-wide
 *    layer-schedule memo makes a repeated sweep point cost memo
 *    lookups, not ILP solves.
 *  - Metrics: per-request latency (p50/p95/p99), throughput, queue
 *    depth, and the share of requests served without computing a
 *    layer schedule (cache hit rate, serve/metrics.hh),
 *    exportable as a BENCH_micro.json-compatible snapshot.
 *
 * Determinism contract: an admitted request's result is bit-identical
 * to a direct runInference(cfg, model, batch) call — evaluation goes
 * through the same path, and the request key covers every
 * result-relevant input byte (see accel/hash.hh). A degraded request
 * (graceful degradation, ServiceConfig::degradePolicy) is likewise
 * bit-identical to runInference(cfg, model, batch, SchedMode::Greedy).
 * Degraded requests coalesce and feed the cost estimator under a
 * distinct key ("<key>|greedy"), so they never share an evaluation
 * with a full-quality request.
 */

#ifndef SMART_SERVE_SERVICE_HH
#define SMART_SERVE_SERVICE_HH

#include <chrono>
#include <map>
#include <thread>

#include "accel/batch.hh"
#include "common/threadsafety.hh"
#include "serve/estimator.hh"
#include "serve/metrics.hh"
#include "serve/queue.hh"
#include "serve/request.hh"

namespace smart::serve
{

/**
 * One tenant's SLO policy (ServiceConfig::tenantSlo, keyed on the
 * request tag). Every field falls back to the corresponding global
 * knob, so a table entry only overrides what it sets — the global
 * sloP95Ms / sloAdmissionFactor remain the policy for tenants (and
 * untagged traffic) without an entry.
 */
struct TenantSlo
{
    /**
     * This tenant's p95 end-to-end latency target (ms): drives both
     * SLO-aware admission and the adaptive wave sizing for requests
     * carrying this tag. 0 inherits the global sloP95Ms; a negative
     * value opts the tenant out of any p95 SLO entirely (a lax batch
     * tenant under a strict global default).
     */
    double p95Ms = 0.0;
    /**
     * Admission headroom for this tenant (see sloAdmissionFactor).
     * Negative inherits the global factor; 0 disables hopeless
     * rejection for this tenant only.
     */
    double admissionFactor = -1.0;
};

/**
 * When the service may serve a request through the greedy (anytime)
 * scheduler instead of the ILP. See ServiceConfig::degradePolicy.
 */
enum class DegradePolicy
{
    Off,  //!< Never degrade; hopeless requests are rejected.
    /**
     * Degrade instead of rejecting: a request the estimator would
     * refuse as hopeless is served greedy when the estimator predicts
     * the greedy path CAN meet the budget — otherwise it is still
     * rejected (degrading cannot fix a hopeless queue wait).
     */
    Auto
};

/** Service shape: queue bounds, wave policy, SLO, degradation. */
struct ServiceConfig
{
    QueueConfig queue; //!< Depth bound + admission policy + quotas.
    /** Most requests one runBatch wave may carry (coalescing cap). */
    std::size_t maxWave = 16;
    /**
     * How long the dispatcher lingers for more arrivals when fewer
     * than the wave cap requests are queued, so bursts amortize into
     * full waves. 0 dispatches immediately (lowest latency); negative
     * values are clamped to 0. Under an SLO the effective linger
     * scales with the adaptive wave cap.
     */
    std::chrono::milliseconds linger{0};
    /**
     * Target p95 end-to-end latency (queue + service, ms). When > 0
     * the dispatcher adapts the wave cap between 1 and maxWave: each
     * window of 32 completions whose p95 exceeds the SLO halves the
     * cap (and the linger with it, cutting batching delay); a
     * comfortably healthy window (p95 < 80% of the SLO) grows it
     * additively back toward maxWave for better coalescing. 0 keeps
     * the fixed maxWave/linger behavior.
     */
    double sloP95Ms = 0.0;
    /**
     * SLO-aware admission headroom: a submission is refused with
     * RejectedHopeless when the cost estimator's predicted queue wait
     * exceeds sloAdmissionFactor * deadlineMs (queue deadlines bound
     * waiting only), or predicted wait + service time exceeds
     * sloAdmissionFactor * sloP95Ms. 1.0 rejects exactly at the
     * predicted budget; values < 1 reject earlier, buying headroom
     * for estimation error. Both knobs here are the defaults a
     * tenantSlo entry may override per tag, so the two guarantees
     * that follow hold for tenants WITHOUT an override: 0 disables
     * hopeless rejection entirely, and requests with no deadline
     * under sloP95Ms == 0 are never rejected as hopeless. Nothing is
     * rejected while the estimator is cold (no completed evaluation
     * yet), for any tenant. Rejected
     * requests yield no samples, so an idle service admits every 8th
     * consecutive hopeless rejection as a probe — a stuck-high
     * estimate re-measures and admission self-heals instead of
     * locking a shape out forever.
     */
    double sloAdmissionFactor = 1.0;
    /**
     * Per-tenant SLO table, keyed on the request tag. Tenants (and
     * untagged requests) without an entry use the global knobs above;
     * an entry overrides only the fields it sets (see TenantSlo). The
     * adaptive wave sizing then judges each window per tenant against
     * that tenant's own target and shrinks the wave cap when ANY
     * tenant's SLO is violated — the strictest violated tenant drives
     * the decision — while growth requires every SLO-bearing tenant
     * to be comfortably healthy. SLO-aware (hopeless) admission gates
     * each submission against the submitting tenant's entry.
     */
    std::map<std::string, TenantSlo> tenantSlo;
    /**
     * Graceful degradation policy (see DegradePolicy): Off preserves
     * the reject-hopeless behavior, Auto converts would-be
     * RejectedHopeless outcomes into ServedDegraded greedy-scheduled
     * evaluations when the greedy path is predicted to make the
     * budget.
     */
    DegradePolicy degradePolicy = DegradePolicy::Off;
    /**
     * Request-tracing sample rate: record a full span timeline
     * (submit → admission → queue wait → schedule → execute →
     * complete) for every Nth submission via the process-wide
     * TraceRecorder (common/tracespan.hh). 1 traces every request,
     * 16 one in sixteen; 0 (the default) disarms tracing — the
     * disarmed cost on the submit path is one relaxed atomic load.
     * Note the recorder is process-global (like FaultInjector): the
     * last service constructed with a nonzero rate owns its
     * configuration.
     */
    std::uint64_t traceSampleEvery = 0;
    /**
     * Tracer per-thread ring capacity in events (rounded to 2^k). The
     * flight recorder keeps TraceRecorder::Config's default incident
     * log cap.
     */
    std::size_t traceRingSlots = 4096;
};

class EvalService
{
  public:
    explicit EvalService(ServiceConfig cfg = {});

    /** Closes the queue and drains every admitted request. */
    ~EvalService();

    EvalService(const EvalService &) = delete;
    EvalService &operator=(const EvalService &) = delete;

    /**
     * Submit one request. The admission decision is synchronous; when
     * admitted, the returned future resolves once the request is
     * evaluated (status Ok), shed, or expired.
     */
    Submission submit(EvalRequest req);

    /**
     * Stop admitting new requests (submit returns RejectedClosed).
     * Already-admitted requests still run to completion.
     */
    void close();

    /**
     * Block until every admitted request has resolved. Does not close
     * the queue; new submissions after drain() are served normally.
     */
    void drain();

    /** Point-in-time metrics. */
    MetricsSnapshot metrics() const;

    /**
     * The flight recorder's incident log as a JSON array (one object
     * per expired / hopeless-rejected / failed sampled request, each
     * carrying the trace's last spans). "[]" when tracing is disarmed
     * or nothing went wrong. See common/tracespan.hh.
     */
    std::string dumpIncidents() const;

    /** The configuration the service was built with. */
    const ServiceConfig &config() const { return cfg_; }

    /** Current adaptive wave cap (== maxWave when no SLO is set). */
    std::size_t waveLimit() const
    {
        // memory_order: relaxed — monitoring read of an independent
        // counter; no other memory is published through it.
        return waveLimit_.load(std::memory_order_relaxed);
    }

    /**
     * The service's cost estimator. Exposed so operators can
     * warm-start a fresh service from a sibling's observed costs (or
     * tests can inject known samples); injected samples fold into the
     * EWMAs exactly like observed ones, and admission decisions pick
     * them up on the next submit.
     */
    CostEstimator &costEstimator() { return estimator_; }

  private:
    void dispatcherLoop();
    /**
     * The one place that retires an admitted request: records the
     * terminal metric for @p r's status, fulfills the promise, then
     * releases the drain count — in that order, so a client that sees
     * the future ready also sees it counted, and drain() returning
     * implies every future is ready.
     */
    void resolve(Pending &&p, EvalResponse &&r);
    /** Resolve a non-Ok terminal state (shed / expired). */
    void finish(Pending &&p, ResponseStatus status);
    /** Drop one request from the drain count (after its promise is set). */
    void releaseDrainSlot();
    /** Evaluate one wave: key, coalesce, evaluate. */
    void serveWave(std::vector<Pending> &&wave);
    /**
     * One SLO adaptation step (no-op until a full window of Ok
     * completions has accumulated): group the window's latencies by
     * tenant, judge each group against that tenant's effective SLO,
     * and resize the wave cap — any violated tenant (the strictest
     * violated one drives the decision) halves it; growth requires
     * every SLO-bearing tenant comfortably healthy. Called from the
     * dispatcher between waves.
     */
    void adaptWaveLimit();
    /** The linger for the current wave cap (scaled under an SLO). */
    std::chrono::milliseconds effectiveLinger() const;

    /**
     * @p tag's SLO policy with the global-knob fallbacks resolved
     * (see TenantSlo): 0 means no p95 target / hopeless rejection
     * disabled.
     */
    struct SloView
    {
        double p95Ms = 0.0;
        double factor = 0.0;
    };
    SloView sloFor(const std::string &tag) const;

    /**
     * True when the estimator predicts a request of @p shapeKey with
     * @p deadlineMs of queue budget (<= 0 = none) cannot meet that
     * budget even if admitted now behind @p queueDepth queued
     * requests, judged against @p slo — the submitting tenant's
     * resolved policy (see ServiceConfig::sloAdmissionFactor /
     * tenantSlo). With @p greedy set it judges the degraded path
     * instead: the service term is the greedy twin's own EWMA
     * ("<shape>|greedy", optimistically 0 when untracked — see
     * CostEstimator::shapeEstimateMs), while the queue-wait term is
     * the same, because degrading a request cannot make the queue in
     * front of it drain faster.
     */
    bool hopeless(const std::string &shapeKey, double deadlineMs,
                  std::size_t queueDepth, const SloView &slo,
                  bool greedy) const;

    /**
     * Estimator-confidence tightening of an admission factor: when
     * the service-time estimate for @p shapeKey carries a wide
     * EWMA-variance interval (volatile predictions — see
     * CostEstimator::estimateInterval), the effective factor shrinks
     * by up to half, so admission under an unreliable estimate buys
     * extra headroom instead of trusting the mean. A tight interval
     * (or a cold/constant-latency estimator) leaves @p factor as is.
     * A @p greedy twin key is judged by its own interval only
     * (CostEstimator::shapeInterval).
     */
    double tightenedFactor(const std::string &shapeKey, double factor,
                           bool greedy) const;

    ServiceConfig cfg_;
    RequestQueue queue_;
    CostEstimator estimator_;
    ServiceMetrics metrics_;

    Mutex drainMu_;
    std::condition_variable drainCv_;
    /** Admitted, future not yet set. */
    std::uint64_t unresolved_ SMART_GUARDED_BY(drainMu_) = 0;
    std::atomic<std::uint64_t> seq_{0};

    std::atomic<std::size_t> waveLimit_;
    /** Consecutive idle hopeless rejections (probe admission). */
    std::atomic<std::uint32_t> hopelessStreak_{0};
    /** Any p95 SLO configured (global or per-tenant)? Set once. */
    bool sloActive_ = false;
    mutable Mutex sloMu_; //!< Guards the window + tenant rows.
    /** Current adaptation window: (tenant tag, end-to-end ms). */
    std::vector<std::pair<std::string, double>>
        sloLatencies_ SMART_GUARDED_BY(sloMu_);
    /** Windows in which each tenant violated its own SLO. */
    std::map<std::string, std::uint64_t>
        tenantViolatedWindows_ SMART_GUARDED_BY(sloMu_);
    std::atomic<std::uint64_t> sloWindows_{0};
    std::atomic<std::uint64_t> sloViolatedWindows_{0};

    std::thread dispatcher_; //!< Last member: starts fully-constructed.
};

} // namespace smart::serve

#endif // SMART_SERVE_SERVICE_HH
