/**
 * @file
 * Synthetic request traces for the evaluation service: bursty arrivals
 * over a mixed (model, scheme, batch) working set with a configurable
 * repeat fraction, so replays exercise admission control, wave
 * coalescing, and the schedule memo the way figure-sweep traffic does.
 * Deterministic per seed (common/rng.hh). Tenant mixes carry
 * per-tenant weights and (optionally) per-tenant deadline budgets.
 * replayTrace() drives a service with a trace and reports full
 * accounting — every submitted request ends up in exactly one
 * bucket, nothing is silently dropped — and can act on
 * estimator-suggested deadlines (ReplayOptions::resubmitOnSuggestion
 * retries each hopeless rejection once with its suggested budget).
 */

#ifndef SMART_SERVE_TRACE_HH
#define SMART_SERVE_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/metrics.hh"
#include "serve/request.hh"
#include "serve/service.hh"

namespace smart::serve
{

/** One trace event: a request plus its arrival offset. */
struct TraceRequest
{
    double arrivalMs = 0.0; //!< Offset from replay start.
    EvalRequest req;
};

/** Shape of the synthetic workload. */
struct TraceConfig
{
    int bursts = 4;
    int requestsPerBurst = 24;
    double burstGapMs = 10.0;  //!< Idle time between bursts.
    double intraGapMs = 0.05;  //!< Arrival spacing inside a burst.
    /**
     * Probability that a request repeats an earlier sweep point
     * instead of drawing a fresh one — the figure-sweep redundancy the
     * schedule memo serves.
     */
    double repeatFraction = 0.7;
    std::uint64_t seed = 1;
    /** Models drawn from (zoo names); keep small for test runtimes. */
    std::vector<std::string> models = {"AlexNet", "MobileNet"};
    /** Fraction of requests tagged High priority (rest Normal/Low). */
    double highPriorityFraction = 0.15;
    /** Fraction of requests given a (generous) queue deadline. */
    double deadlineFraction = 0.1;
    double deadlineMs = 10e3;
    /**
     * Per-tenant deadline mix, aligned with tenants: when non-empty,
     * a request from tenant t carries deadline tenantDeadlineMs[t]
     * (0 = none), REPLACING the global deadlineFraction/deadlineMs
     * draw — so a trace can give an interactive tenant tight budgets
     * and a batch tenant none, the shape the per-tenant SLO work
     * targets. Empty (the default) keeps the global draw and the
     * byte-identical request stream of earlier traces.
     */
    std::vector<double> tenantDeadlineMs;
    /**
     * Tenant labels; each request's tag is drawn from these, so the
     * trace exercises per-tenant quotas and fair shedding. A single
     * entry reproduces the one-tenant traffic of earlier traces.
     */
    std::vector<std::string> tenants = {"sweep"};
    /**
     * Per-tenant draw weights aligned with tenants (empty = uniform).
     * Skewed weights (e.g. {0.9, 0.1}) make one tenant bursty — the
     * adversarial shape the fairness work targets.
     */
    std::vector<double> tenantWeights;
};

/** Deterministically generate a trace for @p cfg. */
std::vector<TraceRequest> makeSyntheticTrace(const TraceConfig &cfg);

/** Per-tenant slice of a replay's accounting (keyed by tag). */
struct TenantTally
{
    std::size_t submitted = 0;
    std::size_t completed = 0;
    /** Completions served through the greedy (anytime) scheduler. */
    std::size_t servedDegraded = 0;
    std::size_t cacheHits = 0;
    std::size_t rejected = 0;
    /** Subset of rejected refused by SLO-aware admission. */
    std::size_t rejectedHopeless = 0;
    std::size_t shed = 0;
    std::size_t expired = 0;
    std::size_t failed = 0;
    /** Hopeless rejections retried with their suggested deadline. */
    std::size_t resubmitted = 0;
    /** Resubmissions that were admitted and completed Ok. */
    std::size_t resubmitOk = 0;
};

/** Everything a replay observed, with full accounting. */
struct ReplayReport
{
    std::size_t total = 0;     //!< Trace length.
    std::size_t completed = 0; //!< Futures that resolved Ok.
    /**
     * Subset of completed with EvalResponse::degraded set — served
     * through the greedy scheduler under graceful degradation
     * (counted inside completed, so consistent() is unaffected).
     */
    std::size_t servedDegraded = 0;
    /** Subset of completed with EvalResponse::servedFromCache(). */
    std::size_t cacheHits = 0;
    std::size_t coalesced = 0;
    std::size_t rejected = 0; //!< Refused at submit().
    /** Subset of rejected: predicted unable to meet deadline/SLO. */
    std::size_t rejectedHopeless = 0;
    std::size_t shed = 0;     //!< Admitted, then evicted.
    std::size_t expired = 0;  //!< Admitted, deadline passed.
    std::size_t failed = 0;   //!< Future carried an exception.
    /**
     * Resubmit-on-suggestion accounting (ReplayOptions::
     * resubmitOnSuggestion): hopeless rejections retried once with
     * their suggestedDeadlineMs after the main pass drained, and how
     * many of those retries completed Ok. Retries are additional
     * submissions on top of the trace, so they are tallied here (and
     * per tenant) but excluded from consistent() — every ORIGINAL
     * request still lands in exactly one terminal bucket.
     */
    std::size_t resubmitted = 0;
    std::size_t resubmitOk = 0;
    /** Resubmissions whose completion came back degraded. */
    std::size_t resubmitDegraded = 0;
    /** The same buckets sliced per tenant tag (fairness evidence). */
    std::map<std::string, TenantTally> tenants;
    /**
     * Responses of admitted, non-failed requests in submission order
     * (aligned 1:1 with the trace when rejected == failed == 0).
     */
    std::vector<EvalResponse> responses;
    MetricsSnapshot metrics;             //!< Service snapshot at end.
    double wallMs = 0.0;

    /** True when every request is accounted for in exactly one bucket. */
    bool consistent() const
    {
        return completed + rejected + shed + expired + failed == total;
    }
};

/** How replayTrace drives the service. */
struct ReplayOptions
{
    /**
     * Arrival-time scale: 1 replays in real time, 0 submits
     * back-to-back with no sleeping.
     */
    double timeScale = 1.0;
    /**
     * Act on estimator-driven deadline suggestions: a request
     * rejected RejectedHopeless whose Submission carried a
     * suggestedDeadlineMs is resubmitted ONCE with that deadline
     * after the main pass has drained, serialized (each retry waits
     * for its own future before the next is sent) the way
     * independent clients retrying after backoff would arrive. The
     * retry outcomes land in ReplayReport::resubmitted/resubmitOk
     * (and the per-tenant tallies); the original rejection stays
     * counted as rejected, so consistent() is unaffected.
     */
    bool resubmitOnSuggestion = false;
};

/**
 * Replay @p trace against @p svc: submit each request at its arrival
 * time scaled by opts.timeScale, wait for every admitted future,
 * optionally retry hopeless rejections with their suggested deadline
 * (opts.resubmitOnSuggestion), and tally. The service is left running
 * (callers may replay again to measure schedule-memo reuse).
 */
ReplayReport replayTrace(EvalService &svc,
                         const std::vector<TraceRequest> &trace,
                         const ReplayOptions &opts);

/** Back-compat shim: options with just the time scale set. */
ReplayReport replayTrace(EvalService &svc,
                         const std::vector<TraceRequest> &trace,
                         double timeScale = 1.0);

} // namespace smart::serve

#endif // SMART_SERVE_TRACE_HH
