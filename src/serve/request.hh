/**
 * @file
 * Request/response types of the async evaluation service: what a
 * client submits (configuration, model, batch, priority, queue
 * deadline, tenant tag), what the admission controller decides, and
 * what the request's future eventually carries. See serve/service.hh
 * for the service itself.
 */

#ifndef SMART_SERVE_REQUEST_HH
#define SMART_SERVE_REQUEST_HH

#include <cstdint>
#include <future>
#include <string>

#include "accel/config.hh"
#include "accel/perf.hh"
#include "cnn/models.hh"

namespace smart::serve
{

/** Scheduling priority; higher values dispatch first. */
enum class Priority
{
    Low = 0,
    Normal = 1,
    High = 2
};

/** One client request: an evaluation point plus scheduling intent. */
struct EvalRequest
{
    accel::AcceleratorConfig cfg;
    cnn::CnnModel model;
    int batch = 1;
    Priority priority = Priority::Normal;
    /**
     * Queue-time budget in milliseconds: a request still queued this
     * long after submission is expired (its future reports Expired)
     * instead of dispatched. 0 means no deadline. A request already
     * handed to an evaluation wave always runs to completion.
     */
    double deadlineMs = 0.0;
    /**
     * Caller label, echoed in the response. Doubles as the tenant
     * identity for fair-share admission (QueueConfig::maxPerTenant)
     * and shed-victim selection: requests sharing a tag share one
     * tenant budget.
     */
    std::string tag;
};

/** Terminal state of an admitted request. */
enum class ResponseStatus
{
    Ok,      //!< Evaluated; result is valid.
    Shed,    //!< Evicted while queued to admit a higher-priority request.
    Expired  //!< Deadline passed before dispatch.
};

/** What an admitted request's future resolves to. */
struct EvalResponse
{
    ResponseStatus status = ResponseStatus::Ok;
    accel::InferenceResult result; //!< Valid only when status == Ok.
    /**
     * Always false: no result store sits in front of evaluation.
     * Kept only because smartbench/bench.cc still reads it; the
     * cache-hit notion the metrics count is servedFromCache().
     */
    bool cacheHit = false;
    bool coalesced = false;  //!< Shared another request's evaluation.
    double queueMs = 0.0;   //!< Submission -> wave dispatch.
    /** Wave dispatch -> completion. */
    double serviceMs = 0.0;
    double totalMs = 0.0;    //!< Submission -> completion.
    /**
     * requestDigest of the canonical key; 0 when the request never
     * reached dispatch (shed / expired), since the key is only
     * computed on the dispatch path.
     */
    std::uint64_t digest = 0;
    std::string tag; //!< Echo of EvalRequest::tag.
    /**
     * Graceful degradation: true when this request was served through
     * the greedy (anytime) scheduler instead of the ILP. The schedule
     * quality and gap bound are result.schedQuality/schedGapBound.
     */
    bool degraded = false;
    /**
     * Nonzero when this request was sampled by the tracer
     * (ServiceConfig::traceSampleEvery): the TraceRecorder trace id
     * its spans carry, so callers can correlate a response with its
     * slices in the Chrome trace export and with flight-recorder
     * incidents. 0 = not sampled (or tracing disarmed).
     */
    std::uint64_t traceId = 0;

    /**
     * Answered without computing a layer schedule: an evaluation the
     * schedule memo served whole (see InferenceResult::
     * schedulesComputed; a coalesced request shares its group head's
     * count). This is what the cache-hit counters
     * (MetricsSnapshot::cacheHits, ReplayReport::cacheHits) count;
     * every other Ok response is a cache miss.
     */
    bool servedFromCache() const
    {
        return result.schedulesComputed == 0;
    }
};

/** Admission decision, reported synchronously by submit(). */
enum class Admission
{
    Admitted,
    RejectedFull,   //!< Queue at capacity under the Reject policy.
    RejectedQuota,  //!< Tenant over its per-tenant depth quota.
    RejectedClosed, //!< Service closed (draining or destroyed).
    /**
     * SLO-aware admission: the cost estimator predicts this request
     * cannot meet its deadline or the configured p95 SLO even if
     * admitted right now (predicted queue wait + service time already
     * over budget), so it is refused up front instead of burning a
     * queue slot and failing slowly. See ServiceConfig::
     * sloAdmissionFactor and serve/estimator.hh.
     */
    RejectedHopeless,
    /**
     * Graceful degradation: admitted, but routed through the greedy
     * (anytime) scheduler because the ILP path was predicted to blow
     * the deadline or p95 SLO — the request that would have been
     * RejectedHopeless under degradePolicy Off. Counts as
     * admitted(); the future resolves normally with
     * EvalResponse::degraded set.
     */
    ServedDegraded
};

/**
 * submit()'s synchronous result. Rejections are always reported here
 * (never via a dangling future): response is valid only when admitted.
 */
struct Submission
{
    Admission admission = Admission::Admitted;
    std::future<EvalResponse> response;
    /**
     * Estimator-driven deadline assignment: on RejectedHopeless, the
     * deadline (ms) the estimator predicts this request COULD meet if
     * resubmitted — predicted queue wait + service time, scaled by the
     * tenant's admission-factor headroom. A client that resubmits with
     * `deadlineMs = suggestedDeadlineMs` passes the wait-based
     * deadline gate by construction (under unchanged estimates), so
     * it can retry purposefully instead of blind-retrying; the p95
     * SLO gate still applies, so a resubmit into a still-hopeless
     * queue is refused again (with a fresh, larger suggestion). The
     * budget is predicted queue drain + service, scaled, plus the
     * service's current batching linger (ServiceConfig::linger, never
     * negative, as scaled under an SLO): a lone retry into an idle
     * queue waits out the linger before dispatch, and a
     * sub-millisecond memo-hit service estimate must not make the
     * suggestion expire there. 0 on every non-hopeless outcome, and
     * when the estimator is cold.
     */
    double suggestedDeadlineMs = 0.0;

    bool admitted() const
    {
        return admission == Admission::Admitted ||
               admission == Admission::ServedDegraded;
    }
};

} // namespace smart::serve

#endif // SMART_SERVE_REQUEST_HH
