/**
 * @file
 * Serving-layer metrics: per-request latency distribution, admission
 * and cache-hit counters, wave/coalescing statistics, and queue-depth
 * tracking, exportable as a point-in-time snapshot and as a JSON
 * report with the same flat shape as BENCH_micro.json ({"bench": ...,
 * "threads": N, "metrics": {...}}), so serving metrics slot into the
 * same perf-trajectory tooling as the bench timings.
 */

#ifndef SMART_SERVE_METRICS_HH
#define SMART_SERVE_METRICS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hh"
#include "common/threadsafety.hh"

namespace smart::serve
{

/** Point-in-time copy of every service metric. */
struct MetricsSnapshot
{
    // Admission accounting: submitted == admitted + rejected, and once
    // drained, admitted == completed + shed + expired + failed.
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    /**
     * Subset of rejected refused by SLO-aware admission: the cost
     * estimator predicted the request could not meet its deadline or
     * the p95 SLO (Admission::RejectedHopeless).
     */
    std::uint64_t rejectedHopeless = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t completed = 0;
    /**
     * Subset of completed served through the greedy (anytime)
     * scheduler instead of the ILP — graceful degradation under
     * deadline pressure (Admission::ServedDegraded).
     */
    std::uint64_t servedDegraded = 0;
    /** Wave evaluation threw; futures carry the exception. */
    std::uint64_t failed = 0;

    /**
     * Completed without computing a layer schedule
     * (EvalResponse::servedFromCache): evaluations the schedule memo
     * served whole (schemes without the ILP compiler schedule nothing
     * and count here too).
     */
    std::uint64_t cacheHits = 0;
    /** Completed evaluations that computed at least one schedule. */
    std::uint64_t cacheMisses = 0;
    /** Completed requests that shared another's wave item. */
    std::uint64_t coalesced = 0;
    std::uint64_t waves = 0;       //!< runBatch waves dispatched.
    std::uint64_t waveItems = 0;   //!< Unique items across all waves.

    double cacheHitRate = 0.0; //!< hits / (hits + misses); 0 if none.
    double meanWaveSize = 0.0; //!< waveItems / waves; 0 if none.

    // SLO-driven wave sizing (see ServiceConfig::sloP95Ms).
    std::size_t waveLimit = 0;  //!< Current adaptive maxWave bound.
    double sloP95Ms = 0.0;      //!< Configured target; 0 = disabled.
    std::uint64_t sloWindows = 0;         //!< Adaptation decisions.
    std::uint64_t sloViolatedWindows = 0; //!< Windows with p95 > SLO.

    // Cost-estimator state driving SLO-aware admission (filled by
    // EvalService::metrics() from serve/estimator.hh).
    double estServiceMs = 0.0;        //!< Global per-request EWMA.
    double estWaveMs = 0.0;           //!< Whole-wave EWMA.
    std::uint64_t estServiceSamples = 0;
    /**
     * Estimator confidence: the width (2 sigma each side) of the
     * global service-time estimate's EWMA-variance interval, in ms.
     * Wide = the estimator's predictions are volatile, and admission
     * is correspondingly tightened (see CostEstimator::
     * estimateInterval). 0 until two samples exist.
     */
    double estServiceIntervalMs = 0.0;

    /** One traced pipeline stage's latency breakdown (tracespan). */
    struct StageLatency
    {
        std::string name; //!< Span name: queue_wait, serve, ...
        std::uint64_t count = 0;
        double p50Ms = 0.0;
        double p95Ms = 0.0;
    };
    /**
     * Per-stage latency breakdown from the span recorder, ordered by
     * stage name; empty when tracing is disarmed. Exported as
     * stage_<name>_{p50,p95}_ms (filled by EvalService::metrics()
     * from TraceRecorder::stageStats()).
     */
    std::vector<StageLatency> stages;

    /** One tenant's latency distribution and SLO standing. */
    struct TenantSloStat
    {
        std::string tag;
        std::uint64_t completed = 0;  //!< Ok completions for this tag.
        double latencyP50Ms = 0.0;
        double latencyP95Ms = 0.0;
        /** Completions served degraded (greedy path) for this tag. */
        std::uint64_t degraded = 0;
        /**
         * The tenant's effective p95 target — its tenantSlo entry,
         * else the global sloP95Ms it inherits; 0 when it has none
         * (filled by EvalService::metrics() from the config).
         */
        double sloP95Ms = 0.0;
        /**
         * Adaptation windows in which THIS tenant's window p95
         * violated its own SLO (filled by EvalService::metrics();
         * see ServiceConfig::tenantSlo).
         */
        std::uint64_t violatedWindows = 0;
    };
    /**
     * Per-tenant latency/SLO slices, ordered by tag. A tenant appears
     * once it completes a request (histograms are tracked for the
     * first kMaxTenantStats distinct tags; later tags fold into the
     * global distribution only) or once it accrues a violated window.
     */
    std::vector<TenantSloStat> tenantSlo;

    // End-to-end latency of completed requests (submit -> response).
    double latencyP50Ms = 0.0;
    double latencyP95Ms = 0.0;
    double latencyP99Ms = 0.0;
    double latencyMeanMs = 0.0;
    double latencyMaxMs = 0.0;

    // Degraded-vs-optimal latency split of the same completions: what
    // did anytime scheduling actually buy under deadline pressure?
    double degradedLatencyP50Ms = 0.0;
    double degradedLatencyP95Ms = 0.0;
    double optimalLatencyP50Ms = 0.0;
    double optimalLatencyP95Ms = 0.0;

    double elapsedMs = 0.0;      //!< Since service start.
    double throughputRps = 0.0;  //!< completed / elapsed seconds.
    std::size_t queueDepth = 0;  //!< At snapshot time.
    std::size_t queueHighWater = 0;

    /** Flat (name, value) list, in stable order, for JSON emitters. */
    std::vector<std::pair<std::string, double>> toMetrics() const;

    /**
     * BENCH_micro.json-shaped report: {"bench": name, "threads": N,
     * "metrics": {...}} with full double precision.
     */
    std::string toJson(const std::string &bench) const;
};

/**
 * Map a client-controlled tag into a metric-name-safe identifier:
 * anything outside [A-Za-z0-9_-] becomes '_', and a tag the mapping
 * actually changed gains a short FNV-1a suffix of the original so
 * distinct hostile tags ("a.b" vs "a:b") cannot collide onto one
 * metric name. Shared by the snapshot emitter and the bench drivers
 * that build tenant_<tag>_* keys by hand.
 */
std::string metricSafeTag(const std::string &tag);

/** Thread-safe metrics registry owned by the service. */
class ServiceMetrics
{
  public:
    ServiceMetrics();

    void recordSubmitted();
    /**
     * Count an admission. Called optimistically before the request is
     * published to the dispatcher, so a concurrently-taken snapshot
     * can never show a completed request that was not yet admitted.
     */
    void recordAdmitted();
    /** Convert an optimistic admission into a rejection. */
    void rollbackAdmittedToRejected();
    /** Count an SLO-aware (hopeless) rejection at submit time. */
    void recordRejectedHopeless();
    void recordShed();
    void recordExpired();
    void recordFailed();
    /**
     * One request completed Ok after @p totalMs end to end. @p tag is
     * the tenant label; non-empty tags additionally feed that tenant's
     * latency histogram (bounded at kMaxTenantStats distinct tags —
     * tags are client-controlled — beyond which samples fold into the
     * global distribution only). @p degraded marks a completion served
     * through the greedy (anytime) scheduler; it feeds the degraded
     * latency histogram, all others feed the optimal one. @p cacheHit
     * is EvalResponse::servedFromCache().
     */
    void recordCompleted(double totalMs, bool cacheHit, bool coalesced,
                         bool degraded, const std::string &tag);
    /** One runBatch wave of @p uniqueItems evaluations dispatched. */
    void recordWave(std::size_t uniqueItems);

    /** Copy every counter; queue figures are passed in by the owner. */
    MetricsSnapshot snapshot(std::size_t queueDepth,
                             std::size_t queueHighWater) const;

  private:
    /**
     * Most distinct tenant tags given their own latency histogram.
     * Tags come from clients, so per-tenant metric state must be
     * bounded; past the cap, completions still count globally.
     */
    static constexpr std::size_t kMaxTenantStats = 64;

    /** One tenant's slice of the latency accounting. */
    struct TenantLatency
    {
        Histogram latency{1e-3, 1e7, 1.25};
        std::uint64_t completed = 0;
        std::uint64_t degraded = 0;
    };

    mutable Mutex mu_;
    /** Milliseconds, 1 us .. ~3 h buckets. */
    Histogram latency_ SMART_GUARDED_BY(mu_);
    /** Completions served degraded. */
    Histogram degradedLatency_ SMART_GUARDED_BY(mu_);
    /** Everything else. */
    Histogram optimalLatency_ SMART_GUARDED_BY(mu_);
    std::map<std::string, TenantLatency>
        tenantLatency_ SMART_GUARDED_BY(mu_);
    std::uint64_t submitted_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t admitted_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t rejected_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t rejectedHopeless_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t shed_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t expired_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t completed_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t servedDegraded_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t failed_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t cacheHits_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t cacheMisses_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t coalesced_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t waves_ SMART_GUARDED_BY(mu_) = 0;
    std::uint64_t waveItems_ SMART_GUARDED_BY(mu_) = 0;
    std::chrono::steady_clock::time_point start_; //!< Immutable.
};

} // namespace smart::serve

#endif // SMART_SERVE_METRICS_HH
