/**
 * @file
 * Online request-cost estimator for SLO-aware admission — the signal
 * behind Admission::RejectedHopeless. The dispatcher feeds it two
 * streams of observations: per-request evaluation times bucketed by
 * coarse (model, batch) shape class (accel::requestShapeKey), and
 * whole-wave service times (the queue's drain granularity). Both are
 * folded into exponentially weighted moving averages, so the estimate
 * tracks load shifts within a few waves but is not yanked around by a
 * single outlier.
 *
 * submit() combines them into a completion-time prediction:
 *
 *   predicted wait    = queueDepth * EWMA(wave ms / wave items)
 *   predicted service = EWMA(service ms | shape), falling back to the
 *                       global service EWMA for unseen shapes
 *
 * and rejects a request up front when the prediction already exceeds
 * its deadline or the configured SLO (see EvalService::submit). The
 * per-item drain rate deliberately starts pessimistic — small warm-up
 * waves have no intra-wave parallelism, so their per-item cost is the
 * serial cost — and relaxes toward the true parallel drain rate as
 * fuller waves are observed. An SLO guard should err exactly that
 * way: early burst admissions are the ones a stale-optimistic
 * estimate would let violate the SLO. A cold estimator (no completed
 * evaluation yet) predicts zero, so the first requests of a fresh
 * service are never rejected as hopeless — the estimator only ever
 * turns away work it has evidence it cannot serve in time.
 *
 * Thread-safe: recorded from pool workers and the dispatcher, read
 * from every submitting thread.
 */

#ifndef SMART_SERVE_ESTIMATOR_HH
#define SMART_SERVE_ESTIMATOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/threadsafety.hh"

namespace smart::serve
{

class CostEstimator
{
  public:
    /**
     * @p alpha is the EWMA weight of the newest sample in (0, 1]; 1
     * degenerates to "latest sample wins". Values outside the range
     * are clamped.
     */
    explicit CostEstimator(double alpha = 0.25);

    /**
     * Fold in one evaluated (non-cache-hit) request: @p serviceMs from
     * wave dispatch to its completion, bucketed under @p shapeKey and
     * into the global service EWMA. Cache hits are deliberately not
     * recorded — they cost no evaluation capacity, and folding their
     * near-zero latencies in would talk the estimator into admitting
     * waves it cannot actually serve.
     */
    void recordService(const std::string &shapeKey, double serviceMs);

    /**
     * Fold in one completed runBatch wave: wall time @p waveMs over
     * @p items unique evaluations (feeds both the whole-wave EWMA and
     * the per-item drain rate).
     */
    void recordWave(double waveMs, std::size_t items);

    /**
     * Expected evaluation time of one request of @p shapeKey: the
     * shape's EWMA, else the global service EWMA, else 0 (cold).
     */
    double estimateServiceMs(const std::string &shapeKey) const;

    /**
     * The shape's EWMA alone, 0 when untracked — no global fallback.
     * The degraded-serving gate keys greedy-path costs under a
     * distinct shape key ("<shape>|greedy"); falling back to the
     * global (ILP-dominated) EWMA there would make degradation look
     * as expensive as the thing it degrades from, so an untracked
     * degraded shape must read as optimistically cheap instead.
     */
    double shapeEstimateMs(const std::string &shapeKey) const;

    /**
     * Expected queue wait with @p queueDepth requests ahead:
     * queueDepth times the per-item drain EWMA (the global service
     * EWMA stands in before the first whole-wave sample, since
     * per-request samples land before their wave's). 0 while fully
     * cold.
     */
    double estimateQueueWaitMs(std::size_t queueDepth) const;

    /**
     * The tightest deadline (ms) a request of @p shapeKey submitted
     * behind @p queueDepth entries is predicted to meet, with the
     * admission-headroom @p factor folded in:
     *
     *   (predicted wait + predicted service) / factor
     *
     * This is the base of `Submission::suggestedDeadlineMs` (the
     * service adds its batching linger): a resubmit carrying this
     * deadline passes the wait-based deadline admission gate by
     * construction while the estimates hold (wait <= factor *
     * suggested, since service > 0). Factors outside (0, inf) are
     * treated as 1; returns 0 while fully cold (no evidence, no
     * suggestion).
     */
    double suggestDeadlineMs(const std::string &shapeKey,
                             std::size_t queueDepth,
                             double factor) const;

    /**
     * Confidence interval of the service-time estimate for
     * @p shapeKey (the shape's own EWMA statistics when tracked with
     * at least two samples, else the global ones): {mean - 2 sigma,
     * mean + 2 sigma}, where sigma is the square root of the
     * exponentially weighted variance maintained alongside each EWMA
     * (West's update: the same alpha discounts old squared
     * deviations, so the interval tracks regime shifts like the mean
     * does). The lower bound is clamped at 0; {0, 0} while cold or
     * single-sampled. A wide interval means the estimate is volatile
     * — SLO-aware admission tightens its effective admissionFactor
     * proportionally (see EvalService), and the global interval's
     * width is exported as est_service_interval_ms.
     */
    std::pair<double, double>
    estimateInterval(const std::string &shapeKey = std::string()) const;

    /** Point-in-time copy of the EWMAs (metrics export). */
    struct Snapshot
    {
        std::uint64_t serviceSamples = 0;
        std::uint64_t waveSamples = 0;
        double serviceMs = 0.0; //!< Global per-request EWMA.
        double waveMs = 0.0;    //!< Whole-wave EWMA.
        double drainMsPerItem = 0.0; //!< Per-item drain EWMA.
        std::size_t shapes = 0; //!< Tracked shape classes.
        /** Width (4 sigma) of the global estimate's interval, ms. */
        double serviceIntervalMs = 0.0;
    };
    Snapshot snapshot() const;

  private:
    /**
     * Shape classes come from client traffic, so the per-shape map is
     * bounded: past this many distinct shapes, new ones fall back to
     * the global EWMA instead of growing the map without limit.
     */
    static constexpr std::size_t kMaxShapes = 4096;

    /**
     * One EWMA with its exponentially weighted variance (West's
     * update), the unit of every service-time estimate here.
     */
    struct Ewma
    {
        double ms = 0.0;
        double var = 0.0; //!< Exponentially weighted variance (ms^2).
        std::uint64_t samples = 0;
    };

    /** Fold @p x into @p e under alpha_ (mean and variance). */
    void foldInto(Ewma &e, double x) const SMART_REQUIRES(mu_);
    /** {mean - 2 sigma, mean + 2 sigma} of @p e; {0,0} under 2 samples. */
    static std::pair<double, double> intervalOf(const Ewma &e);

    mutable Mutex mu_;
    double alpha_; //!< Immutable after construction.
    /** Global per-request service-time EWMA. */
    Ewma service_ SMART_GUARDED_BY(mu_);
    double waveMs_ SMART_GUARDED_BY(mu_) = 0.0;
    /** Drain cost per queued item. */
    double itemMs_ SMART_GUARDED_BY(mu_) = 0.0;
    std::uint64_t waveSamples_ SMART_GUARDED_BY(mu_) = 0;
    std::unordered_map<std::string, Ewma> shapeMs_ SMART_GUARDED_BY(mu_);
};

} // namespace smart::serve

#endif // SMART_SERVE_ESTIMATOR_HH
