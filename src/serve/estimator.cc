#include "serve/estimator.hh"

#include <algorithm>
#include <cmath>

namespace smart::serve
{

namespace
{

/** EWMA update; the first sample seeds the average directly. */
double
fold(double avg, std::uint64_t samples, double alpha, double x)
{
    return samples == 0 ? x : avg + alpha * (x - avg);
}

} // namespace

CostEstimator::CostEstimator(double alpha)
    : alpha_(std::clamp(alpha, 1e-3, 1.0))
{}

void
CostEstimator::foldInto(Ewma &e, double x) const
{
    if (e.samples == 0) {
        e.ms = x;
        e.var = 0.0; // one sample carries no spread evidence
    } else {
        // West's exponentially weighted mean/variance update: the
        // same alpha discounts old squared deviations, so the
        // interval tracks regime shifts at the pace the mean does.
        const double diff = x - e.ms;
        const double incr = alpha_ * diff;
        e.ms += incr;
        e.var = (1.0 - alpha_) * (e.var + diff * incr);
    }
    ++e.samples;
}

std::pair<double, double>
CostEstimator::intervalOf(const Ewma &e)
{
    if (e.samples < 2)
        return {0.0, 0.0}; // no spread evidence yet
    const double half = 2.0 * std::sqrt(std::max(0.0, e.var));
    return {std::max(0.0, e.ms - half), e.ms + half};
}

void
CostEstimator::recordService(const std::string &shapeKey,
                             double serviceMs)
{
    if (!std::isfinite(serviceMs) || serviceMs < 0.0)
        return; // a broken clock must not poison admission decisions
    LockGuard lock(mu_);
    foldInto(service_, serviceMs);
    auto it = shapeMs_.find(shapeKey);
    if (it != shapeMs_.end())
        foldInto(it->second, serviceMs);
    else if (shapeMs_.size() < kMaxShapes)
        foldInto(shapeMs_.emplace(shapeKey, Ewma{}).first->second,
                 serviceMs);
}

void
CostEstimator::recordWave(double waveMs, std::size_t items)
{
    if (!std::isfinite(waveMs) || waveMs < 0.0)
        return;
    LockGuard lock(mu_);
    waveMs_ = fold(waveMs_, waveSamples_, alpha_, waveMs);
    itemMs_ = fold(itemMs_, waveSamples_, alpha_,
                   waveMs / static_cast<double>(
                                std::max<std::size_t>(1, items)));
    ++waveSamples_;
}

double
CostEstimator::estimateServiceMs(const std::string &shapeKey) const
{
    LockGuard lock(mu_);
    auto it = shapeMs_.find(shapeKey);
    if (it != shapeMs_.end())
        return it->second.ms;
    return service_.samples ? service_.ms : 0.0;
}

double
CostEstimator::shapeEstimateMs(const std::string &shapeKey) const
{
    LockGuard lock(mu_);
    auto it = shapeMs_.find(shapeKey);
    return it != shapeMs_.end() ? it->second.ms : 0.0;
}

std::pair<double, double>
CostEstimator::estimateInterval(const std::string &shapeKey) const
{
    LockGuard lock(mu_);
    if (!shapeKey.empty()) {
        auto it = shapeMs_.find(shapeKey);
        if (it != shapeMs_.end() && it->second.samples >= 2)
            return intervalOf(it->second);
    }
    return intervalOf(service_);
}

std::pair<double, double>
CostEstimator::shapeInterval(const std::string &shapeKey) const
{
    LockGuard lock(mu_);
    auto it = shapeMs_.find(shapeKey);
    return it != shapeMs_.end() ? intervalOf(it->second)
                                : std::pair<double, double>{0.0, 0.0};
}

double
CostEstimator::estimateQueueWaitMs(std::size_t queueDepth) const
{
    if (queueDepth == 0)
        return 0.0;
    LockGuard lock(mu_);
    // Draining one queued item costs the per-item drain EWMA. Until
    // the first whole-wave sample lands, the global service EWMA
    // stands in (per-request samples are recorded before their
    // futures resolve; the wave sample only after the wave returns,
    // so a submitter can observe a completed request while the wave
    // EWMA is still cold) — a deliberately serial, pessimistic guess.
    const double perItemMs =
        waveSamples_ ? itemMs_ : (service_.samples ? service_.ms : 0.0);
    if (perItemMs <= 0.0)
        return 0.0; // cold: no evidence, never reject on a guess
    return static_cast<double>(queueDepth) * perItemMs;
}

double
CostEstimator::suggestDeadlineMs(const std::string &shapeKey,
                                 std::size_t queueDepth,
                                 double factor) const
{
    const double budget = estimateQueueWaitMs(queueDepth) +
                          estimateServiceMs(shapeKey);
    if (budget <= 0.0)
        return 0.0; // cold: no evidence, no suggestion
    if (!(factor > 0.0) || !std::isfinite(factor))
        factor = 1.0;
    return budget / factor;
}

CostEstimator::Snapshot
CostEstimator::snapshot() const
{
    LockGuard lock(mu_);
    Snapshot s;
    s.serviceSamples = service_.samples;
    s.waveSamples = waveSamples_;
    s.serviceMs = service_.ms;
    s.waveMs = waveMs_;
    s.drainMsPerItem = itemMs_;
    s.shapes = shapeMs_.size();
    const auto interval = intervalOf(service_);
    s.serviceIntervalMs = interval.second - interval.first;
    return s;
}

} // namespace smart::serve
