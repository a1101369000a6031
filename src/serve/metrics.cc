#include "serve/metrics.hh"

#include <cstdio>
#include <sstream>

#include "accel/hash.hh"
#include "common/jsonreport.hh"

namespace smart::serve
{

/**
 * Tenant tags are client-controlled strings but metric names are
 * JSON identifiers parsed by the line-oriented trajectory tooling,
 * so anything outside [A-Za-z0-9_-] is mapped to '_' before the tag
 * enters a name. When sanitization actually changed the tag, a short
 * FNV-1a suffix of the original keeps distinct tags ("a.b" vs "a:b")
 * from colliding onto one metric name and emitting duplicate JSON
 * keys. (The JSON emitter additionally escapes every key — see
 * common/jsonreport.hh — so even a missed caller cannot corrupt the
 * report itself.)
 */
std::string
metricSafeTag(const std::string &tag)
{
    std::string safe = tag;
    for (char &c : safe) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    if (safe != tag) {
        char suffix[12];
        std::snprintf(suffix, sizeof(suffix), "_%08x",
                      static_cast<unsigned>(accel::requestDigest(tag) &
                                            0xffffffffu));
        safe += suffix;
    }
    return safe;
}

std::vector<std::pair<std::string, double>>
MetricsSnapshot::toMetrics() const
{
    std::vector<std::pair<std::string, double>> m = {
        {"submitted", static_cast<double>(submitted)},
        {"admitted", static_cast<double>(admitted)},
        {"rejected", static_cast<double>(rejected)},
        {"rejected_hopeless", static_cast<double>(rejectedHopeless)},
        {"shed", static_cast<double>(shed)},
        {"expired", static_cast<double>(expired)},
        {"completed", static_cast<double>(completed)},
        {"served_degraded", static_cast<double>(servedDegraded)},
        {"failed", static_cast<double>(failed)},
        {"cache_hits", static_cast<double>(cacheHits)},
        {"cache_misses", static_cast<double>(cacheMisses)},
        {"cache_hit_rate", cacheHitRate},
        {"coalesced", static_cast<double>(coalesced)},
        {"waves", static_cast<double>(waves)},
        {"wave_items", static_cast<double>(waveItems)},
        {"mean_wave_size", meanWaveSize},
        {"wave_limit", static_cast<double>(waveLimit)},
        {"slo_p95_ms", sloP95Ms},
        {"slo_windows", static_cast<double>(sloWindows)},
        {"slo_violated_windows", static_cast<double>(sloViolatedWindows)},
        {"est_service_ms", estServiceMs},
        {"est_wave_ms", estWaveMs},
        {"est_service_samples", static_cast<double>(estServiceSamples)},
        {"est_service_interval_ms", estServiceIntervalMs},
        {"latency_p50_ms", latencyP50Ms},
        {"latency_p95_ms", latencyP95Ms},
        {"latency_p99_ms", latencyP99Ms},
        {"latency_mean_ms", latencyMeanMs},
        {"latency_max_ms", latencyMaxMs},
        {"degraded_latency_p50_ms", degradedLatencyP50Ms},
        {"degraded_latency_p95_ms", degradedLatencyP95Ms},
        {"optimal_latency_p50_ms", optimalLatencyP50Ms},
        {"optimal_latency_p95_ms", optimalLatencyP95Ms},
        {"elapsed_ms", elapsedMs},
        {"throughput_rps", throughputRps},
        {"queue_depth", static_cast<double>(queueDepth)},
        {"queue_high_water", static_cast<double>(queueHighWater)},
    };
    // Per-tenant latency/SLO slices ride at the end, one group per
    // tag, so the fixed schema above stays byte-stable for trajectory
    // diffs.
    for (const auto &t : tenantSlo) {
        const std::string tag = metricSafeTag(t.tag);
        m.emplace_back("tenant_" + tag + "_completed",
                       static_cast<double>(t.completed));
        m.emplace_back("tenant_" + tag + "_latency_p50_ms",
                       t.latencyP50Ms);
        m.emplace_back("tenant_" + tag + "_latency_p95_ms",
                       t.latencyP95Ms);
        m.emplace_back("tenant_" + tag + "_degraded",
                       static_cast<double>(t.degraded));
        m.emplace_back("tenant_" + tag + "_slo_p95_ms", t.sloP95Ms);
        m.emplace_back("tenant_" + tag + "_slo_violated_windows",
                       static_cast<double>(t.violatedWindows));
    }
    // Per-stage latency breakdown from the span recorder (empty when
    // tracing is disarmed). Stage names are static instrumentation
    // strings, but they pass through the same sanitizer as tags so a
    // future span name cannot break the flat-metric grammar.
    for (const auto &st : stages) {
        const std::string name = metricSafeTag(st.name);
        m.emplace_back("stage_" + name + "_p50_ms", st.p50Ms);
        m.emplace_back("stage_" + name + "_p95_ms", st.p95Ms);
        m.emplace_back("stage_" + name + "_count",
                       static_cast<double>(st.count));
    }
    return m;
}

std::string
MetricsSnapshot::toJson(const std::string &bench) const
{
    std::ostringstream os;
    writeFlatMetricsJson(os, bench, toMetrics());
    return os.str();
}

ServiceMetrics::ServiceMetrics()
    : latency_(1e-3, 1e7, 1.25), degradedLatency_(1e-3, 1e7, 1.25),
      optimalLatency_(1e-3, 1e7, 1.25),
      start_(std::chrono::steady_clock::now())
{}

void
ServiceMetrics::recordSubmitted()
{
    LockGuard lock(mu_);
    ++submitted_;
}

void
ServiceMetrics::recordAdmitted()
{
    LockGuard lock(mu_);
    ++admitted_;
}

void
ServiceMetrics::rollbackAdmittedToRejected()
{
    LockGuard lock(mu_);
    --admitted_;
    ++rejected_;
}

void
ServiceMetrics::recordRejectedHopeless()
{
    LockGuard lock(mu_);
    ++rejected_;
    ++rejectedHopeless_;
}

void
ServiceMetrics::recordShed()
{
    LockGuard lock(mu_);
    ++shed_;
}

void
ServiceMetrics::recordExpired()
{
    LockGuard lock(mu_);
    ++expired_;
}

void
ServiceMetrics::recordFailed()
{
    LockGuard lock(mu_);
    ++failed_;
}

void
ServiceMetrics::recordCompleted(double totalMs, bool cacheHit,
                                bool coalesced, bool degraded,
                                const std::string &tag)
{
    LockGuard lock(mu_);
    ++completed_;
    if (degraded)
        ++servedDegraded_;
    if (cacheHit)
        ++cacheHits_;
    else
        ++cacheMisses_;
    if (coalesced)
        ++coalesced_;
    latency_.add(totalMs);
    (degraded ? degradedLatency_ : optimalLatency_).add(totalMs);
    if (tag.empty())
        return;
    auto it = tenantLatency_.find(tag);
    if (it == tenantLatency_.end()) {
        if (tenantLatency_.size() >= kMaxTenantStats)
            return; // tag-churn bound: counted globally only
        it = tenantLatency_.emplace(tag, TenantLatency{}).first;
    }
    it->second.latency.add(totalMs);
    ++it->second.completed;
    if (degraded)
        ++it->second.degraded;
}

void
ServiceMetrics::recordWave(std::size_t uniqueItems)
{
    LockGuard lock(mu_);
    ++waves_;
    waveItems_ += uniqueItems;
}

MetricsSnapshot
ServiceMetrics::snapshot(std::size_t queueDepth,
                         std::size_t queueHighWater) const
{
    LockGuard lock(mu_);
    MetricsSnapshot s;
    s.submitted = submitted_;
    s.admitted = admitted_;
    s.rejected = rejected_;
    s.rejectedHopeless = rejectedHopeless_;
    s.shed = shed_;
    s.expired = expired_;
    s.completed = completed_;
    s.servedDegraded = servedDegraded_;
    s.failed = failed_;
    s.cacheHits = cacheHits_;
    s.cacheMisses = cacheMisses_;
    s.coalesced = coalesced_;
    s.waves = waves_;
    s.waveItems = waveItems_;
    const std::uint64_t looked = cacheHits_ + cacheMisses_;
    s.cacheHitRate =
        looked ? static_cast<double>(cacheHits_) / looked : 0.0;
    s.meanWaveSize =
        waves_ ? static_cast<double>(waveItems_) / waves_ : 0.0;
    s.latencyP50Ms = latency_.quantile(0.50);
    s.latencyP95Ms = latency_.quantile(0.95);
    s.latencyP99Ms = latency_.quantile(0.99);
    s.latencyMeanMs = latency_.mean();
    s.latencyMaxMs = latency_.max();
    s.degradedLatencyP50Ms = degradedLatency_.quantile(0.50);
    s.degradedLatencyP95Ms = degradedLatency_.quantile(0.95);
    s.optimalLatencyP50Ms = optimalLatency_.quantile(0.50);
    s.optimalLatencyP95Ms = optimalLatency_.quantile(0.95);
    for (const auto &[tag, tl] : tenantLatency_) {
        MetricsSnapshot::TenantSloStat ts;
        ts.tag = tag;
        ts.completed = tl.completed;
        ts.degraded = tl.degraded;
        ts.latencyP50Ms = tl.latency.quantile(0.50);
        ts.latencyP95Ms = tl.latency.quantile(0.95);
        // sloP95Ms / violatedWindows are the service's to fill: the
        // SLO table and the adaptation counters live in EvalService.
        s.tenantSlo.push_back(std::move(ts));
    }
    s.elapsedMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    s.throughputRps =
        s.elapsedMs > 0.0 ? completed_ * 1e3 / s.elapsedMs : 0.0;
    s.queueDepth = queueDepth;
    s.queueHighWater = queueHighWater;
    return s;
}

} // namespace smart::serve
