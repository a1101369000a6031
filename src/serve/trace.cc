#include "serve/trace.hh"

#include <thread>

#include "common/logging.hh"
#include "common/rng.hh"

namespace smart::serve
{

std::vector<TraceRequest>
makeSyntheticTrace(const TraceConfig &cfg)
{
    smart_assert(!cfg.models.empty(), "trace needs at least one model");
    Rng rng(cfg.seed);

    // The sweep working set: every (model, scheme) pair at single and
    // paper batch sizes, materialized once so repeats are byte-equal.
    struct Point
    {
        cnn::CnnModel model;
        accel::Scheme scheme;
        int batch;
    };
    std::vector<Point> points;
    for (const auto &name : cfg.models) {
        auto net = cnn::convLayersOnly(cnn::makeModel(name));
        for (auto s : {accel::Scheme::Tpu, accel::Scheme::SuperNpu,
                       accel::Scheme::Sram, accel::Scheme::Smart}) {
            points.push_back({net, s, 1});
            points.push_back(
                {net, s,
                 cnn::paperBatchSize(name,
                                     s == accel::Scheme::SuperNpu)});
        }
    }

    // Tenant draw: cumulative weights over cfg.tenants (uniform when
    // no weights are given). The tag IS the tenant label, so replays
    // exercise quotas and fair shedding.
    smart_assert(!cfg.tenants.empty(), "trace needs at least one tenant");
    smart_assert(cfg.tenantWeights.empty() ||
                     cfg.tenantWeights.size() == cfg.tenants.size(),
                 "tenantWeights must align with tenants");
    smart_assert(cfg.tenantDeadlineMs.empty() ||
                     cfg.tenantDeadlineMs.size() == cfg.tenants.size(),
                 "tenantDeadlineMs must align with tenants");
    std::vector<double> cumulative(cfg.tenants.size(), 0.0);
    double weight_sum = 0.0;
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t) {
        const double w =
            cfg.tenantWeights.empty() ? 1.0 : cfg.tenantWeights[t];
        smart_assert(w >= 0.0, "tenant weights must be non-negative");
        weight_sum += w;
        cumulative[t] = weight_sum;
    }
    // All-zero weights would silently route everything to the last
    // tenant, invalidating the fairness experiment being configured.
    smart_assert(weight_sum > 0.0, "tenant weights must not sum to 0");
    auto drawTenant = [&]() -> std::size_t {
        const double u = rng.uniform() * weight_sum;
        for (std::size_t t = 0; t < cumulative.size(); ++t)
            if (u < cumulative[t])
                return t;
        return cfg.tenants.size() - 1;
    };

    std::vector<TraceRequest> trace;
    trace.reserve(static_cast<std::size_t>(cfg.bursts) *
                  cfg.requestsPerBurst);
    std::vector<std::size_t> seen; // indices already requested once
    double clock_ms = 0.0;
    for (int b = 0; b < cfg.bursts; ++b) {
        for (int i = 0; i < cfg.requestsPerBurst; ++i) {
            std::size_t pi;
            if (!seen.empty() && rng.uniform() < cfg.repeatFraction)
                pi = seen[rng.range(seen.size())];
            else
                pi = rng.range(points.size());
            seen.push_back(pi);

            TraceRequest tr;
            tr.arrivalMs = clock_ms;
            tr.req.cfg = accel::makeScheme(points[pi].scheme);
            tr.req.model = points[pi].model;
            tr.req.batch = points[pi].batch;
            // Independent draws: the High fraction must not skew the
            // Normal/Low split (a single reused uniform made
            // highPriorityFraction >= 0.5 erase Normal entirely).
            tr.req.priority =
                rng.uniform() < cfg.highPriorityFraction
                    ? Priority::High
                    : (rng.uniform() < 0.5 ? Priority::Normal
                                           : Priority::Low);
            // The deadline-fraction draw is consumed either way so a
            // trace with tenantDeadlineMs differs from its global-
            // deadline twin only in the deadlines, not in every later
            // draw of the stream.
            const bool drawDeadline =
                rng.uniform() < cfg.deadlineFraction;
            const std::size_t tenant = drawTenant();
            tr.req.tag = cfg.tenants[tenant];
            if (!cfg.tenantDeadlineMs.empty())
                tr.req.deadlineMs = cfg.tenantDeadlineMs[tenant];
            else if (drawDeadline)
                tr.req.deadlineMs = cfg.deadlineMs;
            trace.push_back(std::move(tr));
            clock_ms += cfg.intraGapMs;
        }
        clock_ms += cfg.burstGapMs;
    }
    return trace;
}

ReplayReport
replayTrace(EvalService &svc, const std::vector<TraceRequest> &trace,
            const ReplayOptions &opts)
{
    using Clock = std::chrono::steady_clock;
    const auto start = Clock::now();

    ReplayReport rep;
    rep.total = trace.size();
    struct Outstanding
    {
        std::future<EvalResponse> future;
        const std::string *tag; //!< Into the trace (outlives replay).
    };
    std::vector<Outstanding> outstanding;
    outstanding.reserve(trace.size());
    /** Hopeless rejections to retry: (trace index, suggested ms). */
    std::vector<std::pair<std::size_t, double>> retries;

    for (std::size_t i = 0; i < trace.size(); ++i) {
        const auto &tr = trace[i];
        if (opts.timeScale > 0.0) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                tr.arrivalMs * opts.timeScale));
            std::this_thread::sleep_until(due);
        }
        ++rep.tenants[tr.req.tag].submitted;
        auto sub = svc.submit(tr.req);
        if (sub.admitted()) {
            outstanding.push_back(
                {std::move(sub.response), &tr.req.tag});
        } else {
            ++rep.rejected;
            ++rep.tenants[tr.req.tag].rejected;
            if (sub.admission == Admission::RejectedHopeless) {
                ++rep.rejectedHopeless;
                ++rep.tenants[tr.req.tag].rejectedHopeless;
                if (opts.resubmitOnSuggestion &&
                    sub.suggestedDeadlineMs > 0.0)
                    retries.emplace_back(i, sub.suggestedDeadlineMs);
            }
        }
    }

    for (auto &o : outstanding) {
        TenantTally &tally = rep.tenants[*o.tag];
        EvalResponse r;
        try {
            r = o.future.get();
        } catch (...) {
            // A failed wave resolves its futures with the exception;
            // the replay report still accounts for every request.
            ++rep.failed;
            ++tally.failed;
            continue;
        }
        switch (r.status) {
          case ResponseStatus::Ok:
            ++rep.completed;
            ++tally.completed;
            if (r.degraded) {
                ++rep.servedDegraded;
                ++tally.servedDegraded;
            }
            if (r.servedFromCache()) {
                ++rep.cacheHits;
                ++tally.cacheHits;
            }
            if (r.coalesced)
                ++rep.coalesced;
            break;
          case ResponseStatus::Shed:
            ++rep.shed;
            ++tally.shed;
            break;
          case ResponseStatus::Expired:
            ++rep.expired;
            ++tally.expired;
            break;
        }
        rep.responses.push_back(std::move(r));
    }

    // Resubmit-on-suggestion: each hopeless rejection is retried once
    // with the deadline the estimator suggested, serialized so each
    // retry is judged against a drained queue — the way independent
    // clients that waited out their suggested budget would trickle
    // back in, rather than re-flooding the queue they were just
    // turned away from. Retried requests are extra submissions on
    // top of the trace; they never touch the consistent() buckets.
    for (const auto &[idx, suggestedMs] : retries) {
        EvalRequest req = trace[idx].req;
        req.deadlineMs = suggestedMs;
        TenantTally &tally = rep.tenants[req.tag];
        ++rep.resubmitted;
        ++tally.resubmitted;
        auto sub = svc.submit(std::move(req));
        if (!sub.admitted())
            continue;
        try {
            const EvalResponse retry = sub.response.get();
            if (retry.status == ResponseStatus::Ok) {
                ++rep.resubmitOk;
                ++tally.resubmitOk;
                if (retry.degraded)
                    ++rep.resubmitDegraded;
            }
        } catch (...) {
            // A failed retry wave counts as a non-Ok retry outcome.
        }
    }

    rep.metrics = svc.metrics();
    rep.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count();
    return rep;
}

ReplayReport
replayTrace(EvalService &svc, const std::vector<TraceRequest> &trace,
            double timeScale)
{
    ReplayOptions opts;
    opts.timeScale = timeScale;
    return replayTrace(svc, trace, opts);
}

} // namespace smart::serve
