#include "serve/queue.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/tracespan.hh"

namespace smart::serve
{

namespace
{
constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();
} // namespace

RequestQueue::RequestQueue(QueueConfig cfg) : cfg_(cfg)
{
    smart_assert(cfg_.maxDepth > 0, "queue depth must be positive");
}

void
RequestQueue::insertSorted(Pending &&p)
{
    // Highest priority first; FIFO (ascending seq) within a priority.
    auto pos = std::upper_bound(
        q_.begin(), q_.end(), p, [](const Pending &a, const Pending &b) {
            if (a.req.priority != b.req.priority)
                return a.req.priority > b.req.priority;
            return a.seq < b.seq;
        });
    q_.insert(pos, std::move(p));
    highWater_ = std::max(highWater_, q_.size());
}

std::size_t
RequestQueue::queuedFor(const std::string &tag) const
{
    auto it = tenants_.find(tag);
    return it == tenants_.end() ? 0 : it->second;
}

void
RequestQueue::track(const Pending &p)
{
    ++tenants_[p.req.tag];
    if (p.deadline != kNoDeadline)
        deadlines_.insert(p.deadline);
}

void
RequestQueue::untrack(const Pending &p)
{
    auto it = tenants_.find(p.req.tag);
    smart_assert(it != tenants_.end() && it->second > 0,
                 "untracked tenant leaving the queue");
    if (--it->second == 0)
        tenants_.erase(it);
    if (p.deadline != kNoDeadline)
        deadlines_.erase(deadlines_.find(p.deadline));
}

std::size_t
RequestQueue::shedVictimFor(const Pending &newcomer) const
{
    if (q_.empty())
        return q_.size();
    // Candidates are the lowest-priority class: the contiguous tail of
    // the (priority desc, seq asc) ordering. The backward scan visits
    // newest-first, so requiring a strictly greater tenant load to
    // switch lands on the newest entry of the most-queued tenant.
    const Priority lowest = q_.back().req.priority;
    std::size_t victim = q_.size();
    std::size_t victimLoad = 0;
    for (std::size_t i = q_.size(); i-- > 0;) {
        if (q_[i].req.priority != lowest)
            break;
        const std::size_t load = queuedFor(q_[i].req.tag);
        if (victim == q_.size() || load > victimLoad) {
            victim = i;
            victimLoad = load;
        }
    }
    // Sheddable when the newcomer strictly outranks the victim, or —
    // the fairness rule — matches its priority while its tenant is at
    // least two entries lighter than the victim's, so displacing
    // strictly reduces the imbalance (victim drops to load-1, the
    // newcomer's tenant rises to load+1). The priority match keeps
    // fairness from inverting priorities (Low spam from an idle
    // tenant must never displace queued Normal/High work); the
    // two-entry margin keeps unique-tag traffic (every tenant at
    // load 1) stable instead of churning admitted work, and makes
    // same-tenant displacement impossible.
    if (newcomer.req.priority > q_[victim].req.priority ||
        (newcomer.req.priority == q_[victim].req.priority &&
         victimLoad > queuedFor(newcomer.req.tag) + 1))
        return victim;
    return q_.size();
}

RequestQueue::PushResult
RequestQueue::push(Pending &&p)
{
    LockGuard lock(mu_);
    if (closed_)
        return {Admission::RejectedClosed, std::nullopt};
    if (cfg_.maxPerTenant > 0 && queuedFor(p.req.tag) >= cfg_.maxPerTenant)
        return {Admission::RejectedQuota, std::nullopt};

    PushResult res;
    if (q_.size() >= cfg_.maxDepth) {
        if (cfg_.policy != AdmissionPolicy::Shed)
            return {Admission::RejectedFull, std::nullopt};
        const std::size_t v = shedVictimFor(p);
        if (v >= q_.size())
            return {Admission::RejectedFull, std::nullopt};
        untrack(q_[v]);
        res.shed = std::move(q_[v]);
        q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(v));
    }
    track(p);
    insertSorted(std::move(p));
    lock.unlock();
    workCv_.notify_one();
    return res;
}

RequestQueue::Wave
RequestQueue::popWave(std::size_t maxWave, std::chrono::milliseconds linger)
{
    smart_assert(maxWave > 0, "wave size must be positive");
    Wave wave;
    LockGuard lock(mu_);
    while (true) {
        while (!closed_ && q_.empty())
            lock.wait(workCv_);
        if (q_.empty())
            return wave; // closed and drained

        if (linger.count() > 0 && q_.size() < maxWave && !closed_) {
            // Linger for a fuller wave, but never past the earliest
            // pending deadline: an expiring entry must resolve
            // Expired promptly, not after the full linger. The wake
            // time is recomputed after every wakeup, so a
            // deadline-bearing request pushed mid-linger shortens
            // the wait too.
            const auto lingerEnd =
                std::chrono::steady_clock::now() + linger;
            while (!closed_ && q_.size() < maxWave) {
                auto until = lingerEnd;
                if (!deadlines_.empty())
                    until = std::min(until, *deadlines_.begin());
                if (lock.waitUntil(workCv_, until) ==
                    std::cv_status::timeout)
                    break; // linger over, or a deadline just passed
            }
        }

        // Deadline sweep: expired entries never reach a wave. Skipped
        // outright unless the earliest pending deadline has actually
        // passed, so a deep deadline-free queue pays O(1) here, not an
        // O(depth) scan per wave.
        const auto now = std::chrono::steady_clock::now();
        if (!deadlines_.empty() && *deadlines_.begin() <= now) {
            for (auto it = q_.begin(); it != q_.end();) {
                if (it->deadline <= now) {
                    untrack(*it);
                    wave.expired.push_back(std::move(*it));
                    it = q_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        if (q_.empty() && wave.expired.empty())
            continue; // defensive: nothing dispatchable, re-wait
        break;
    }

    const std::size_t n = std::min(maxWave, q_.size());
    wave.items.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        untrack(q_[i]);
        wave.items.push_back(std::move(q_[i]));
    }
    q_.erase(q_.begin(), q_.begin() + static_cast<std::ptrdiff_t>(n));
    lock.unlock();

    // Close the cross-thread queue_wait span for every sampled entry
    // leaving the queue (dispatched or expired): the submitter stamped
    // submitTime, this thread stamps the close. Outside the lock, and
    // free for untraced entries (traceId 0 no-ops inside the recorder).
    auto &rec = TraceRecorder::global();
    const auto toNs = [](std::chrono::steady_clock::time_point t) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                t.time_since_epoch())
                .count());
    };
    const std::uint64_t nowNs = TraceRecorder::nowNs();
    for (const Pending &p : wave.items)
        rec.recordSpan(p.traceId, "queue_wait", toNs(p.submitTime),
                       nowNs);
    for (const Pending &p : wave.expired)
        rec.recordSpan(p.traceId, "queue_wait", toNs(p.submitTime),
                       nowNs);
    return wave;
}

void
RequestQueue::close()
{
    {
        LockGuard lock(mu_);
        closed_ = true;
    }
    workCv_.notify_all();
}

bool
RequestQueue::closed() const
{
    LockGuard lock(mu_);
    return closed_;
}

std::size_t
RequestQueue::depth() const
{
    LockGuard lock(mu_);
    return q_.size();
}

std::size_t
RequestQueue::highWater() const
{
    LockGuard lock(mu_);
    return highWater_;
}

std::size_t
RequestQueue::tenantDepth(const std::string &tag) const
{
    LockGuard lock(mu_);
    return queuedFor(tag);
}

} // namespace smart::serve
