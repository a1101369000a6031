/**
 * @file
 * Bounded, priority-ordered request queue with admission control — the
 * buffer between client submissions and the dispatcher's evaluation
 * waves. Entries are held sorted by (priority desc, submission order),
 * deadlines are swept at pop time, and a configurable policy decides
 * what happens when the queue is full: reject the newcomer or shed a
 * queued entry. push() never waits. Thread-safe; admitted entries are
 * never silently dropped — every push/pop outcome surfaces the
 * affected entry so the service can resolve its promise.
 *
 * Multi-tenant fairness: the request tag doubles as a tenant label.
 * An optional per-tenant depth quota (QueueConfig::maxPerTenant) caps
 * how much of the queue one bursty tenant may occupy, and shed-victim
 * selection prefers the most-queued tenant among the lowest-priority
 * entries, so a light tenant's equal-priority request can displace a
 * flooding tenant's instead of being starved.
 */

#ifndef SMART_SERVE_QUEUE_HH
#define SMART_SERVE_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/threadsafety.hh"
#include "serve/request.hh"

namespace smart::serve
{

/** What a full queue does with a new submission. */
enum class AdmissionPolicy
{
    Reject, //!< Refuse the newcomer (RejectedFull).
    Shed    //!< Evict the lowest-priority queued entry if the newcomer
            //!< outranks it; otherwise refuse the newcomer.
};

/** Queue shape and admission behavior. */
struct QueueConfig
{
    std::size_t maxDepth = 64;
    AdmissionPolicy policy = AdmissionPolicy::Reject;
    /**
     * Per-tenant (EvalRequest::tag) cap on queued entries; 0 disables
     * the quota. A push that would take a tenant past its quota is
     * refused with RejectedQuota, independent of total depth — one
     * bursty tenant can then never fill the queue.
     */
    std::size_t maxPerTenant = 0;
};

/** One queued request: the client's request plus service bookkeeping. */
struct Pending
{
    EvalRequest req;
    std::promise<EvalResponse> promise;
    std::uint64_t seq = 0; //!< Submission order (FIFO within priority).
    std::chrono::steady_clock::time_point submitTime;
    /** Absolute queue deadline; time_point::max() when none. */
    std::chrono::steady_clock::time_point deadline;
    /**
     * accel::requestDigest of the canonical request key; filled at
     * dispatch, not submit.
     */
    std::uint64_t digest = 0;
    /**
     * Graceful degradation: serve through the greedy (anytime)
     * scheduler instead of the ILP. Set at submit (degradePolicy Auto's
     * hopeless rescue); read by the dispatcher when building the wave.
     */
    bool degrade = false;
    /**
     * TraceRecorder id when this request is sampled, 0 otherwise.
     * Carried through the queue so the dispatcher can close the
     * cross-thread queue_wait span and tag downstream work.
     */
    std::uint64_t traceId = 0;
};

class RequestQueue
{
  public:
    explicit RequestQueue(QueueConfig cfg);

    /** push() outcome; shed carries the evicted entry, if any. */
    struct PushResult
    {
        Admission admission = Admission::Admitted;
        std::optional<Pending> shed;
    };

    /**
     * Admit @p p under the configured policy, without waiting; the
     * returned shed entry, when present, must have its promise
     * resolved by the caller.
     */
    PushResult push(Pending &&p);

    /** popWave() result: dispatchable entries + deadline casualties. */
    struct Wave
    {
        std::vector<Pending> items;
        std::vector<Pending> expired;
    };

    /**
     * Block until the queue has work (or is closed and empty), then
     * collect up to @p maxWave entries in priority order. With a
     * nonzero @p linger and fewer than maxWave entries queued, waits
     * up to that long for more arrivals before popping, so bursts
     * coalesce into fuller waves; the wait also wakes at the earliest
     * pending deadline, so an expiring entry resolves Expired promptly
     * instead of sitting out the full linger. Entries whose deadline
     * has passed are returned in Wave::expired instead. An empty wave
     * (both vectors) means the queue is closed and drained.
     */
    Wave popWave(std::size_t maxWave, std::chrono::milliseconds linger);

    /**
     * Stop admitting: subsequent pushes return RejectedClosed, and
     * poppers drain what remains.
     */
    void close();

    /** True once close() has been called. */
    bool closed() const;

    /** Current number of queued entries. */
    std::size_t depth() const;

    /** Maximum depth ever observed. */
    std::size_t highWater() const;

    /** Queued entries for one tenant tag (tests and fairness probes). */
    std::size_t tenantDepth(const std::string &tag) const;

  private:
    /** Insert preserving (priority desc, seq asc) order. */
    void insertSorted(Pending &&p) SMART_REQUIRES(mu_);
    /** Queued-entry count for @p tag. */
    std::size_t queuedFor(const std::string &tag) const
        SMART_REQUIRES(mu_);
    /** Register @p p's tenant count and deadline. */
    void track(const Pending &p) SMART_REQUIRES(mu_);
    /** Undo track() as @p p leaves the queue. */
    void untrack(const Pending &p) SMART_REQUIRES(mu_);
    /**
     * Index of the entry a full-queue Shed push should evict for
     * @p newcomer: among the lowest-priority entries, the most-queued
     * tenant's newest. Returns q_.size() when no entry is sheddable
     * (the newcomer neither outranks the victim's priority nor comes
     * from a strictly lighter tenant).
     */
    std::size_t shedVictimFor(const Pending &newcomer) const
        SMART_REQUIRES(mu_);

    QueueConfig cfg_;
    mutable Mutex mu_;
    std::condition_variable workCv_;  //!< Signaled on push/close.
    std::vector<Pending> q_ SMART_GUARDED_BY(mu_);
    /** Queued entries per tenant tag (erased at zero). */
    std::unordered_map<std::string, std::size_t>
        tenants_ SMART_GUARDED_BY(mu_);
    /**
     * Finite deadlines of queued entries, ordered. Lets popWave skip
     * the O(depth) expiry scan entirely unless the earliest pending
     * deadline has actually passed, and gives the linger wait its
     * wake-up time.
     */
    std::multiset<std::chrono::steady_clock::time_point>
        deadlines_ SMART_GUARDED_BY(mu_);
    std::size_t highWater_ SMART_GUARDED_BY(mu_) = 0;
    bool closed_ SMART_GUARDED_BY(mu_) = false;
};

} // namespace smart::serve

#endif // SMART_SERVE_QUEUE_HH
