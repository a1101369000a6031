/**
 * @file
 * Task scheduler: the parallel substrate under every batch, sweep and
 * serve workload. Pending tasks sit in one FIFO guarded by one mutex;
 * workers take the oldest. A thread joining a TaskGroup runs its own
 * group's newest queued task, or else the oldest, and sleeps only when
 * the queue is empty, so nested pFor calls (per-model -> per-layer)
 * complete even with every worker busy. The parallel work is coarse
 * (ILP layer schedules, grid and DSE points), so one lock per task
 * costs nothing measurable; work-stealing deques did not beat it.
 *
 * Contracts: results go by index (pFor callers write pre-sized slots,
 * so output is bit-identical whichever thread runs which chunk;
 * tests/test_parallel_equivalence.cc); width 1 spawns no threads and
 * runs every task inline, in spawn order; and the spawner's ambient
 * trace id (TraceRecorder::currentTrace()) follows the task.
 */

#ifndef SMART_COMMON_TASKGRAPH_HH
#define SMART_COMMON_TASKGRAPH_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "common/threadsafety.hh"
#include "common/tracespan.hh"

namespace smart
{

class TaskGroup;

/** The scheduler: worker threads over one mutex-guarded FIFO. */
class TaskScheduler
{
  public:
    /** Point-in-time counters (monotonic since start), for the bench. */
    struct Stats
    {
        std::uint64_t tasksRun = 0; //!< Tasks taken off the queue.
        std::uint64_t steals = 0; //!< Tasks run off their spawner's thread.
        std::uint64_t stealFailures = 0; //!< Always 0; smartbench reads it.
        std::size_t maxQueueDepth = 0; //!< Deepest the queue grew.
    };

    /** Spawn @p threads workers (values <= 1 mean fully serial). */
    explicit TaskScheduler(int threads);

    /** Joins the workers after draining already-spawned tasks. */
    ~TaskScheduler();

    TaskScheduler(const TaskScheduler &) = delete;
    TaskScheduler &operator=(const TaskScheduler &) = delete;

    /** Width (>= 1): the "threads" every JSON report carries. */
    int size() const { return width_; }

    /**
     * Run fn(i) for every i in [0, n), in chunk tasks, and join. The
     * first exception any fn(i) throws is rethrown here after the
     * remaining indices are abandoned.
     */
    template <typename Fn>
    void parallelFor(std::size_t n, Fn &&fn);

    /**
     * The process-wide scheduler, created on first use: SMART_THREADS
     * wide (clamped to [1, 256]), else hardware_concurrency() wide.
     */
    static TaskScheduler &global();

    /** The thread count global() uses (env parsing exposed for tests). */
    static int configuredThreads();

    Stats stats() const SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        return stats_;
    }

  private:
    friend class TaskGroup;

    struct Task
    {
        std::function<void()> fn;
        TaskGroup *group = nullptr;
        std::uint64_t traceId = 0; //!< Spawner's ambient trace id.
        std::thread::id spawner;
    };

    void spawn(std::function<void()> fn, TaskGroup &group)
        SMART_EXCLUDES(mu_);
    /** Run @p own's newest queued task, else the oldest; false if none. */
    bool helpWith(const TaskGroup &own) SMART_EXCLUDES(mu_);
    /** Remove the task at @p it from the queue and count it. */
    Task take(std::deque<Task>::iterator it) SMART_REQUIRES(mu_);
    void runTask(Task task);
    void workerLoop() SMART_EXCLUDES(mu_);

    int width_ = 1;
    mutable Mutex mu_;
    std::deque<Task> queue_ SMART_GUARDED_BY(mu_);
    std::condition_variable workCv_; //!< Idle workers wait here.
    bool stopping_ SMART_GUARDED_BY(mu_) = false;
    Stats stats_ SMART_GUARDED_BY(mu_);
    std::vector<std::thread> threads_; //!< Last: they use the above.
};

/**
 * A join scope over spawned tasks, used by the thread that owns it.
 * Groups nest (a task may open its own); wait() or the destructor
 * make sure no task outlives its group.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(TaskScheduler &sched = TaskScheduler::global())
        : sched_(sched)
    {
    }

    /** Waits for stragglers; a pending exception is dropped here. */
    ~TaskGroup() { help(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Spawn one task; at width 1 it runs now (errors still wait). */
    template <typename Fn>
    void run(Fn &&fn) SMART_EXCLUDES(mu_)
    {
        if (sched_.size() <= 1) {
            try {
                fn();
            } catch (...) {
                LockGuard lock(mu_);
                fail(std::current_exception());
            }
            return;
        }
        {
            LockGuard lock(mu_);
            ++pending_;
        }
        sched_.spawn(std::function<void()>(std::forward<Fn>(fn)), *this);
    }

    /** Join every task (helping), then rethrow the first error. */
    void wait() SMART_EXCLUDES(mu_)
    {
        help();
        std::exception_ptr e;
        {
            LockGuard lock(mu_);
            std::swap(e, error_);
            // memory_order: relaxed — error_ itself travels under mu_;
            // the flag is only the advisory poll behind failed().
            failed_.store(false, std::memory_order_relaxed);
        }
        if (e)
            std::rethrow_exception(e);
    }

    /** Has any child thrown? pFor chunks poll this to stop early. */
    bool failed() const
    {
        // memory_order: relaxed — see wait().
        return failed_.load(std::memory_order_relaxed);
    }

  private:
    friend class TaskScheduler;

    void help() SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        while (pending_ != 0) {
            lock.unlock();
            const bool ran = sched_.helpWith(*this);
            lock.lock();
            // Queue empty: the stragglers run on other threads. The last
            // finish() notifies under mu_, and we return only after
            // seeing pending_ == 0 under mu_, so no finisher can still
            // be touching this group once the owner destroys it.
            while (!ran && pending_ != 0)
                lock.wait(doneCv_);
        }
    }

    /** Keep the first child exception (later ones are dropped). */
    void fail(std::exception_ptr e) SMART_REQUIRES(mu_)
    {
        if (error_)
            return;
        error_ = std::move(e);
        // memory_order: relaxed — see wait().
        failed_.store(true, std::memory_order_relaxed);
    }

    /** One queued child retired (@p e set if it threw). */
    void finish(std::exception_ptr e) SMART_EXCLUDES(mu_)
    {
        LockGuard lock(mu_);
        if (e)
            fail(std::move(e));
        if (--pending_ == 0)
            doneCv_.notify_all();
    }

    TaskScheduler &sched_;
    Mutex mu_;
    std::size_t pending_ SMART_GUARDED_BY(mu_) = 0;
    std::exception_ptr error_ SMART_GUARDED_BY(mu_);
    std::condition_variable doneCv_; //!< The joiner sleeps here.
    std::atomic<bool> failed_{false};
};

template <typename Fn>
void
TaskScheduler::parallelFor(std::size_t n, Fn &&fn)
{
    if (n == 0)
        return;
    if (n == 1 || size() <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }
    // Oversubdivide so uneven chunk costs rebalance across threads,
    // but keep chunks >= 1 index so tiny ranges spawn n tasks at most.
    const std::size_t chunk = std::max<std::size_t>(
        1, n / (static_cast<std::size_t>(size()) * 8));
    TaskGroup group(*this);
    for (std::size_t lo = 0; lo < n; lo += chunk) {
        const std::size_t hi = std::min(n, lo + chunk);
        group.run([&fn, &group, lo, hi] {
            for (std::size_t i = lo; i < hi; ++i) {
                if (group.failed())
                    return; // abandon after a failure elsewhere
                fn(i);
            }
        });
    }
    group.wait();
}

/** pFor on the global scheduler (the substrate's workhorse verb). */
template <typename Fn>
void
pFor(std::size_t n, Fn &&fn)
{
    TaskScheduler::global().parallelFor(n, std::forward<Fn>(fn));
}

} // namespace smart

#endif // SMART_COMMON_TASKGRAPH_HH
