/**
 * @file
 * TaskScheduler internals. The queue and the counters sit under the
 * one scheduler mutex; a task runs with no lock held.
 */

#include "common/taskgraph.hh"

#include <cstdlib>
#include <iterator>

#include "common/logging.hh"

namespace smart
{

TaskScheduler::TaskScheduler(int threads) : width_(std::max(1, threads))
{
    // Width 1 is fully serial: no workers, every task runs inline.
    for (int i = 0; width_ > 1 && i < width_; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

TaskScheduler::~TaskScheduler()
{
    {
        LockGuard lock(mu_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
TaskScheduler::spawn(std::function<void()> fn, TaskGroup &group)
{
    {
        LockGuard lock(mu_);
        queue_.push_back(Task{std::move(fn), &group,
                              TraceRecorder::currentTrace(),
                              std::this_thread::get_id()});
        stats_.maxQueueDepth =
            std::max(stats_.maxQueueDepth, queue_.size());
    }
    workCv_.notify_one();
}

TaskScheduler::Task
TaskScheduler::take(std::deque<Task>::iterator it)
{
    Task task = std::move(*it);
    queue_.erase(it);
    ++stats_.tasksRun;
    stats_.steals += task.spawner != std::this_thread::get_id();
    return task;
}

void
TaskScheduler::runTask(Task task)
{
    // The spawner's ambient trace id travels with the task.
    TraceRecorder::TraceScope trace(task.traceId);
    std::exception_ptr error;
    try {
        task.fn();
    } catch (...) {
        error = std::current_exception();
    }
    // Free the closure before the joiner can see the task retired.
    task.fn = nullptr;
    task.group->finish(std::move(error));
}

bool
TaskScheduler::helpWith(const TaskGroup &own)
{
    LockGuard lock(mu_);
    if (queue_.empty())
        return false;
    // Own newest first: depth-first through this joiner's own work.
    auto own_it = std::find_if(queue_.rbegin(), queue_.rend(),
                               [&](const Task &t) {
                                   return t.group == &own;
                               });
    Task task = take(own_it != queue_.rend() ? std::prev(own_it.base())
                                             : queue_.begin());
    lock.unlock();
    runTask(std::move(task));
    return true;
}

void
TaskScheduler::workerLoop()
{
    LockGuard lock(mu_);
    for (;;) {
        while (queue_.empty() && !stopping_)
            lock.wait(workCv_);
        if (queue_.empty())
            return; // stopping, and every spawned task ran
        Task task = take(queue_.begin());
        lock.unlock();
        runTask(std::move(task));
        lock.lock();
    }
}

int
TaskScheduler::configuredThreads()
{
    if (const char *env = std::getenv("SMART_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<int>(std::min<long>(v, 256));
        smart_warn("ignoring invalid SMART_THREADS='", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

TaskScheduler &
TaskScheduler::global()
{
    static TaskScheduler sched(configuredThreads());
    return sched;
}

} // namespace smart
