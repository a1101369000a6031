/**
 * @file
 * Task scheduler tests: parallelFor correctness on the work-stealing
 * substrate, exception propagation, nested parallelFor/submit from
 * worker threads, future-returning submit, SMART_THREADS parsing, and
 * the sharded memo cache with its per-shard entry cap.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/taskgraph.hh"

namespace
{

using namespace smart;

TEST(TaskScheduler, ParallelForCoversEveryIndexOnce)
{
    TaskScheduler sched(4);
    const std::size_t n = 1000;
    std::vector<int> hits(n, 0);
    sched.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(TaskScheduler, ParallelForResultsMatchSerial)
{
    TaskScheduler sched(4);
    const std::size_t n = 257;
    std::vector<double> serial(n), parallel(n);
    for (std::size_t i = 0; i < n; ++i)
        serial[i] = static_cast<double>(i) * 1.5 + 2.0;
    sched.parallelFor(n, [&](std::size_t i) {
        parallel[i] = static_cast<double>(i) * 1.5 + 2.0;
    });
    EXPECT_EQ(serial, parallel);
}

TEST(TaskScheduler, ParallelForZeroAndOne)
{
    TaskScheduler sched(2);
    int calls = 0;
    sched.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    sched.parallelFor(1, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 1);
}

TEST(TaskScheduler, ExceptionPropagatesToCaller)
{
    TaskScheduler sched(4);
    EXPECT_THROW(
        sched.parallelFor(100,
                          [&](std::size_t i) {
                              if (i == 37)
                                  throw std::runtime_error("boom");
                          }),
        std::runtime_error);
}

TEST(TaskScheduler, ExceptionAbandonsRemainingWork)
{
    TaskScheduler sched(2);
    std::atomic<int> done{0};
    try {
        sched.parallelFor(100000, [&](std::size_t) {
            done.fetch_add(1);
            throw std::runtime_error("first");
        });
        FAIL() << "expected a throw";
    } catch (const std::runtime_error &) {
    }
    // Chunks poll the group's failure flag: after the first throw, at
    // most the already-started chunks finish their current index.
    EXPECT_LT(done.load(), 100000);
}

TEST(TaskScheduler, SubmitReturnsValueThroughFuture)
{
    TaskScheduler sched(2);
    auto fut = sched.submit([]() { return 6 * 7; });
    EXPECT_EQ(fut.get(), 42);
}

TEST(TaskScheduler, SubmitPropagatesExceptionThroughFuture)
{
    TaskScheduler sched(2);
    auto fut = sched.submit(
        []() -> int { throw std::logic_error("bad"); });
    EXPECT_THROW(fut.get(), std::logic_error);
}

TEST(TaskScheduler, NestedSubmitFromWorkerCompletes)
{
    TaskScheduler sched(2);
    auto outer = sched.submit([&]() {
        EXPECT_TRUE(sched.onWorkerThread());
        // A nested submit must not deadlock even with every other
        // worker busy: the waiting worker helps (drains the task it
        // just spawned — or anything else pending) instead of
        // blocking the lane.
        auto inner = sched.submit([&]() {
            EXPECT_TRUE(sched.onWorkerThread());
            return 99;
        });
        while (inner.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready)
            sched.helpOne();
        return inner.get() + 1;
    });
    EXPECT_EQ(outer.get(), 100);
}

TEST(TaskScheduler, NestedParallelForRunsAsStealableTasks)
{
    // The fixed-wave pool ran nested parallelFor serially to avoid
    // deadlock; the work-stealing scheduler runs inner chunks as
    // first-class tasks (LIFO on the spawning worker, stealable by
    // idle ones). The observable contract is unchanged: every cell
    // written exactly once.
    TaskScheduler sched(4);
    std::vector<std::vector<int>> grid(8, std::vector<int>(8, 0));
    sched.parallelFor(8, [&](std::size_t i) {
        sched.parallelFor(8, [&](std::size_t j) { grid[i][j] += 1; });
    });
    for (const auto &row : grid)
        for (int v : row)
            EXPECT_EQ(v, 1);
}

TEST(TaskScheduler, CountersSeeTasksAndSteals)
{
    TaskScheduler sched(4);
    std::atomic<int> sink{0};
    // Rooted on a worker via submit().get(): an external joiner helps
    // through the injection queue and on a small host can drain every
    // chunk itself without any deque (or its depth counter) being
    // touched.
    for (int round = 0; round < 8; ++round)
        sched.submit([&] {
                 sched.parallelFor(256, [&](std::size_t) {
                     sink.fetch_add(1, std::memory_order_relaxed);
                 });
             })
            .get();
    const auto s = sched.stats();
    EXPECT_GT(s.tasksRun, 0u);
    EXPECT_GT(s.maxDequeDepth, 0u);
    // Steal counters are workload-dependent (a one-core host may
    // finish chunks before anyone wakes to steal), so only their
    // consistency is asserted here; the taskgraph stress suite
    // exercises forced-steal storms.
    EXPECT_GE(s.steals + s.stealFailures, 0u);
}

TEST(TaskScheduler, ConfiguredThreadsParsesEnv)
{
    const char *old = std::getenv("SMART_THREADS");
    std::string saved = old ? old : "";

    setenv("SMART_THREADS", "7", 1);
    EXPECT_EQ(TaskScheduler::configuredThreads(), 7);
    setenv("SMART_THREADS", "1", 1);
    EXPECT_EQ(TaskScheduler::configuredThreads(), 1);
    setenv("SMART_THREADS", "bogus", 1);
    EXPECT_GE(TaskScheduler::configuredThreads(), 1);

    if (old)
        setenv("SMART_THREADS", saved.c_str(), 1);
    else
        unsetenv("SMART_THREADS");
}

TEST(ShardedCache, ComputesOncePerKey)
{
    ShardedCache<int> cache;
    std::atomic<int> computes{0};
    auto make = [&]() {
        computes.fetch_add(1);
        return 5;
    };
    EXPECT_EQ(cache.getOrCompute("k", make), 5);
    EXPECT_EQ(cache.getOrCompute("k", make), 5);
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.getOrCompute("k", make), 5);
    EXPECT_EQ(computes.load(), 2);
    // Every miss counts, and clear() does not lower the count.
    EXPECT_EQ(cache.inserts(), 2u);
}

TEST(ShardedCache, ThrowDropsEntryAndRetries)
{
    ShardedCache<int> cache;
    EXPECT_THROW(cache.getOrCompute(
                     "k", []() -> int { throw std::runtime_error("x"); }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.getOrCompute("k", []() { return 7; }), 7);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedCache, ConcurrentCallersShareOneCompute)
{
    // Whichever caller misses computes; the others wait on its result.
    ShardedCache<int> cache;
    std::atomic<int> computes{0};
    auto make = [&]() {
        computes.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 9;
    };
    std::vector<std::thread> threads;
    std::vector<int> got(4, 0);
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back(
            [&, t]() { got[t] = cache.getOrCompute("k", make); });
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computes.load(), 1);
    for (int v : got)
        EXPECT_EQ(v, 9);
}

TEST(ShardedCache, ConcurrentMixedKeysAgree)
{
    ShardedCache<std::size_t> cache;
    TaskScheduler sched(4);
    std::vector<std::size_t> got(512);
    sched.parallelFor(got.size(), [&](std::size_t i) {
        const std::string key = "key" + std::to_string(i % 32);
        got[i] = cache.getOrCompute(key, [&]() { return (i % 32) * 10; });
    });
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], (i % 32) * 10);
    EXPECT_EQ(cache.size(), 32u);
}

TEST(ShardedCache, EntryCapHoldsUnderManyDistinctKeys)
{
    using Cache = ShardedCache<std::size_t>;
    Cache cache;
    const std::size_t keys = 3 * Cache::kMaxEntries;
    for (std::size_t i = 0; i < keys; ++i) {
        EXPECT_EQ(cache.getOrCompute("key" + std::to_string(i),
                                     [&]() { return i * 3; }),
                  i * 3);
        ASSERT_LE(cache.size(), Cache::kMaxEntries) << "after " << i;
    }
    // Every key past the cap displaced exactly one resident entry, so
    // the size is flat while inserts() still counts every miss.
    EXPECT_EQ(cache.size() + cache.evictions(), keys);
    EXPECT_GT(cache.evictions(), 0u);
    EXPECT_EQ(cache.inserts(), keys);
    // An evicted key is simply recomputed, to the same value.
    std::atomic<int> recomputes{0};
    for (std::size_t i = 0; i < keys; i += 97)
        EXPECT_EQ(cache.getOrCompute("key" + std::to_string(i),
                                     [&]() {
                                         recomputes.fetch_add(1);
                                         return i * 3;
                                     }),
                  i * 3);
    EXPECT_GT(recomputes.load(), 0);
    EXPECT_EQ(cache.inserts(),
              keys + static_cast<std::size_t>(recomputes.load()));
    EXPECT_LE(cache.size(), Cache::kMaxEntries);
}

TEST(ShardedCache, ConcurrentCallersShareOneComputeUnderEviction)
{
    // Waiters join one slow in-flight key, then enough distinct keys
    // churn through the cache to evict it (and everything else) while
    // it is still computing. Every waiter already holds the shared
    // future, so the key is still computed once and every caller sees
    // its value.
    using Cache = ShardedCache<std::size_t>;
    Cache cache;
    std::atomic<int> computes{0};
    std::atomic<bool> started{false}, release{false};
    auto make = [&]() -> std::size_t {
        computes.fetch_add(1);
        started.store(true);
        while (!release.load())
            std::this_thread::yield();
        return 42;
    };
    std::vector<std::size_t> got(4, 0);
    std::vector<std::thread> threads;
    threads.emplace_back(
        [&]() { got[0] = cache.getOrCompute("slow", make); });
    while (!started.load())
        std::this_thread::yield();
    for (std::size_t t = 1; t < got.size(); ++t)
        threads.emplace_back(
            [&, t]() { got[t] = cache.getOrCompute("slow", make); });
    // Let the waiters reach the shared future before the churn.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    const std::size_t churn = 8 * Cache::kMaxEntries;
    TaskScheduler sched(4);
    sched.parallelFor(churn, [&](std::size_t i) {
        EXPECT_EQ(cache.getOrCompute("churn" + std::to_string(i),
                                     [&]() { return i; }),
                  i);
    });
    EXPECT_LE(cache.size(), Cache::kMaxEntries);
    EXPECT_EQ(cache.size() + cache.evictions(), churn + 1);

    release.store(true);
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(computes.load(), 1);
    for (std::size_t v : got)
        EXPECT_EQ(v, 42u);
}

} // namespace
