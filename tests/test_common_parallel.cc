/**
 * @file
 * Task scheduler tests: parallelFor correctness on the work-stealing
 * substrate, exception propagation, nested parallelFor/submit from
 * worker threads, future-returning submit, SMART_THREADS parsing, and
 * the sharded memo cache.
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

LruCache<int>::Config
singleShard(std::size_t maxEntries, std::size_t maxBytes = 0)
{
    LruCache<int>::Config cfg;
    cfg.maxEntries = maxEntries;
    cfg.maxBytes = maxBytes;
    cfg.shards = 1; // one exact LRU order for determinism
    return cfg;
}

TEST(LruCache, EvictsLeastRecentlyUsedFirst)
{
    LruCache<int> cache(singleShard(/*maxEntries=*/3));
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3);

    // Touch "a" so "b" becomes the LRU victim of the next insert.
    int v = 0;
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_EQ(v, 1);
    cache.put("d", 4);

    EXPECT_FALSE(cache.get("b", v)); // evicted, not wiped with others
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_TRUE(cache.get("c", v));
    EXPECT_TRUE(cache.get("d", v));
    EXPECT_EQ(cache.size(), 3u);

    const auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.insertions, 4u);
    EXPECT_EQ(s.entries, 3u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 4u);
}

TEST(LruCache, RefreshingAKeyUpdatesValueAndRecency)
{
    LruCache<int> cache(singleShard(2));
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("a", 10); // refresh: "b" is now the LRU
    cache.put("c", 3);

    int v = 0;
    EXPECT_FALSE(cache.get("b", v));
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_EQ(v, 10);
    EXPECT_EQ(cache.stats().insertions, 3u); // refresh is not an insert
}

TEST(LruCache, ByteBudgetIsAccountedAndEnforced)
{
    // Values report 100 bytes each; keys are 1 byte. With a budget of
    // three entries' worth, the fourth insert evicts exactly one.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.valueBytes = [](const int &) { return std::size_t{100}; };
    LruCache<int> probe(cfg);
    probe.put("k", 7);
    const std::size_t per_entry = probe.stats().bytes;
    ASSERT_GT(per_entry, 100u); // key + value + node overhead

    cfg.maxBytes = 3 * per_entry;
    LruCache<int> cache(cfg);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_EQ(cache.stats().bytes, 3 * per_entry);

    cache.put("d", 4);
    const auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1u);
    EXPECT_EQ(s.entries, 3u);
    EXPECT_LE(s.bytes, cfg.maxBytes);
    int v = 0;
    EXPECT_FALSE(cache.get("a", v)); // oldest went first
    EXPECT_TRUE(cache.get("d", v));
}

TEST(LruCache, OversizedEntryIsRefusedWithoutFlushingTheShard)
{
    // Values self-report their size, so one "huge" value exceeds the
    // whole shard byte budget while the small ones fit comfortably.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.maxBytes = 2048;
    cfg.valueBytes = [](const int &v) {
        return v < 0 ? std::size_t{4096} : std::size_t{16};
    };
    LruCache<int> cache(cfg);
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("huge", -1); // refused up front, counted as an eviction
    int v = 0;
    EXPECT_FALSE(cache.get("huge", v));
    EXPECT_EQ(cache.stats().evictions, 1u);
    // The resident working set survives the oversized put.
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_EQ(cache.stats().entries, 2u);

    // Refreshing an existing key with an oversized value drops that
    // entry (stale data must not survive) but nothing else.
    cache.put("a", -1);
    EXPECT_FALSE(cache.get("a", v));
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(LruCache, ClearDropsEntriesButKeepsCounters)
{
    LruCache<int> cache(singleShard(8));
    cache.put("a", 1);
    cache.put("b", 2);
    int v = 0;
    EXPECT_TRUE(cache.get("a", v));
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().bytes, 0u);
    EXPECT_FALSE(cache.get("a", v));
    const auto s = cache.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.insertions, 2u);
}

TEST(LruCache, SmallByteBudgetStillCachesByShrinkingShardCount)
{
    // 4 KiB over the default 16 shards would leave per-shard slices
    // smaller than a single entry; the shard count must shrink so the
    // cache keeps working instead of refusing every insert.
    LruCache<int>::Config cfg;
    cfg.maxBytes = 4096;
    cfg.shards = 16;
    cfg.valueBytes = [](const int &) { return std::size_t{16}; };
    LruCache<int> cache(cfg);
    cache.put("a", 1);
    cache.put("b", 2);
    int v = 0;
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_GE(cache.stats().entries, 2u);
    EXPECT_LE(cache.stats().bytes, 4096u);
}

TEST(LruCache, EntryBudgetHoldsWithMoreShardsThanEntries)
{
    // A tiny entry budget under the default 16-way sharding: the
    // shard count is clamped and budgets floored, so the global bound
    // holds no matter how the keys hash.
    LruCache<int>::Config cfg;
    cfg.maxEntries = 4;
    cfg.shards = 16;
    LruCache<int> cache(cfg);
    for (int i = 0; i < 64; ++i)
        cache.put("k" + std::to_string(i), i);
    EXPECT_LE(cache.stats().entries, 4u);
    EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(LruCache, ShardedConcurrentPutsStayWithinBudget)
{
    LruCache<std::size_t>::Config cfg;
    cfg.maxEntries = 64;
    cfg.shards = 8;
    LruCache<std::size_t> cache(cfg);
    TaskScheduler sched(4);
    sched.parallelFor(512, [&](std::size_t i) {
        cache.put("key" + std::to_string(i % 128), i);
        std::size_t v = 0;
        cache.get("key" + std::to_string(i % 128), v);
    });
    const auto s = cache.stats();
    // Per-shard budgets: never more than ceil(64/8) entries per shard.
    EXPECT_LE(s.entries, 64u);
    EXPECT_GT(s.evictions, 0u);
    EXPECT_GT(s.hits, 0u);
}

LruCache<int>::Config
taggedSingleShard(std::size_t tagBytes)
{
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.tagBytes = tagBytes;
    cfg.valueBytes = [](const int &) { return std::size_t{100}; };
    return cfg;
}

/** Accounted bytes of one 1-char-key, 100-byte-value entry. */
std::size_t
taggedEntryBytes()
{
    LruCache<int> probe(taggedSingleShard(0));
    probe.put("k", 7, "t");
    return probe.stats().bytes;
}

TEST(LruCache, TagBudgetEvictsOwnTenantFirst)
{
    // hog's budget holds two entries; its third insert must evict
    // hog's own LRU entry and leave mouse's untouched, even though
    // the global budgets are nowhere near exceeded.
    const std::size_t per = taggedEntryBytes();
    LruCache<int> cache(taggedSingleShard(2 * per));
    cache.put("a", 1, "hog");
    cache.put("b", 2, "hog");
    cache.put("m", 3, "mouse");
    cache.put("c", 4, "hog");

    int v = 0;
    EXPECT_FALSE(cache.get("a", v)); // hog's oldest paid for hog
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_TRUE(cache.get("c", v));
    EXPECT_TRUE(cache.get("m", v)); // mouse never disturbed

    const auto s = cache.stats();
    ASSERT_EQ(s.tags.count("hog"), 1u);
    ASSERT_EQ(s.tags.count("mouse"), 1u);
    EXPECT_EQ(s.tags.at("hog").evictions, 1u);
    EXPECT_EQ(s.tags.at("hog").entries, 2u);
    EXPECT_LE(s.tags.at("hog").bytes, 2 * per);
    EXPECT_EQ(s.tags.at("mouse").evictions, 0u);
    EXPECT_EQ(s.tags.at("mouse").entries, 1u);
}

TEST(LruCache, TagEvictionFollowsTagRecencyNotInsertOrder)
{
    const std::size_t per = taggedEntryBytes();
    LruCache<int> cache(taggedSingleShard(2 * per));
    cache.put("a", 1, "hog");
    cache.put("b", 2, "hog");
    int v = 0;
    EXPECT_TRUE(cache.get("a", v)); // "b" is now hog's LRU
    cache.put("c", 3, "hog");
    EXPECT_FALSE(cache.get("b", v));
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_TRUE(cache.get("c", v));
}

TEST(LruCache, UntaggedPutsIgnoreTagBudget)
{
    const std::size_t per = taggedEntryBytes();
    LruCache<int> cache(taggedSingleShard(per)); // one entry per tag
    cache.put("a", 1);
    cache.put("b", 2);
    cache.put("c", 3);
    int v = 0;
    EXPECT_TRUE(cache.get("a", v));
    EXPECT_TRUE(cache.get("b", v));
    EXPECT_TRUE(cache.get("c", v));
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_TRUE(cache.stats().tags.empty());
}

TEST(LruCache, EntryOversizedForTenantBudgetIsRefused)
{
    // A value larger than the whole tenant slice (but well under the
    // global budget) must be refused up front — letting it through
    // would immediately flush the rest of the tenant's entries.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.maxBytes = 1 << 20;
    cfg.tagBytes = 2048;
    cfg.valueBytes = [](const int &x) {
        return x < 0 ? std::size_t{4096} : std::size_t{16};
    };
    LruCache<int> cache(cfg);
    cache.put("a", 1, "hog");
    cache.put("huge", -1, "hog");
    int v = 0;
    EXPECT_FALSE(cache.get("huge", v));
    EXPECT_TRUE(cache.get("a", v)); // resident set survives
    const auto s = cache.stats();
    EXPECT_EQ(s.tags.at("hog").evictions, 1u);
    EXPECT_EQ(s.tags.at("hog").entries, 1u);
}

TEST(LruCache, RefreshMovesEntryBetweenTenants)
{
    const std::size_t per = taggedEntryBytes();
    LruCache<int> cache(taggedSingleShard(4 * per));
    cache.put("k", 1, "hog");
    cache.put("k", 2, "mouse"); // ownership follows the last writer
    const auto s = cache.stats();
    // hog's row (no entries, no evictions) is dropped outright.
    EXPECT_EQ(s.tags.count("hog"), 0u);
    EXPECT_EQ(s.tags.at("mouse").entries, 1u);
    EXPECT_GT(s.tags.at("mouse").bytes, 0u);
    int v = 0;
    EXPECT_TRUE(cache.get("k", v));
    EXPECT_EQ(v, 2);
}

TEST(LruCache, OwnershipTransferWithSizeChangeRebalancesByteAccounts)
{
    // Regression for per-tag byte accounting on overwrite: one put()
    // that both transfers ownership to a different tenant AND changes
    // the value size must debit the old tag by the OLD bytes and
    // credit the new tag with the NEW bytes, atomically — a mismatch
    // on either side would let repeated cross-tenant refreshes drift
    // a tag's accounted bytes away from its resident set and quietly
    // corrupt budget enforcement.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.tagBytes = 4096;
    cfg.valueBytes = [](const int &v) {
        return v < 0 ? std::size_t{300} : std::size_t{100};
    };
    LruCache<int> cache(cfg);

    cache.put("k", 1, "a"); // 100-byte value owned by "a"
    const auto s1 = cache.stats();
    ASSERT_EQ(s1.tags.at("a").entries, 1u);
    const std::size_t smallBytes = s1.tags.at("a").bytes;
    ASSERT_EQ(s1.bytes, smallBytes); // only entry: tag == global

    cache.put("k", -1, "b"); // 300-byte value, new owner, one put
    const auto s2 = cache.stats();
    // Old tag fully debited (row dropped: no entries, no evictions).
    EXPECT_EQ(s2.tags.count("a"), 0u);
    // New tag credited with the NEW size, not the old one.
    ASSERT_EQ(s2.tags.count("b"), 1u);
    EXPECT_EQ(s2.tags.at("b").entries, 1u);
    EXPECT_EQ(s2.tags.at("b").bytes, smallBytes + 200);
    // Global bytes track the same change, and entry count is stable.
    EXPECT_EQ(s2.bytes, smallBytes + 200);
    EXPECT_EQ(s2.entries, 1u);
    EXPECT_EQ(s2.evictions, 0u);

    // Shrinking refresh within one tag debits the difference.
    cache.put("k", 2, "b");
    const auto s3 = cache.stats();
    EXPECT_EQ(s3.tags.at("b").bytes, smallBytes);
    EXPECT_EQ(s3.bytes, smallBytes);

    // Transfer to untagged: the tag side empties, global holds.
    cache.put("k", -2, std::string());
    const auto s4 = cache.stats();
    EXPECT_EQ(s4.tags.count("b"), 0u);
    EXPECT_EQ(s4.bytes, smallBytes + 200);
    EXPECT_EQ(s4.entries, 1u);
    int v = 0;
    EXPECT_TRUE(cache.get("k", v));
    EXPECT_EQ(v, -2);
}

TEST(LruCache, OwnershipTransferCannotOverflowNewTenantBudget)
{
    // The transferring put() must enforce the NEW tenant's budget
    // after the credit: if the adopted entry pushes the new owner
    // over its slice, the new owner's own LRU tail pays — never the
    // old owner, whose account was already settled.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.valueBytes = [](const int &) { return std::size_t{100}; };
    LruCache<int> probe(cfg);
    probe.put("k1", 0, "t");
    const std::size_t per = probe.stats().bytes;

    cfg.tagBytes = 2 * per + 8; // two entries per tenant, plus slack
    LruCache<int> cache(cfg);
    cache.put("b1", 1, "b");
    cache.put("b2", 2, "b");
    cache.put("a1", 3, "a");
    // "a1" changes hands: b now holds b1, b2, a1 — one over budget.
    cache.put("a1", 4, "b");
    int v = 0;
    EXPECT_FALSE(cache.get("b1", v)); // b's LRU tail paid
    EXPECT_TRUE(cache.get("b2", v));
    EXPECT_TRUE(cache.get("a1", v));
    EXPECT_EQ(v, 4);
    const auto s = cache.stats();
    EXPECT_EQ(s.tags.at("b").entries, 2u);
    EXPECT_LE(s.tags.at("b").bytes, cfg.tagBytes);
    EXPECT_EQ(s.tags.at("b").evictions, 1u);
    EXPECT_EQ(s.tags.count("a"), 0u); // settled, nothing to report
}

TEST(LruCache, TransientTagRowsAreDroppedFromStats)
{
    // A tag whose last entry leaves without ever evicting carries no
    // information; keeping its row would let tag churn grow the map.
    const std::size_t per = taggedEntryBytes();
    LruCache<int> cache(taggedSingleShard(4 * per));
    cache.put("k", 1, "a");
    cache.put("k", 2, "b"); // re-label: "a" now has 0 entries
    const auto s = cache.stats();
    EXPECT_EQ(s.tags.count("a"), 0u);
    EXPECT_EQ(s.tags.count("b"), 1u);
}

TEST(LruCache, ClearDropsTagRowsWithoutEvictions)
{
    // clear() must not leave all-zero ghost tenants behind (they
    // would hold kMaxTags tracking slots forever); rows with an
    // eviction history survive with their counters.
    const std::size_t per = taggedEntryBytes();
    // One entry per tag, with slack for the longer keys used here.
    LruCache<int> cache(taggedSingleShard(per + 16));
    cache.put("a1", 1, "quiet");
    cache.put("h1", 1, "hog");
    cache.put("h2", 2, "hog"); // hog's budget evicts h1
    EXPECT_EQ(cache.stats().tags.at("hog").evictions, 1u);
    cache.clear();
    const auto s = cache.stats();
    EXPECT_EQ(s.tags.count("quiet"), 0u); // nothing to report
    ASSERT_EQ(s.tags.count("hog"), 1u);   // eviction history kept
    EXPECT_EQ(s.tags.at("hog").evictions, 1u);
    EXPECT_EQ(s.tags.at("hog").entries, 0u);
    EXPECT_EQ(s.tags.at("hog").bytes, 0u);
}

TEST(LruCache, TagTrackingIsCappedAgainstTagChurn)
{
    // Unique-tag-per-request traffic must not grow per-tag state
    // without bound: past the per-shard cap, entries are cached
    // untagged (still resident, still globally bounded).
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.tagBytes = 1 << 20;
    LruCache<int> cache(cfg);
    for (int i = 0; i < 400; ++i)
        cache.put("k" + std::to_string(i), i, "t" + std::to_string(i));
    const auto s = cache.stats();
    EXPECT_LE(s.tags.size(), 256u); // bounded tag vocabulary
    EXPECT_EQ(s.entries, 400u);     // everything still cached
    int v = 0;
    EXPECT_TRUE(cache.get("k399", v)); // past-cap entries work too
}

TEST(LruCache, DeadTagSlotsAreReclaimedForNewTenants)
{
    // Tags whose entries were all evicted keep only a historical
    // eviction count; under tag-slot pressure those dead rows must
    // be reclaimed so endless tag churn can never permanently lock
    // new tenants out of per-tag tracking.
    LruCache<int>::Config cfg;
    cfg.shards = 1;
    cfg.maxEntries = 16;   // global churn: most tag rows go dead
    cfg.tagBytes = 1 << 20;
    LruCache<int> cache(cfg);
    for (int i = 0; i < 400; ++i)
        cache.put("k" + std::to_string(i), i, "t" + std::to_string(i));
    const auto s = cache.stats();
    EXPECT_LE(s.tags.size(), 256u);
    // The newest tenants are tracked (their slots were reclaimed
    // from dead rows), not silently downgraded to untagged.
    EXPECT_EQ(s.tags.count("t399"), 1u);
    EXPECT_EQ(s.tags.at("t399").entries, 1u);
}

TEST(LruCache, ConcurrentTaggedPutsStayWithinTenantBudgets)
{
    LruCache<std::size_t>::Config cfg;
    cfg.shards = 4;
    cfg.tagBytes = 16384;
    cfg.valueBytes = [](const std::size_t &) {
        return std::size_t{256};
    };
    LruCache<std::size_t> cache(cfg);
    TaskScheduler sched(4);
    sched.parallelFor(512, [&](std::size_t i) {
        const std::string tag = (i % 3) ? "hog" : "mouse";
        cache.put("key" + std::to_string(i % 128), i, tag);
        std::size_t v = 0;
        cache.get("key" + std::to_string(i % 128), v);
    });
    const auto s = cache.stats();
    for (const auto &[tag, ts] : s.tags) {
        EXPECT_TRUE(tag == "hog" || tag == "mouse");
        // Per-shard flooring: a tag's resident bytes never exceed its
        // configured budget no matter how the keys hash or race.
        EXPECT_LE(ts.bytes, cfg.tagBytes) << tag;
    }
    EXPECT_GT(s.tags.at("hog").evictions, 0u);
    EXPECT_GT(s.hits, 0u);
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

} // namespace
