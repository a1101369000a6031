/**
 * @file
 * The concurrency-safe memo cache shared by the parallel evaluation
 * workers (ShardedCache): the process-wide layer-schedule memo and
 * configuration-cost memo are the in-process caches on both the
 * figure-grid and the serving path.
 * The execution substrate itself — the work-stealing TaskScheduler,
 * TaskGroup, and pFor — lives in common/taskgraph.hh.
 */

#ifndef SMART_COMMON_PARALLEL_HH
#define SMART_COMMON_PARALLEL_HH

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/threadsafety.hh"

namespace smart
{

/**
 * String-keyed memo cache with sharded mutexes, shared by all
 * evaluation workers (the layer-schedule and configuration-cost memos
 * in accel/perf.cc).
 * Values are computed outside the shard lock, so a slow miss never
 * serializes unrelated lookups. Each key is computed once while
 * resident: a miss publishes an in-flight future under the lock, and
 * concurrent readers of the same key block on that future instead of
 * redoing the (expensive, pure) evaluation. The computing thread runs
 * make() on its own stack — never through the thread pool — so
 * waiting cannot deadlock pool workers.
 *
 * Bounded: each shard holds at most kMaxEntriesPerShard entries. A
 * miss that would exceed the cap first erases one pseudo-random
 * resident entry (the memo's values are pure, so a victim is merely
 * recomputed if asked for again) and counts it in evictions(); every
 * miss counts in inserts(), which a full cache's flat size() cannot
 * show. An in-flight victim is safe to erase: its computing thread
 * keeps the promise and every waiter its own shared_future copy.
 */
template <typename Value>
class ShardedCache
{
  public:
    /** Return the cached value for @p key, computing it on a miss. */
    template <typename Make>
    Value getOrCompute(const std::string &key, Make &&make)
    {
        Shard &shard = shardOf(key);
        // The promise (and its heap-allocated shared state) exists only
        // on a miss: a hit costs one lock and one lookup.
        std::optional<std::promise<Value>> promise;
        std::shared_future<Value> fut;
        {
            LockGuard lock(shard.mu);
            auto it = shard.map.find(key);
            if (it == shard.map.end()) {
                if (shard.map.size() >= kMaxEntriesPerShard)
                    evictOne(shard);
                ++shard.inserts;
                fut = promise.emplace().get_future().share();
                shard.map.emplace(key, fut);
            } else {
                fut = it->second;
            }
        }
        if (promise) {
            try {
                promise->set_value(make());
            } catch (...) {
                // Drop the failed entry so later calls retry, then
                // deliver the error to anyone already waiting.
                {
                    LockGuard lock(shard.mu);
                    shard.map.erase(key);
                }
                promise->set_exception(std::current_exception());
            }
        }
        return fut.get();
    }

    /**
     * Lookup only: the value for @p key if resident and computed (an
     * entry still in flight is a miss). Never publishes or blocks.
     */
    std::optional<Value> find(const std::string &key)
    {
        Shard &shard = shardOf(key);
        LockGuard lock(shard.mu);
        auto it = shard.map.find(key);
        if (it == shard.map.end() ||
            it->second.wait_for(std::chrono::seconds(0)) !=
                std::future_status::ready)
            return std::nullopt;
        return it->second.get();
    }

    static constexpr std::size_t kShards = 16;
    /**
     * Entry cap per shard: far above what the 102-layer figure grid
     * spreads over one shard, so a warm grid never evicts, while
     * open-loop serve traffic of ever-new shapes stays bounded.
     */
    static constexpr std::size_t kMaxEntriesPerShard = 256;
    static constexpr std::size_t kMaxEntries =
        kShards * kMaxEntriesPerShard;

    /** Drop every entry (tests and memory pressure). */
    void clear()
    {
        for (auto &shard : shards_) {
            LockGuard lock(shard.mu);
            shard.map.clear();
        }
    }

    /** Total entries across shards (approximate under concurrency). */
    std::size_t size()
    {
        std::size_t n = 0;
        for (auto &shard : shards_) {
            LockGuard lock(shard.mu);
            n += shard.map.size();
        }
        return n;
    }

    /** Entries erased to keep a shard under its cap, ever. */
    std::uint64_t evictions() { return sum(&Shard::evictions); }

    /** Misses that published a new entry, ever (clear() keeps it). */
    std::uint64_t inserts() { return sum(&Shard::inserts); }

  private:
    struct Shard
    {
        Mutex mu;
        std::unordered_map<std::string, std::shared_future<Value>>
            map SMART_GUARDED_BY(mu);
        std::uint64_t evictions SMART_GUARDED_BY(mu) = 0;
        std::uint64_t inserts SMART_GUARDED_BY(mu) = 0;
    };

    std::uint64_t sum(std::uint64_t Shard::*counter)
    {
        std::uint64_t n = 0;
        for (auto &shard : shards_) {
            LockGuard lock(shard.mu);
            n += shard.*counter;
        }
        return n;
    }

    /**
     * Erase a pseudo-random entry: probe buckets from a scrambled
     * start until one is non-empty (load factor <= 1: few probes).
     * Not begin(), which is usually the newest node.
     */
    static void evictOne(Shard &shard) SMART_REQUIRES(shard.mu)
    {
        auto &map = shard.map;
        const std::size_t buckets = map.bucket_count();
        std::size_t b =
            (++shard.evictions * 0x9E3779B97F4A7C15ull) % buckets;
        while (map.begin(b) == map.end(b))
            b = (b + 1) % buckets;
        map.erase(std::string(map.begin(b)->first));
    }

    Shard &shardOf(const std::string &key)
    {
        return shards_[std::hash<std::string>{}(key) % kShards];
    }

    std::array<Shard, kShards> shards_;
};

} // namespace smart

#endif // SMART_COMMON_PARALLEL_HH
