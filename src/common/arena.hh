/**
 * @file
 * Bump-pointer arena for hot-path byte interning. The serving layer
 * allocates one Arena per dispatch wave and interns every request's
 * canonical cache key (plus its "|greedy" degraded twin) into it as
 * one contiguous block, so key construction, the coalescing map, and
 * the cache lookups all share the same bytes — one bump per request
 * instead of a handful of string allocations (ROADMAP hot-path (c)).
 *
 * Not thread-safe by design: an arena is owned by the single thread
 * that fills it (the dispatcher), and the views it hands out are
 * immutable afterwards, so concurrent *readers* (wave tasks on other
 * threads) need no synchronization beyond the task-graph join.
 * Interned views live exactly as long as the arena.
 */

#ifndef SMART_COMMON_ARENA_HH
#define SMART_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace smart
{

class Arena
{
  public:
    /** @p blockBytes sizes the bump blocks; oversized requests get a
     *  dedicated block, so any length interns correctly. */
    explicit Arena(std::size_t blockBytes = 16 * 1024)
        : blockBytes_(std::max<std::size_t>(1, blockBytes))
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Raw bump allocation of @p n bytes (uninitialized). */
    char *alloc(std::size_t n)
    {
        if (blocks_.empty() || n > cap_ - used_)
            grow(n);
        char *p = blocks_.back().get() + used_;
        used_ += n;
        bytesUsed_ += n;
        return p;
    }

    /** Copy @p s into the arena; the view is stable until destruction. */
    std::string_view intern(std::string_view s)
    {
        return intern2(s, {});
    }

    /**
     * Copy @p a followed by @p b into ONE contiguous allocation and
     * return the combined view. Callers may slice it: the serving
     * layer stores the canonical key as the prefix view and reaches
     * the suffixed degraded key by extending the same view — both
     * keys, one bump.
     */
    std::string_view intern2(std::string_view a, std::string_view b)
    {
        char *p = alloc(a.size() + b.size());
        if (!a.empty())
            std::memcpy(p, a.data(), a.size());
        if (!b.empty())
            std::memcpy(p + a.size(), b.data(), b.size());
        return {p, a.size() + b.size()};
    }

    /** Allocation telemetry for bench notes / tests. */
    struct Stats
    {
        std::size_t blocks = 0;        //!< Heap blocks allocated.
        std::size_t bytesUsed = 0;     //!< Bytes handed out.
        std::size_t bytesReserved = 0; //!< Bytes obtained from malloc.
    };

    Stats stats() const
    {
        return {blocks_.size(), bytesUsed_, bytesReserved_};
    }

  private:
    void grow(std::size_t need)
    {
        const std::size_t size = std::max(blockBytes_, need);
        blocks_.push_back(std::make_unique<char[]>(size));
        cap_ = size;
        used_ = 0;
        bytesReserved_ += size;
    }

    std::size_t blockBytes_;
    std::vector<std::unique_ptr<char[]>> blocks_;
    std::size_t cap_ = 0;  //!< Capacity of the current (last) block.
    std::size_t used_ = 0; //!< Bump offset into the current block.
    std::size_t bytesUsed_ = 0;
    std::size_t bytesReserved_ = 0;
};

} // namespace smart

#endif // SMART_COMMON_ARENA_HH
