/**
 * @file
 * Crash-safe persistent key/value cache: an append-only log of
 * versioned, length-prefixed, checksummed records mirrored by an
 * in-memory map. Built as the serving tier's persistent result store
 * so process restarts warm-start instead of re-solving, but
 * deliberately generic (string keys, opaque byte values).
 *
 * Durability model:
 *  - put() appends one record and flushes; a crash mid-append leaves
 *    a torn tail that the next open skips (checksums + sane-length
 *    guards), never a failed load.
 *  - a record whose checksum does not match (bit flip) is skipped
 *    and counted; when any corruption is seen at load, the log is
 *    compacted — rewritten clean to `path + ".tmp"` and moved over
 *    the original with an atomic rename.
 *  - later records win: compaction and reload keep one (the newest)
 *    value per key, so the log self-bounds under overwrites.
 *
 * Fault injection (FaultInjector::global()): tornWrite() truncates an
 * append mid-record, tornRead() makes a get() observe corrupt bytes
 * (counted and served as a miss). Thread-safe behind one mutex — the
 * serve dispatcher is the only writer, but tests hammer it from many
 * threads.
 */

#ifndef SMART_COMMON_DISKCACHE_HH
#define SMART_COMMON_DISKCACHE_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <unordered_map>

#include "common/threadsafety.hh"

namespace smart
{

class DiskCache
{
  public:
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t puts = 0;
        /** Records skipped at load or reads failed by injection. */
        std::uint64_t corruptSkipped = 0;
        std::size_t entries = 0;
    };

    /**
     * Open (creating if absent) the cache backed by @p path. Parent
     * directories are created as needed. Corrupt or torn records in
     * an existing log are skipped, counted, and compacted away.
     */
    explicit DiskCache(std::string path);
    ~DiskCache();

    DiskCache(const DiskCache &) = delete;
    DiskCache &operator=(const DiskCache &) = delete;

    /** Look up @p key; true and fills @p value on a hit. */
    bool get(const std::string &key, std::string &value);

    /** Insert/overwrite @p key and append the record to the log. */
    void put(const std::string &key, const std::string &value);

    /** Rewrite the log clean (atomic rename); rarely needed by hand. */
    void compact();

    Stats stats() const;
    std::size_t size() const;
    const std::string &path() const { return path_; }

  private:
    /** Replay the log into map_ (ctor only; takes mu_ itself). */
    void load() SMART_EXCLUDES(mu_);
    void compactLocked() SMART_REQUIRES(mu_);
    void appendLocked(const std::string &key, const std::string &value)
        SMART_REQUIRES(mu_);

    mutable Mutex mu_;
    std::string path_; //!< Immutable after construction.
    /** Append stream onto the log. */
    std::ofstream out_ SMART_GUARDED_BY(mu_);
    /** Last append was torn; repair next. */
    bool tornTail_ SMART_GUARDED_BY(mu_) = false;
    std::unordered_map<std::string, std::string> map_ SMART_GUARDED_BY(mu_);
    Stats stats_ SMART_GUARDED_BY(mu_);
};

} // namespace smart

#endif // SMART_COMMON_DISKCACHE_HH
