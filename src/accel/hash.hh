/**
 * @file
 * Canonical request hashing for (configuration, model, batch)
 * evaluation points. The serving layer's persistent result store,
 * its wave coalescing and any cross-run memoization key on
 * requestKey(): a byte-exact
 * serialization of every field the performance/energy model reads, so
 * two requests share a key if and only if runInference is guaranteed
 * to produce bit-identical results for both. Distinct configurations
 * can therefore never alias (the PR 1 ilp_cache under-keying bug class
 * is structurally excluded: the key is the full input, not a digest of
 * a subset).
 *
 * Doubles are serialized in hexfloat so the key round-trips every bit
 * of the value; requestDigest() folds the key to 64 bits (FNV-1a) for
 * logging and shard selection only — never use the digest alone as a
 * cache key.
 *
 * appendRequestKey writes into a caller-owned buffer with a single
 * up-front reserve (no ostringstream, no intermediate temporaries), so
 * the serving layer's per-request key build costs zero steady-state
 * heap allocations when the buffer is reused across requests.
 */

#ifndef SMART_ACCEL_HASH_HH
#define SMART_ACCEL_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "accel/config.hh"
#include "cnn/models.hh"

namespace smart::accel
{

/**
 * Canonical cache key of one evaluation request: covers the complete
 * AcceleratorConfig (scheme, PE array, clocks, all SPM specs, RANDOM
 * array + tech + overrides, prefetch/ILP flags, DRAM bandwidth, every
 * calibration knob), the full per-layer model description, and the
 * batch size. Deterministic across threads and processes.
 */
std::string requestKey(const AcceleratorConfig &cfg,
                       const cnn::CnnModel &model, int batch);

/**
 * Append the canonical key to @p out (one reserve, no temporaries).
 * Byte-identical to requestKey(); the allocation-free form the serve
 * dispatch path uses with a reused scratch buffer + per-wave arena.
 */
void appendRequestKey(std::string &out, const AcceleratorConfig &cfg,
                      const cnn::CnnModel &model, int batch);

/**
 * Coarse (model, batch) shape class of a request — the model/batch
 * prefix dimensions of requestKey without the configuration fields or
 * the per-layer byte-exact serialization. Two requests sharing a shape
 * key have the same model name, layer count, total work, and batch
 * size, so their evaluation cost is comparable; the serving layer's
 * online cost estimator (serve/estimator.hh) keys its EWMAs on this.
 * Deliberately NOT a cache key: distinct configurations (and models
 * differing only in layer internals) collapse to one shape class.
 */
std::string requestShapeKey(const cnn::CnnModel &model, int batch);

/** 64-bit FNV-1a digest of a canonical key (display/sharding only). */
std::uint64_t requestDigest(std::string_view key);

} // namespace smart::accel

#endif // SMART_ACCEL_HASH_HH
