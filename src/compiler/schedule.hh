/**
 * @file
 * SPM allocation schedule: the output of the ILP (or greedy) compiler
 * pass, consumed by the accelerator performance model.
 */

#ifndef SMART_COMPILER_SCHEDULE_HH
#define SMART_COMPILER_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "compiler/dag.hh"

namespace smart::compiler
{

/** Where an object resides when its iteration consumes it (Table 3). */
enum class Placement
{
    Shift,  //!< H: a private SHIFT array.
    Random, //!< R: the shared RANDOM array.
    Dram    //!< served directly from DRAM.
};

/** Human-readable placement name. */
const char *placementName(Placement p);

/** Decision for one memory object. */
struct ObjectDecision
{
    Placement placement = Placement::Dram;
    bool prefetched = false; //!< Staged >= 1 iteration in advance.
};

/** Resource/cost parameters the scheduler optimizes against. */
struct SchedParams
{
    ByteCount shiftCapacityBytes{32 * 1024};
    ByteCount randomCapacityBytes{28ull * 1024 * 1024};
    /** Effective port cycles per access by placement. */
    double shiftCyclesPerAccess = 1.0;
    double randomCyclesPerAccess = 5.5;   //!< 0.103 ns / 0.019 ns.
    double dramCyclesPerAccess = 16.0;    //!< 300 GB/s shared bus.
    /** Staging bandwidth RANDOM -> SHIFT (bytes per accelerator cycle). */
    double hrBandwidthBytesPerCycle = 47.0;
    /** DRAM bandwidth (bytes per accelerator cycle). */
    double dramBandwidthBytesPerCycle = 5.7;
    /** Prefetch window a (Sec. 4.3); 1 disables prefetching. */
    int prefetchIterations = 3;
    /** Disable the RANDOM array entirely (SuperNPU-style SPMs). */
    bool hasRandomArray = true;

    /**
     * Canonical memo-cache key covering every field the scheduler's
     * output depends on, at full float precision. Two parameter sets
     * with equal keys produce identical schedules; sweeps that mutate
     * any field get distinct keys and cannot alias.
     */
    std::string cacheKey() const;
};

/**
 * Provenance/quality marker of a schedule (or of a result derived
 * from one). Optimal means the ILP produced it, with `gapBound`
 * bounding how far the incumbent may sit from the true optimum (0 =
 * proven optimal). Greedy means the density heuristic produced it —
 * either by request (anytime/degraded serving) or because the ILP
 * fell back; the gap bound is then measured against the B&B root
 * relaxation when one is available, else unknown. CacheHit marks
 * results replayed from a cache without re-scheduling.
 */
enum class Quality
{
    Optimal,
    Greedy,
    CacheHit
};

/** Human-readable quality name ("optimal" / "greedy" / "cache"). */
const char *qualityName(Quality q);

/** A complete schedule for one layer DAG. */
struct Schedule
{
    std::vector<ObjectDecision> decisions; //!< One per dag.objects.
    double objective = 0.0;   //!< Scheduler objective (saved cycles).
    Quality quality = Quality::Greedy; //!< Who produced it.
    /**
     * Upper bound on the relative optimality gap: 0 = proven optimal,
     * positive = bounded (gapTol / node-limit incumbents, or greedy
     * measured against the B&B root bound), -1 = unknown (plain
     * greedy with no LP bound available).
     */
    double gapBound = -1.0;
    int bnbNodes = 0;         //!< ILP search effort.
    int simplexIters = 0;     //!< Simplex pivots over all B&B nodes.
    int lpReplays = 0;        //!< Node LPs re-run with stall tracking.

    /** Fraction of class-c accesses served from @p placement. */
    double servedFraction(const LayerDag &dag, ObjClass c,
                          Placement p) const;
    /** Bytes staged RANDOM -> SHIFT over the layer. */
    std::uint64_t stagedBytes(const LayerDag &dag) const;
    /** Bytes served straight from DRAM. */
    std::uint64_t dramBytes(const LayerDag &dag) const;
    /** Fraction of staged bytes hidden by prefetch. */
    double prefetchedFraction(const LayerDag &dag) const;
};

/**
 * Check a schedule against the capacity and consistency constraints;
 * returns true when valid (used by tests and as a post-solve assert).
 */
bool validateSchedule(const LayerDag &dag, const SchedParams &params,
                      const Schedule &schedule);

} // namespace smart::compiler

#endif // SMART_COMPILER_SCHEDULE_HH
