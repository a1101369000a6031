/**
 * @file
 * The ILP scheduling pass (Sec. 4.3, Eq. 5-6): binary placement and
 * prefetch variables per memory object, latency-savings objective,
 * consistency / capacity / bandwidth constraints, solved with the
 * in-tree branch-and-bound solver. Falls back to the greedy allocator
 * if the ILP is infeasible or hits its node limit without an incumbent.
 */

#ifndef SMART_COMPILER_ILPSCHED_HH
#define SMART_COMPILER_ILPSCHED_HH

#include "compiler/schedule.hh"
#include "ilp/simplex.hh"

namespace smart::compiler
{

/**
 * The ILP of one layer DAG and the solver options scheduleIlp solves
 * it with. Object i's binaries h (SHIFT-resident), r (RANDOM-resident),
 * p (prefetched) and hp (h AND p) are variables 4i .. 4i + 3.
 */
struct LayerIlp
{
    ilp::Model model;
    ilp::SolverOptions opts;
};

/** Build the ILP of @p dag (Eq. 5-6). */
LayerIlp buildLayerIlp(const LayerDag &dag, const SchedParams &params);

/** Schedule one layer DAG with the ILP formulation. */
Schedule scheduleIlp(const LayerDag &dag, const SchedParams &params);

} // namespace smart::compiler

#endif // SMART_COMPILER_ILPSCHED_HH
