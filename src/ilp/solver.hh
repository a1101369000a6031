/**
 * @file
 * Branch-and-bound 0/1 (and general integer) programming on top of the
 * LP relaxation: best-bound depth-first search with most-fractional
 * branching and an LP-rounding incumbent heuristic.
 */

#ifndef SMART_ILP_SOLVER_HH
#define SMART_ILP_SOLVER_HH

#include "ilp/simplex.hh"

namespace smart::ilp
{

/**
 * Solve @p model to integer optimality (or the node limit, returning the
 * best incumbent found). Continuous models fall through to the plain LP.
 */
Solution solve(const Model &model, const SolverOptions &opts = {});

/**
 * Free the calling thread's LP workspace, which every solve on the
 * thread reuses, unless a solve has taken it since the previous call.
 * Called once per batch, this keeps the buffers while batches solve
 * and frees them after the first batch that needs none.
 */
void trimThreadWorkspace();

} // namespace smart::ilp

#endif // SMART_ILP_SOLVER_HH
