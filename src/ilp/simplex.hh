/**
 * @file
 * Two-phase primal simplex for the LP relaxations used by the
 * branch-and-bound ILP solver. Dantzig pricing with a Bland's-rule
 * fallback for anti-cycling; variable bounds are folded into the
 * tableau (lower bounds by shifting, upper bounds as explicit rows).
 *
 * Per-pivot and per-node work is proportional to what a result reads.
 * The tableau values live in a dense row-major store, but every pass
 * over them walks index lists: each row lists the columns of the cells
 * it has written and each column the rows, a superset of the nonzeros.
 * A pivot touches only the pivot row's listed columns and the entering
 * column's listed rows. Pricing scans a candidate list of the columns
 * whose reduced cost is above eps; a pivot re-files only the pivot
 * row's listed columns. A node copies each structural row and column
 * list as one block from rows merged once per model (LpRows). The
 * stall objective behind the Bland fallback is skipped: a phase that
 * passes the Bland threshold in pivots is cut off and the LP replayed
 * with the stall summed. The stall never exceeds the phase's pivots,
 * so an LP that stays under the threshold pivots exactly as a tracked
 * one would.
 *
 * Bit-identity contract: the pivot sequence and every floating-point
 * operation on a nonzero cell are exactly those of a dense sweep.
 * Unlisted cells are never read and stand for zeros; a cell is +0.0
 * when first listed, and a zero cell can only ever differ in the sign
 * of that zero, which no comparison observes. Skipped stall terms are
 * zero products, which leave a sum started at +0.0 as it is. Pricing
 * takes the lowest index among the largest listed reduced costs, the
 * column an ascending Dantzig scan picks. The Bland fallback scans in
 * ascending order, the ratio test walks the entering column's rows in
 * ascending order, and phase 1 drives artificials out with the lowest
 * eligible column, so every tie breaks as in the dense sweep.
 */

#ifndef SMART_ILP_SIMPLEX_HH
#define SMART_ILP_SIMPLEX_HH

#include <vector>

#include "ilp/model.hh"

namespace smart::ilp
{

/** Termination status of a solve. */
enum class SolveStatus
{
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
    NodeLimit
};

/** Human-readable status name. */
const char *statusName(SolveStatus s);

/** Solver tolerances and limits. */
struct SolverOptions
{
    double eps = 1e-9;        //!< Pivot / feasibility tolerance.
    double intTol = 1e-6;     //!< Integrality tolerance.
    int maxIters = 50000;     //!< Simplex iteration cap per LP.
    int maxBnbNodes = 20000;  //!< Branch & bound node cap.
    /**
     * Accept an incumbent within this relative gap of the root LP
     * bound (0 demands proven optimality).
     */
    double gapTol = 0.0;
};

/** Result of an LP or ILP solve. */
struct Solution
{
    SolveStatus status = SolveStatus::Infeasible;
    double objective = 0.0;
    std::vector<double> values; //!< One entry per model variable.
    int simplexIters = 0;       //!< Total simplex pivots.
    int bnbNodes = 0;           //!< Branch & bound nodes explored.
    int lpReplays = 0;          //!< LPs re-run with the stall summed.
    /**
     * Objective-space bound in the model's optimization direction
     * (the root LP relaxation for B&B solves, the objective itself
     * for pure LPs). Lets callers compute an optimality-gap bound
     * for incumbents accepted under gapTol or the node limit.
     */
    double bestBound = 0.0;
    bool hasBestBound = false; //!< bestBound was actually computed.

    /** Value of a variable in this solution. */
    double value(Var v) const { return values[v.id]; }
    /** True if the solve produced a usable assignment. */
    bool feasible() const
    {
        return status == SolveStatus::Optimal ||
               status == SolveStatus::NodeLimit;
    }
};

/**
 * Reusable solve buffers. The branch-and-bound search solves thousands
 * of structurally identical LPs that differ only in variable bounds;
 * routing them through one workspace reuses every allocation (tableau,
 * index lists, rhs, basis and candidate list) instead of
 * reallocating per node. A workspace may be reused across models of
 * any size; it must not be shared between threads. ilp::solve keeps
 * one per thread for every solve that thread runs (see
 * trimThreadWorkspace).
 *
 * Invariant: between solves, every row and column list is empty (the
 * pricing buffers are rebuilt before they are read). `listed`
 * stamps each cell with the epoch of the solve that listed it, and a
 * cell is zeroed when first listed, so `a` is never cleared; the
 * stamps are, once every 255 solves, when the epoch wraps. A solve
 * lays its tableau over the front of the buffers (stride = its column
 * count). The buffers grow to the largest model seen, never shrink.
 */
struct LpWorkspace
{
    // Tableau values (m x cols, row-major), with per-cell list marks.
    std::vector<double> a;
    std::vector<unsigned char> listed; //!< Epoch that listed the cell.
    unsigned char epoch = 0;           //!< This solve's stamp, 1..255.
    std::vector<std::vector<int>> rowNz; //!< Listed columns per row.
    std::vector<std::vector<int>> colNz; //!< Listed rows per column.
    std::vector<double> rhs;
    std::vector<double> rowRhs; //!< Shifted rhs before normalization.
    std::vector<int> basis;
    // Pricing, rebuilt at the start of each phase.
    std::vector<double> cost;
    std::vector<double> red;  //!< Reduced costs.
    std::vector<int> cand;    //!< Priced columns with red > eps.
    std::vector<int> candPos; //!< Index in cand, or -1.
};

/**
 * A model's constraint rows with duplicate terms merged, in the order
 * each variable first appears. Bounds stay out, so one assembly serves
 * every node LP of a branch-and-bound search. Row i holds its terms at
 * [start[i], start[i + 1]); the transpose lists variable j's rows in
 * ascending order at colRows[colStart[j], colStart[j + 1]).
 */
struct LpRows
{
    explicit LpRows(const Model &model);

    std::vector<int> cols;
    std::vector<double> vals;
    std::vector<int> start;
    std::vector<int> colRows;
    std::vector<int> colStart;
};

/** Solve the LP relaxation of @p model (integrality ignored). */
Solution solveLp(const Model &model, const SolverOptions &opts = {});

/**
 * Solve the LP relaxation of @p model over its assembled @p rows with
 * the bounds @p lb / @p ub in place of the model's, reusing @p ws
 * across calls (the B&B hot path). Results are identical to the
 * workspace-free overload's under the same bounds.
 */
Solution solveLp(const Model &model, const LpRows &rows,
                 const std::vector<double> &lb,
                 const std::vector<double> &ub, const SolverOptions &opts,
                 LpWorkspace &ws);

} // namespace smart::ilp

#endif // SMART_ILP_SIMPLEX_HH
