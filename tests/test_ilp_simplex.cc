/**
 * @file
 * Tests for the LP simplex: textbook problems, degeneracy, bounds,
 * infeasibility, unboundedness, and workspace reuse.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/rng.hh"
#include "ilp/simplex.hh"

namespace
{

using namespace smart::ilp;

/**
 * Random bounded LP with every constraint sense, built around a known
 * feasible point so phase 1 always has work (Ge/Eq rows, negative rhs)
 * and phase 2 an optimum. Each row touches a few of the variables.
 */
Model
randomLp(int vars, int rows, std::uint64_t seed)
{
    smart::Rng rng(seed);
    Model m;
    std::vector<Var> x;
    std::vector<double> x0;
    for (int j = 0; j < vars; ++j) {
        const double lb = j % 3 == 0 ? -2.0 : 0.0;
        x.push_back(m.addVar(lb, lb + 1.0 + 9.0 * rng.uniform(),
                             VarType::Continuous));
        x0.push_back(lb + 0.5 * rng.uniform());
    }
    for (int i = 0; i < rows; ++i) {
        LinExpr e;
        double at_x0 = 0.0;
        for (int k = 0; k < 4; ++k) {
            const int j = static_cast<int>(rng.uniform() * vars) % vars;
            const double c = rng.uniform(-3.0, 3.0);
            e.add(x[j], c);
            at_x0 += c * x0[j];
        }
        const Sense sense = static_cast<Sense>(i % 3);
        const double slack = sense == Sense::Eq ? 0.0 : rng.uniform();
        m.addConstr(e, sense,
                    sense == Sense::Ge ? at_x0 - slack : at_x0 + slack);
    }
    LinExpr obj;
    for (int j = 0; j < vars; ++j)
        obj.add(x[j], rng.uniform(-1.0, 2.0));
    m.setObjective(obj, true);
    return m;
}

/**
 * Chvatal's example, which cycles under Dantzig pricing with the
 * lowest basis index leaving.
 */
Model
chvatalCyclingLp()
{
    const double inf = std::numeric_limits<double>::infinity();
    Model m;
    std::vector<Var> x;
    for (int j = 0; j < 4; ++j)
        x.push_back(m.addVar(0, inf, VarType::Continuous));
    m.addConstr(
        LinExpr().add(x[0], 0.5).add(x[1], -5.5).add(x[2], -2.5).add(x[3], 9),
        Sense::Le, 0);
    m.addConstr(
        LinExpr().add(x[0], 0.5).add(x[1], -1.5).add(x[2], -0.5).add(x[3], 1),
        Sense::Le, 0);
    m.addConstr(LinExpr(x[0]), Sense::Le, 1);
    m.setObjective(
        LinExpr().add(x[0], 10).add(x[1], -57).add(x[2], -9).add(x[3], -24),
        true);
    return m;
}

/** The 7-dimensional Klee-Minty cube: 127 improving Dantzig pivots. */
Model
kleeMintyLp()
{
    const double inf = std::numeric_limits<double>::infinity();
    const int n = 7;
    Model m;
    std::vector<Var> x;
    LinExpr obj;
    for (int i = 0; i < n; ++i) {
        x.push_back(m.addVar(0, inf, VarType::Continuous));
        LinExpr e;
        for (int j = 0; j < i; ++j)
            e.add(x[j], 2 * std::pow(10.0, i - j));
        m.addConstr(e.add(x[i], 1), Sense::Le, std::pow(100.0, i));
        obj.add(x[i], std::pow(10.0, n - 1 - i));
    }
    m.setObjective(obj, true);
    return m;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Bitwise equality: same status, pivots, objective and values. */
void
expectSameBits(const Solution &a, const Solution &b)
{
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.simplexIters, b.simplexIters);
    EXPECT_EQ(bitsOf(a.objective), bitsOf(b.objective));
    ASSERT_EQ(a.values.size(), b.values.size());
    for (std::size_t j = 0; j < a.values.size(); ++j)
        EXPECT_EQ(bitsOf(a.values[j]), bitsOf(b.values[j])) << "var " << j;
}

/** Bitwise pin of a solve: pivots, objective and every value. */
void
expectPinned(const Solution &s, int pivots, double objective,
             const std::vector<double> &values)
{
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_EQ(s.simplexIters, pivots);
    EXPECT_EQ(bitsOf(s.objective), bitsOf(objective));
    ASSERT_EQ(s.values.size(), values.size());
    for (std::size_t j = 0; j < values.size(); ++j)
        EXPECT_EQ(bitsOf(s.values[j]), bitsOf(values[j])) << "var " << j;
}

/**
 * Tableau rows and phase-1 columns the simplex lays out for @p m: one
 * row per constraint and per finite upper bound, one slack per
 * inequality and one artificial per row that is not <= once its rhs
 * is made nonnegative.
 */
std::pair<int, int>
tableauShape(const Model &m)
{
    int rows = 0;
    int slacks = 0;
    int artificials = 0;
    auto count = [&](Sense sense, double rhs) {
        ++rows;
        if (rhs < 0 && sense != Sense::Eq)
            sense = sense == Sense::Le ? Sense::Ge : Sense::Le;
        slacks += sense != Sense::Eq;
        artificials += sense != Sense::Le;
    };
    for (const auto &c : m.constraints()) {
        double rhs = c.rhs;
        for (const auto &[id, coeff] : c.expr.terms())
            rhs -= coeff * m.lb(id);
        count(c.sense, rhs);
    }
    for (int j = 0; j < m.numVars(); ++j)
        if (std::isfinite(m.ub(j)))
            count(Sense::Le, m.ub(j) - m.lb(j));
    return {rows, m.numVars() + slacks + artificials};
}

/** The workspace invariant: every index list is empty. */
void
expectListsEmpty(const LpWorkspace &ws)
{
    for (const auto &l : ws.rowNz)
        EXPECT_TRUE(l.empty());
    for (const auto &l : ws.colNz)
        EXPECT_TRUE(l.empty());
}

TEST(Simplex, TextbookMaximization)
{
    // max x + y s.t. x + 2y <= 4, 3x + y <= 6 -> (1.6, 1.2), obj 2.8.
    Model m;
    Var x = m.addVar(0, 1e30, VarType::Continuous, "x");
    Var y = m.addVar(0, 1e30, VarType::Continuous, "y");
    m.addConstr(LinExpr().add(x, 1).add(y, 2), Sense::Le, 4);
    m.addConstr(LinExpr().add(x, 3).add(y, 1), Sense::Le, 6);
    m.setObjective(LinExpr().add(x, 1).add(y, 1), true);

    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_EQ(s.lpReplays, 0);
    EXPECT_NEAR(s.objective, 2.8, 1e-9);
    EXPECT_NEAR(s.value(x), 1.6, 1e-9);
    EXPECT_NEAR(s.value(y), 1.2, 1e-9);
}

TEST(Simplex, MinimizationWithEquality)
{
    // min 2x + 3y s.t. x + y == 10, x <= 6 -> (6, 4), obj 24.
    Model m;
    Var x = m.addVar(0, 6, VarType::Continuous, "x");
    Var y = m.addVar(0, 1e30, VarType::Continuous, "y");
    m.addConstr(LinExpr().add(x, 1).add(y, 1), Sense::Eq, 10);
    m.setObjective(LinExpr().add(x, 2).add(y, 3), false);

    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_EQ(s.lpReplays, 0);
    EXPECT_NEAR(s.objective, 24.0, 1e-9);
}

TEST(Simplex, GreaterThanConstraints)
{
    // min x s.t. x >= 3.5 -> 3.5.
    Model m;
    Var x = m.addVar(0, 100, VarType::Continuous, "x");
    m.addConstr(LinExpr(x), Sense::Ge, 3.5);
    m.setObjective(LinExpr(x), false);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_EQ(s.lpReplays, 0);
    EXPECT_NEAR(s.value(x), 3.5, 1e-9);
}

TEST(Simplex, DetectsInfeasible)
{
    Model m;
    Var x = m.addVar(0, 1, VarType::Continuous, "x");
    m.addConstr(LinExpr(x), Sense::Ge, 2);
    m.setObjective(LinExpr(x), true);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    Model m;
    Var x = m.addVar(0, std::numeric_limits<double>::infinity(),
                     VarType::Continuous, "x");
    m.addConstr(LinExpr(x), Sense::Ge, 1);
    m.setObjective(LinExpr(x), true);
    EXPECT_EQ(solveLp(m).status, SolveStatus::Unbounded);
}

TEST(Simplex, ShiftedLowerBounds)
{
    // Variables with nonzero lower bounds are handled by shifting.
    Model m;
    Var x = m.addVar(2, 10, VarType::Continuous, "x");
    Var y = m.addVar(-5, 5, VarType::Continuous, "y");
    m.addConstr(LinExpr().add(x, 1).add(y, 1), Sense::Le, 6);
    m.setObjective(LinExpr().add(x, 1).add(y, 2), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    // Best: y at its cap contribution... x + y <= 6, max x + 2y ->
    // y = 4? y <= 5 and x >= 2: x=2, y=4 -> 10.
    EXPECT_NEAR(s.objective, 10.0, 1e-9);
    EXPECT_NEAR(s.value(x), 2.0, 1e-9);
    EXPECT_NEAR(s.value(y), 4.0, 1e-9);
}

TEST(Simplex, NegativeRhsNormalized)
{
    // x - y <= -1 with x, y in [0, 10]: feasible (y >= x + 1).
    Model m;
    Var x = m.addVar(0, 10, VarType::Continuous, "x");
    Var y = m.addVar(0, 10, VarType::Continuous, "y");
    m.addConstr(LinExpr().add(x, 1).add(y, -1), Sense::Le, -1);
    m.setObjective(LinExpr().add(x, 1), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.value(x), 9.0, 1e-9);
}

TEST(Simplex, DuplicateTermsAccumulate)
{
    // 2x expressed as x + x.
    Model m;
    Var x = m.addVar(0, 10, VarType::Continuous, "x");
    LinExpr e;
    e.add(x, 1).add(x, 1);
    m.addConstr(e, Sense::Le, 6);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.value(x), 3.0, 1e-9);
}

TEST(Simplex, OperatorSyntax)
{
    Model m;
    Var x = m.addVar(0, 4, VarType::Continuous, "x");
    Var y = m.addVar(0, 4, VarType::Continuous, "y");
    LinExpr e = 3.0 * x + 2.0 * LinExpr(y) - 1.0 * x;
    m.addConstr(e, Sense::Le, 10); // 2x + 2y <= 10
    m.setObjective(LinExpr(x) + LinExpr(y), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, DegenerateProblemTerminates)
{
    // Classic cycling-prone structure; Bland fallback must terminate.
    Model m;
    Var x1 = m.addVar(0, 1e30, VarType::Continuous);
    Var x2 = m.addVar(0, 1e30, VarType::Continuous);
    Var x3 = m.addVar(0, 1e30, VarType::Continuous);
    m.addConstr(LinExpr().add(x1, 0.5).add(x2, -5.5).add(x3, -2.5),
                Sense::Le, 0);
    m.addConstr(LinExpr().add(x1, 0.5).add(x2, -1.5).add(x3, -0.5),
                Sense::Le, 0);
    m.addConstr(LinExpr().add(x1, 1.0), Sense::Le, 1);
    m.setObjective(
        LinExpr().add(x1, 10).add(x2, -57).add(x3, -9), true);
    Solution s = solveLp(m);
    EXPECT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(Simplex, ReducedCostTiesEnterLowestIndex)
{
    // Dantzig pricing breaks exact reduced-cost ties toward the lowest
    // column: x1, x3 and x4 tie at 5 and x1 must take the shared row;
    // once they are priced out, x0 and x2 tie at 3 and x0 must enter.
    // Entering the highest tied index instead reaches the other
    // optimal vertex (x2 = 2, x4 = 4) with the same objective.
    const double inf = std::numeric_limits<double>::infinity();
    Model m;
    std::vector<Var> x;
    for (int j = 0; j < 6; ++j)
        x.push_back(m.addVar(0, inf, VarType::Continuous));
    m.addConstr(LinExpr().add(x[1], 1).add(x[3], 1).add(x[4], 1),
                Sense::Le, 4);
    m.addConstr(LinExpr().add(x[0], 1).add(x[2], 1), Sense::Le, 2);
    m.addConstr(LinExpr(x[5]), Sense::Le, 1);
    m.setObjective(LinExpr()
                       .add(x[0], 3)
                       .add(x[1], 5)
                       .add(x[2], 3)
                       .add(x[3], 5)
                       .add(x[4], 5)
                       .add(x[5], 1),
                   true);
    expectPinned(solveLp(m), 3, 27.0, {2, 4, 0, 0, 0, 1});
}

TEST(Simplex, ReducedCostTiesEnterLowestIndexInAnyListOrder)
{
    // Pricing scans a candidate list that a removal reorders: x0
    // enters first and leaves the list, and the last candidate, x3,
    // takes its slot ahead of x1. x1 and x3 then tie at 5 for the
    // shared row, and x1, the lower index, must enter although x3 is
    // listed first. Entering x3 reaches x3 = 4 at the same objective.
    const double inf = std::numeric_limits<double>::infinity();
    Model m;
    std::vector<Var> x;
    for (int j = 0; j < 4; ++j)
        x.push_back(m.addVar(0, inf, VarType::Continuous));
    m.addConstr(LinExpr(x[0]), Sense::Le, 2);
    m.addConstr(LinExpr().add(x[1], 1).add(x[3], 1), Sense::Le, 4);
    m.addConstr(LinExpr(x[2]), Sense::Le, 1);
    m.setObjective(
        LinExpr().add(x[0], 10).add(x[1], 5).add(x[2], 1).add(x[3], 5),
        true);
    expectPinned(solveLp(m), 3, 41.0, {2, 4, 1, 0});
}

TEST(Simplex, RatioTestNearTiesFollowRowOrder)
{
    // The rhs values sit within the pivot tolerance of one another, so
    // the ratio test meets ties that are not transitive: which row
    // leaves depends on the order the entering column's rows are
    // visited. Fill-in leaves that column's row list out of order, and
    // visiting it unsorted takes 7 pivots to a different vertex.
    const double inf = std::numeric_limits<double>::infinity();
    Model m;
    std::vector<Var> x;
    for (int j = 0; j < 5; ++j)
        x.push_back(m.addVar(0, inf, VarType::Continuous));
    m.addConstr(LinExpr()
                    .add(x[0], 1)
                    .add(x[1], 1)
                    .add(x[2], 1)
                    .add(x[3], 1)
                    .add(x[4], 1),
                Sense::Le, 1);
    m.addConstr(LinExpr().add(x[0], 4).add(x[4], 2).add(x[3], -2),
                Sense::Le, 1.2e-9);
    m.addConstr(LinExpr().add(x[1], -1).add(x[4], 3).add(x[0], 1),
                Sense::Le, 8e-10);
    m.addConstr(LinExpr().add(x[3], -1).add(x[0], 3).add(x[2], 3),
                Sense::Le, 4e-10);
    m.addConstr(LinExpr().add(x[3], 1).add(x[1], 2), Sense::Le, 1);
    m.addConstr(LinExpr().add(x[0], 4).add(x[4], 2), Sense::Le, 0);
    m.setObjective(LinExpr()
                       .add(x[0], 5)
                       .add(x[1], 1)
                       .add(x[2], 4)
                       .add(x[3], 5)
                       .add(x[4], 2),
                   true);
    expectPinned(solveLp(m), 5, 5.0, {0, 0, 0, 1, 0});
}

TEST(Simplex, CyclingLpFallsBackToBland)
{
    // Chvatal's example cycles under Dantzig pricing with the lowest
    // basis index leaving: after 3 * (rows + columns) = 30 stalled
    // pivots the solver must switch to Bland's first-improving column
    // to escape. Dantzig pricing alone would cycle to the iteration
    // limit.
    expectPinned(solveLp(chvatalCyclingLp()), 37, 1.0, {1, 0, 1, 0});
}

TEST(Simplex, ImprovingRunKeepsDantzigPricing)
{
    // The Klee-Minty cube takes 2^7 - 1 = 127 Dantzig pivots, each one
    // improving the objective, which is past the 3 * (7 + 14) = 63
    // stall threshold. The stall objective must track every basic
    // column with a cost so that no pivot looks stalled; a premature
    // switch to Bland's rule takes a shorter path.
    expectPinned(solveLp(kleeMintyLp()), 127, 1e12,
                 {0, 0, 0, 0, 0, 0, 1e12});
}

TEST(Simplex, PhasesPastBlandThresholdReplayInReusedWorkspace)
{
    // Both LPs run a phase past the Bland threshold, so each is cut off
    // untracked and replayed once with the stall objective summed. The
    // replay reuses a workspace a larger model left stale cells in and
    // must still hit the pins; an LP that stays under the threshold is
    // never replayed.
    LpWorkspace ws;
    auto solve = [&ws](const Model &m) {
        return solveLp(m, LpRows(m), m.lowerBounds(), m.upperBounds(), {},
                       ws);
    };
    const Solution large = solve(randomLp(60, 45, 7));
    EXPECT_EQ(large.status, SolveStatus::Optimal);
    EXPECT_EQ(large.lpReplays, 0);

    const Solution cycling = solve(chvatalCyclingLp());
    expectPinned(cycling, 37, 1.0, {1, 0, 1, 0});
    EXPECT_EQ(cycling.lpReplays, 1);

    const Solution cube = solve(kleeMintyLp());
    expectPinned(cube, 127, 1e12, {0, 0, 0, 0, 0, 0, 1e12});
    EXPECT_EQ(cube.lpReplays, 1);
}

TEST(Simplex, DuplicateTermsCancellingToZeroMidExpression)
{
    // Regression: 2x - 2x + 3x <= 6 accumulates through exactly 0.0;
    // the row assembly must still record the net 3.0 coefficient
    // rather than dropping the constraint.
    Model m;
    Var x = m.addVar(0, 100, VarType::Continuous, "x");
    LinExpr e;
    e.add(x, 2.0).add(x, -2.0).add(x, 3.0);
    m.addConstr(e, Sense::Le, 6.0);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 2.0, 1e-9);
}

TEST(Simplex, DuplicateTermsWithShiftedLowerBound)
{
    // Same cancellation pattern with a nonzero lower bound: the rhs
    // shift adjustment must use the net coefficient exactly once.
    Model m;
    Var x = m.addVar(1, 100, VarType::Continuous, "x");
    LinExpr e;
    e.add(x, 5.0).add(x, -5.0).add(x, 2.0);
    m.addConstr(e, Sense::Le, 10.0);
    m.setObjective(LinExpr(x), true);
    Solution s = solveLp(m);
    ASSERT_EQ(s.status, SolveStatus::Optimal);
    EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

TEST(Simplex, ReusedWorkspaceMatchesFreshSolves)
{
    // One workspace through a large model, a smaller one, an
    // infeasible one (early return after phase 1), an iteration-
    // limited one, the large model again, then back and forth across
    // 64 rows and 128 columns, then 300 solves of mixed shapes, so the
    // one-byte cell epoch wraps: each solve must match a fresh-
    // workspace solve bit for bit and leave every index list empty.
    const Model large = randomLp(60, 45, 7);
    const Model small = randomLp(12, 9, 8);
    Model infeasible = randomLp(20, 15, 9);
    infeasible.addConstr(LinExpr(Var{0}), Sense::Ge,
                         infeasible.ub(0) + 1.0);
    SolverOptions limited;
    limited.maxIters = 5;
    const Model below = randomLp(30, 30, 10);
    const Model above = randomLp(48, 30, 11);
    const auto [belowRows, belowCols] = tableauShape(below);
    const auto [aboveRows, aboveCols] = tableauShape(above);
    EXPECT_LT(belowRows, 64);
    EXPECT_GT(aboveRows, 64);
    EXPECT_LT(belowCols, 128);
    EXPECT_GT(aboveCols, 128);

    struct Case
    {
        const Model *model;
        SolverOptions opts;
        SolveStatus expect;
    };
    std::vector<Case> cases = {
        {&large, {}, SolveStatus::Optimal},
        {&small, {}, SolveStatus::Optimal},
        {&infeasible, {}, SolveStatus::Infeasible},
        {&large, limited, SolveStatus::IterLimit},
        {&large, {}, SolveStatus::Optimal},
        {&below, {}, SolveStatus::Optimal},
        {&above, {}, SolveStatus::Optimal},
        {&below, {}, SolveStatus::Optimal},
    };
    // The mixed shapes all lay out fewer cells than the large model,
    // which comes back exactly 255 solves later, at the same epoch:
    // the wrap must have cleared the stamps its first visit left on
    // the cells only it reaches.
    std::vector<Model> mixed;
    for (int k = 0; k < 10; ++k)
        mixed.push_back(randomLp(6 + 5 * k, 4 + 4 * (k * 3 % 10), 20 + k));
    for (int s = 0; s < 300; ++s) {
        const Model *m = s % 255 == 0 ? &large : &mixed[s * 7 % 10];
        cases.push_back({m, {}, SolveStatus::Optimal});
    }
    LpWorkspace ws;
    for (const Case &c : cases) {
        const Solution reused =
            solveLp(*c.model, LpRows(*c.model), c.model->lowerBounds(),
                    c.model->upperBounds(), c.opts, ws);
        EXPECT_EQ(reused.status, c.expect);
        expectSameBits(reused, solveLp(*c.model, c.opts));
        expectListsEmpty(ws);
    }
}

} // namespace
