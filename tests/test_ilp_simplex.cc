/**
 * @file
 * Tests for the LP simplex: textbook problems, degeneracy, bounds,
 * infeasibility, unboundedness, and workspace reuse.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

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

/** The workspace invariant: tableau and list marks zero, lists empty. */
void
expectClean(const LpWorkspace &ws)
{
    EXPECT_TRUE(std::all_of(ws.a.begin(), ws.a.end(),
                            [](double v) { return v == 0.0; }));
    EXPECT_TRUE(std::all_of(ws.listed.begin(), ws.listed.end(),
                            [](unsigned char c) { return c == 0; }));
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
    // limited one, then the large model again: each solve must match
    // a fresh-workspace solve bit for bit and leave the buffers zero.
    const Model large = randomLp(60, 45, 7);
    const Model small = randomLp(12, 9, 8);
    Model infeasible = randomLp(20, 15, 9);
    infeasible.addConstr(LinExpr(Var{0}), Sense::Ge,
                         infeasible.ub(0) + 1.0);
    SolverOptions limited;
    limited.maxIters = 5;

    struct Case
    {
        const Model *model;
        SolverOptions opts;
        SolveStatus expect;
    };
    const Case cases[] = {
        {&large, {}, SolveStatus::Optimal},
        {&small, {}, SolveStatus::Optimal},
        {&infeasible, {}, SolveStatus::Infeasible},
        {&large, limited, SolveStatus::IterLimit},
        {&large, {}, SolveStatus::Optimal},
    };
    LpWorkspace ws;
    for (const Case &c : cases) {
        const Solution reused = solveLp(*c.model, c.opts, ws);
        EXPECT_EQ(reused.status, c.expect);
        expectSameBits(reused, solveLp(*c.model, c.opts));
        expectClean(ws);
    }
}

} // namespace
