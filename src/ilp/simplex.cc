#include "ilp/simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "common/logging.hh"

namespace smart::ilp
{

const char *
statusName(SolveStatus s)
{
    switch (s) {
      case SolveStatus::Optimal:
        return "optimal";
      case SolveStatus::Infeasible:
        return "infeasible";
      case SolveStatus::Unbounded:
        return "unbounded";
      case SolveStatus::IterLimit:
        return "iteration-limit";
      case SolveStatus::NodeLimit:
        return "node-limit";
    }
    smart_panic("unknown status");
}

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Two-phase simplex over buffers owned by an LpWorkspace. All per-solve
 * state lives in the workspace so repeated solves (the B&B node loop)
 * touch the allocator only when the model grows.
 */
class Tableau
{
  public:
    /** Untracked (!@p track_stall), a phase stops at the Bland threshold. */
    Tableau(const Model &model, const LpRows &rows,
            const std::vector<double> &lb, const std::vector<double> &ub,
            const SolverOptions &opts, LpWorkspace &ws, bool track_stall);
    /** Empties the index lists (workspace invariant). */
    ~Tableau();
    Tableau(const Tableau &) = delete;
    Tableau &operator=(const Tableau &) = delete;

    /** Load the tableau, run both phases; returns the LP status. */
    SolveStatus solve();

    /** Structural variable values (unshifted). */
    std::vector<double> extractValues() const;
    /** Total pivots performed. */
    int iters() const { return iters_; }
    /** An untracked phase reached the Bland threshold. */
    bool stalled() const { return stalled_; }

  private:
    /** Write the initial tableau; no cell is listed yet. */
    void load();
    /** List cell (i, j), which this solve has not listed, as @p v. */
    void list(int i, int j, double v)
    {
        ws_.rowNz[i].push_back(j);
        ws_.colNz[j].push_back(i);
        row(i)[j] = v;
        ws_.listed[static_cast<std::size_t>(i) * cols_ + j] = ws_.epoch;
    }
    bool pivotLoop(const std::vector<double> &cost, bool phase1);
    void pivot(int row, int col);
    /**
     * Recompute the reduced costs for @p cost and the candidate list
     * over columns [0, scan_end).
     */
    void computeReducedRow(const std::vector<double> &cost, int scan_end);
    /** List column @p j as a candidate iff its reduced cost is > eps. */
    void refile(int j)
    {
        int &pos = ws_.candPos[j];
        if (ws_.red[j] > opts_.eps) {
            if (pos < 0) {
                pos = static_cast<int>(ws_.cand.size());
                ws_.cand.push_back(j);
            }
        } else if (pos >= 0) {
            const int last = ws_.cand.back();
            ws_.cand[pos] = last;
            ws_.candPos[last] = pos;
            ws_.cand.pop_back();
            pos = -1;
        }
    }

    double *row(int i) { return ws_.a.data() + i * cols_; }
    const double *row(int i) const { return ws_.a.data() + i * cols_; }

    const Model &model_;
    const LpRows &rows_;
    const std::vector<double> &lb_; //!< Also each column's shift.
    const std::vector<double> &ub_;
    const SolverOptions &opts_;
    LpWorkspace &ws_;
    int n_;               //!< Structural variables.
    int m_ = 0;           //!< Tableau rows.
    int cols_ = 0;        //!< Total tableau columns (without rhs).
    int first_artificial_ = 0;
    int iters_ = 0;
    bool unbounded_ = false;
    bool track_stall_;
    bool stalled_ = false;
};

Tableau::Tableau(const Model &model, const LpRows &rows,
                 const std::vector<double> &lb,
                 const std::vector<double> &ub, const SolverOptions &opts,
                 LpWorkspace &ws, bool track_stall)
    : model_(model), rows_(rows), lb_(lb), ub_(ub), opts_(opts), ws_(ws),
      n_(model.numVars()), track_stall_(track_stall)
{
    for (int j = 0; j < n_; ++j)
        smart_assert(std::isfinite(lb[j]), "variable ", model.varName(j),
                     " needs a finite lower bound");

    // Shift each row's rhs by the lower bounds: model constraints
    // first, then finite-upper-bound rows. A negative rhs flips the
    // row at load, which decides whether it needs an artificial.
    ws_.rowRhs.clear();
    int slacks = 0;
    int artificials = 0;
    auto shifted = [&](Sense sense, double rhs) {
        ws_.rowRhs.push_back(rhs);
        if (sense != Sense::Eq)
            ++slacks;
        if (sense != (rhs < 0 ? Sense::Ge : Sense::Le))
            ++artificials;
    };
    const std::vector<Constraint> &constrs = model.constraints();
    for (std::size_t i = 0; i < constrs.size(); ++i) {
        double rhs = constrs[i].rhs;
        for (int k = rows.start[i]; k < rows.start[i + 1]; ++k)
            rhs -= rows.vals[k] * lb[rows.cols[k]];
        shifted(constrs[i].sense, rhs);
    }
    for (int j = 0; j < n_; ++j)
        if (std::isfinite(ub[j]))
            shifted(Sense::Le, ub[j] - lb[j]);

    m_ = static_cast<int>(ws_.rowRhs.size());
    first_artificial_ = n_ + slacks;
    cols_ = n_ + slacks + artificials;

    // The buffers only ever grow. A fresh epoch unlists every cell;
    // when it wraps, the stamps of the last 255 solves are cleared.
    const std::size_t cells = static_cast<std::size_t>(m_) * cols_;
    if (ws_.a.size() < cells)
        ws_.a.resize(cells, 0.0);
    if (ws_.listed.size() < cells)
        ws_.listed.resize(cells, 0);
    if (++ws_.epoch == 0) {
        std::fill(ws_.listed.begin(), ws_.listed.end(), 0);
        ws_.epoch = 1;
    }
    if (ws_.rowNz.size() < static_cast<std::size_t>(m_))
        ws_.rowNz.resize(m_);
    if (ws_.colNz.size() < static_cast<std::size_t>(cols_))
        ws_.colNz.resize(cols_);
}

Tableau::~Tableau()
{
    for (int i = 0; i < m_; ++i)
        ws_.rowNz[i].clear();
    for (int j = 0; j < cols_; ++j)
        ws_.colNz[j].clear();
}

void
Tableau::load()
{
    ws_.rhs.assign(m_, 0.0);
    ws_.basis.assign(m_, 0);

    // Structural cells are listed as whole blocks: each column's rows
    // (before any upper-bound row) and each row's columns (before its
    // slack/artificial), then valued and marked in one pass.
    for (int j = 0; j < n_; ++j)
        ws_.colNz[j].assign(rows_.colRows.begin() + rows_.colStart[j],
                            rows_.colRows.begin() + rows_.colStart[j + 1]);

    // Each row is normalized to rhs >= 0 (negating its terms and
    // flipping its sense), then gets its slack/artificial columns. Rows
    // past the model's constraints bound the finite-ub columns, in order.
    int slack_col = n_;
    int art_col = first_artificial_;
    const std::vector<Constraint> &constrs = model_.constraints();
    for (int i = 0, ub_col = 0; i < m_; ++i) {
        const bool flip = ws_.rowRhs[i] < 0;
        Sense sense = Sense::Le;
        if (i < static_cast<int>(constrs.size())) {
            sense = constrs[i].sense;
            const int *cols = rows_.cols.data();
            ws_.rowNz[i].assign(cols + rows_.start[i],
                                cols + rows_.start[i + 1]);
            unsigned char *marks =
                ws_.listed.data() + static_cast<std::size_t>(i) * cols_;
            for (int k = rows_.start[i]; k < rows_.start[i + 1]; ++k) {
                row(i)[cols[k]] = flip ? -rows_.vals[k] : rows_.vals[k];
                marks[cols[k]] = ws_.epoch;
            }
        } else {
            while (!std::isfinite(ub_[ub_col]))
                ++ub_col;
            list(i, ub_col++, flip ? -1.0 : 1.0);
        }
        ws_.rhs[i] = flip ? -ws_.rowRhs[i] : ws_.rowRhs[i];
        if (flip && sense != Sense::Eq)
            sense = sense == Sense::Le ? Sense::Ge : Sense::Le;
        switch (sense) {
          case Sense::Le:
            list(i, slack_col, 1.0);
            ws_.basis[i] = slack_col++;
            break;
          case Sense::Ge:
            list(i, slack_col++, -1.0);
            list(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
          case Sense::Eq:
            list(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
        }
    }
}

void
Tableau::computeReducedRow(const std::vector<double> &cost, int scan_end)
{
    ws_.red.assign(cost.begin(), cost.begin() + cols_);
    double *red = ws_.red.data();
    for (int i = 0; i < m_; ++i) {
        const double cb = cost[ws_.basis[i]];
        if (cb == 0.0)
            continue;
        const double *r = row(i);
        for (int j : ws_.rowNz[i])
            red[j] -= cb * r[j];
    }

    ws_.cand.clear();
    ws_.candPos.assign(cols_, -1);
    for (int j = 0; j < scan_end; ++j)
        refile(j);
}

void
Tableau::pivot(int prow_idx, int col)
{
    double *prow = row(prow_idx);
    const std::vector<int> &pcols = ws_.rowNz[prow_idx];
    const double p = prow[col];
    for (int j : pcols)
        prow[j] /= p;
    ws_.rhs[prow_idx] /= p;
    // Fill-in appends to rowNz[i] (i != prow_idx) and to colNz[j] for
    // cells not yet listed, never to colNz[col]: every row walked here
    // already lists col.
    for (int i : ws_.colNz[col]) {
        if (i == prow_idx)
            continue;
        double *r = row(i);
        const double f = r[col];
        if (f == 0.0)
            continue;
        const unsigned char *marks =
            ws_.listed.data() + static_cast<std::size_t>(i) * cols_;
        const unsigned char epoch = ws_.epoch;
        for (int j : pcols) {
            if (marks[j] != epoch)
                list(i, j, 0.0);
            r[j] -= f * prow[j];
        }
        ws_.rhs[i] -= f * ws_.rhs[prow_idx];
        // Clamp tiny negative residues from cancellation.
        if (ws_.rhs[i] < 0 && ws_.rhs[i] > -opts_.eps)
            ws_.rhs[i] = 0.0;
    }
    ws_.basis[prow_idx] = col;
}

bool
Tableau::pivotLoop(const std::vector<double> &cost, bool phase1)
{
    const int bland_threshold = 3 * (m_ + cols_);
    int stall = 0;
    double last_obj = -kInf;

    // Reduced costs are maintained incrementally across pivots (the
    // classic objective-row trick); recomputing per candidate would be
    // O(m * n) per pricing pass.
    const int scan_end = phase1 ? cols_ : first_artificial_;
    computeReducedRow(cost, scan_end);
    double *red = ws_.red.data();

    while (iters_ < opts_.maxIters) {
        // Pricing: Dantzig over the candidates unless stalling, then
        // Bland. Dantzig takes the largest reduced cost, and among
        // equals the lowest index, as an ascending scan would.
        int enter = -1;
        if (stall > bland_threshold) {
            if (!track_stall_) {
                stalled_ = true;
                return false;
            }
            for (int j = 0; j < scan_end; ++j) {
                if (red[j] > opts_.eps) {
                    enter = j;
                    break;
                }
            }
        } else {
            double best = -kInf;
            for (int j : ws_.cand) {
                if (red[j] > best || (red[j] == best && j < enter)) {
                    best = red[j];
                    enter = j;
                }
            }
        }
        if (enter < 0)
            return true; // optimal for this phase

        // Ratio test (Bland tie-break on basis index). The eps ties
        // depend on visiting order, so walk the column's rows sorted.
        int leave = -1;
        double best_ratio = kInf;
        std::vector<int> &erows = ws_.colNz[enter];
        std::sort(erows.begin(), erows.end());
        for (int i : erows) {
            const double aie = row(i)[enter];
            if (aie > opts_.eps) {
                const double ratio = ws_.rhs[i] / aie;
                if (ratio < best_ratio - opts_.eps ||
                    (ratio < best_ratio + opts_.eps && leave >= 0 &&
                     ws_.basis[i] < ws_.basis[leave])) {
                    best_ratio = ratio;
                    leave = i;
                }
            }
        }
        if (leave < 0) {
            unbounded_ = true;
            return true;
        }

        pivot(leave, enter);
        ++iters_;

        // Update reduced costs against the normalized pivot row (it
        // lists enter itself), then re-file the columns that moved.
        const double re = red[enter];
        const double *prow = row(leave);
        const std::vector<int> &pcols = ws_.rowNz[leave];
        for (int j : pcols)
            red[j] -= re * prow[j];
        red[enter] = 0.0;
        for (int j : pcols)
            if (j < scan_end)
                refile(j);

        // Stall detection for the Bland fallback, summed in ascending
        // row order over the rows whose basic column has a cost.
        // Untracked, every pivot counts: a bound on the tracked stall.
        if (!track_stall_) {
            ++stall;
            continue;
        }
        double obj = 0.0;
        for (int i = 0; i < m_; ++i)
            if (cost[ws_.basis[i]] != 0.0)
                obj += cost[ws_.basis[i]] * ws_.rhs[i];
        if (obj > last_obj + opts_.eps) {
            last_obj = obj;
            stall = 0;
        } else {
            ++stall;
        }
    }
    return false; // iteration limit
}

SolveStatus
Tableau::solve()
{
    load();

    // Phase 1: maximize -sum(artificials).
    if (first_artificial_ < cols_) {
        ws_.cost.assign(cols_, 0.0);
        for (int j = first_artificial_; j < cols_; ++j)
            ws_.cost[j] = -1.0;
        if (!pivotLoop(ws_.cost, true))
            return SolveStatus::IterLimit;
        double infeas = 0.0;
        for (int i = 0; i < m_; ++i)
            if (ws_.basis[i] >= first_artificial_)
                infeas += ws_.rhs[i];
        if (infeas > 1e-7)
            return SolveStatus::Infeasible;
        // Drive remaining zero-level artificials out of the basis with
        // the lowest structural/slack column that can pivot.
        for (int i = 0; i < m_; ++i) {
            if (ws_.basis[i] < first_artificial_)
                continue;
            int repl = -1;
            const double *r = row(i);
            for (int j : ws_.rowNz[i]) {
                if (j < first_artificial_ && (repl < 0 || j < repl) &&
                    std::fabs(r[j]) > opts_.eps)
                    repl = j;
            }
            if (repl >= 0)
                pivot(i, repl);
            // else: redundant row; the artificial stays basic at zero.
        }
    }

    // Phase 2: the real objective over structural columns.
    ws_.cost.assign(cols_, 0.0);
    const double dir = model_.maximize() ? 1.0 : -1.0;
    for (const auto &[id, c] : model_.objective().terms())
        ws_.cost[id] += dir * c;
    unbounded_ = false;
    if (!pivotLoop(ws_.cost, false))
        return SolveStatus::IterLimit;
    if (unbounded_)
        return SolveStatus::Unbounded;
    return SolveStatus::Optimal;
}

std::vector<double>
Tableau::extractValues() const
{
    std::vector<double> x(n_, 0.0);
    for (int i = 0; i < m_; ++i)
        if (ws_.basis[i] < n_)
            x[ws_.basis[i]] = ws_.rhs[i];
    for (int j = 0; j < n_; ++j)
        x[j] += lb_[j];
    return x;
}

} // namespace

LpRows::LpRows(const Model &model)
{
    // Duplicate terms accumulate through dense scratch. Membership is
    // tracked explicitly: duplicate terms whose running sum transits
    // exactly 0.0 must not re-enter touched, or the row would list the
    // column twice.
    std::vector<double> accum(model.numVars(), 0.0);
    std::vector<unsigned char> in_row(model.numVars(), 0);
    std::vector<int> touched;
    start.push_back(0);
    for (const auto &c : model.constraints()) {
        for (const auto &[id, coeff] : c.expr.terms()) {
            if (!in_row[id]) {
                in_row[id] = 1;
                touched.push_back(id);
            }
            accum[id] += coeff;
        }
        for (int j : touched) {
            cols.push_back(j);
            vals.push_back(accum[j]);
            accum[j] = 0.0;
            in_row[j] = 0;
        }
        touched.clear();
        start.push_back(static_cast<int>(cols.size()));
    }

    // Counting sort, filled in row order so each column's rows ascend.
    // Column j's cursor colStart[j + 1] runs from j's offset to j + 1's,
    // so the filled vector, less its last slot, holds the offsets.
    colStart.assign(model.numVars() + 2, 0);
    for (int j : cols)
        ++colStart[j + 2];
    std::partial_sum(colStart.begin(), colStart.end(), colStart.begin());
    colRows.resize(cols.size());
    for (std::size_t i = 0; i + 1 < start.size(); ++i)
        for (int k = start[i]; k < start[i + 1]; ++k)
            colRows[colStart[cols[k] + 1]++] = static_cast<int>(i);
    colStart.pop_back();
}

Solution
solveLp(const Model &model, const LpRows &rows,
        const std::vector<double> &lb, const std::vector<double> &ub,
        const SolverOptions &opts, LpWorkspace &ws)
{
    Solution sol;
    std::optional<Tableau> t(std::in_place, model, rows, lb, ub, opts, ws,
                             false);
    sol.status = t->solve();
    if (t->stalled()) {
        // Replay the whole LP with the stall objective tracked.
        t.emplace(model, rows, lb, ub, opts, ws, true);
        sol.status = t->solve();
        sol.lpReplays = 1;
    }
    sol.simplexIters = t->iters();
    if (sol.status == SolveStatus::Optimal) {
        sol.values = t->extractValues();
        sol.objective = model.objectiveAt(sol.values);
    }
    return sol;
}

Solution
solveLp(const Model &model, const SolverOptions &opts)
{
    LpWorkspace ws;
    return solveLp(model, LpRows(model), model.lowerBounds(),
                   model.upperBounds(), opts, ws);
}

} // namespace smart::ilp
