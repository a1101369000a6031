#include "ilp/simplex.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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
    Tableau(const Model &model, const SolverOptions &opts,
            LpWorkspace &ws);
    /** Zeroes the listed cells: the workspace leaves all-zero. */
    ~Tableau();
    Tableau(const Tableau &) = delete;
    Tableau &operator=(const Tableau &) = delete;

    /** Load the tableau, run both phases; returns the LP status. */
    SolveStatus solve();

    /** Structural variable values (unshifted). */
    std::vector<double> extractValues() const;
    /** Objective value at the current basis. */
    double objectiveValue(const std::vector<double> &values) const;
    /** Total pivots performed. */
    int iters() const { return iters_; }

  private:
    /** Write the initial tableau into the (all-zero) buffers. */
    void load();
    /**
     * Add cell (i, j) to the index lists unless already listed. The
     * mark is set last, so a throwing push_back leaves no marked cell
     * the destructor cannot find.
     */
    void list(int i, int j)
    {
        unsigned char &mark =
            ws_.listed[static_cast<std::size_t>(i) * cols_ + j];
        if (!mark) {
            ws_.rowNz[i].push_back(j);
            ws_.colNz[j].push_back(i);
            mark = 1;
        }
    }
    void set(int i, int j, double v)
    {
        list(i, j);
        row(i)[j] = v;
    }
    bool pivotLoop(const std::vector<double> &cost, bool phase1);
    void pivot(int row, int col);
    /** Recompute the full reduced-cost row for the given cost vector. */
    void computeReducedRow(const std::vector<double> &cost);

    double *row(int i) { return ws_.a.data() + i * cols_; }
    const double *row(int i) const { return ws_.a.data() + i * cols_; }

    const Model &model_;
    const SolverOptions &opts_;
    LpWorkspace &ws_;
    int n_;               //!< Structural variables.
    int m_ = 0;           //!< Tableau rows.
    int cols_ = 0;        //!< Total tableau columns (without rhs).
    int first_artificial_ = 0;
    int iters_ = 0;
    bool unbounded_ = false;
};

Tableau::Tableau(const Model &model, const SolverOptions &opts,
                 LpWorkspace &ws)
    : model_(model), opts_(opts), ws_(ws), n_(model.numVars())
{
    ws_.shift.assign(n_, 0.0);
    for (int j = 0; j < n_; ++j) {
        smart_assert(std::isfinite(model.lb(j)),
                     "variable ", model.varName(j),
                     " needs a finite lower bound");
        ws_.shift[j] = model.lb(j);
    }

    // Assemble normalized rows (rhs >= 0) into the workspace CSR:
    // model constraints first, then finite-upper-bound rows. Duplicate
    // terms accumulate through the dense scratch.
    ws_.csrVals.clear();
    ws_.csrCols.clear();
    ws_.csrRowPtr.clear();
    ws_.rowRhs.clear();
    ws_.rowSense.clear();
    ws_.csrRowPtr.push_back(0);
    ws_.accum.assign(n_, 0.0);
    ws_.inRow.assign(n_, 0);
    ws_.touched.clear();

    int slacks = 0;
    int artificials = 0;
    auto sealRow = [&](Sense sense, double rhs) {
        if (rhs < 0) {
            rhs = -rhs;
            for (int j : ws_.touched)
                ws_.accum[j] = -ws_.accum[j];
            sense = sense == Sense::Le
                        ? Sense::Ge
                        : (sense == Sense::Ge ? Sense::Le : Sense::Eq);
        }
        for (int j : ws_.touched) {
            ws_.csrVals.push_back(ws_.accum[j]);
            ws_.csrCols.push_back(j);
            ws_.accum[j] = 0.0;
            ws_.inRow[j] = 0;
        }
        ws_.touched.clear();
        ws_.csrRowPtr.push_back(static_cast<int>(ws_.csrCols.size()));
        ws_.rowRhs.push_back(rhs);
        ws_.rowSense.push_back(static_cast<signed char>(sense));
        if (sense != Sense::Eq)
            ++slacks;
        if (sense != Sense::Le)
            ++artificials;
    };

    for (const auto &c : model.constraints()) {
        double rhs = c.rhs;
        for (const auto &[id, coeff] : c.expr.terms()) {
            // Membership is tracked explicitly: duplicate terms whose
            // running sum transits exactly 0.0 must not re-enter
            // touched, or the CSR would emit the column twice.
            if (!ws_.inRow[id]) {
                ws_.inRow[id] = 1;
                ws_.touched.push_back(id);
            }
            ws_.accum[id] += coeff;
        }
        for (int j : ws_.touched)
            rhs -= ws_.accum[j] * ws_.shift[j];
        sealRow(c.sense, rhs);
    }
    for (int j = 0; j < n_; ++j) {
        if (std::isfinite(model.ub(j))) {
            ws_.accum[j] = 1.0;
            ws_.inRow[j] = 1;
            ws_.touched.push_back(j);
            sealRow(Sense::Le, model.ub(j) - ws_.shift[j]);
        }
    }

    m_ = static_cast<int>(ws_.rowRhs.size());
    first_artificial_ = n_ + slacks;
    cols_ = n_ + slacks + artificials;

    // The buffers only ever grow; what they already hold is all-zero
    // (workspace invariant), and so are the grown parts.
    const std::size_t cells = static_cast<std::size_t>(m_) * cols_;
    if (ws_.a.size() < cells)
        ws_.a.resize(cells, 0.0);
    if (ws_.listed.size() < cells)
        ws_.listed.resize(cells, 0);
    if (ws_.rowNz.size() < static_cast<std::size_t>(m_))
        ws_.rowNz.resize(m_);
    if (ws_.colNz.size() < static_cast<std::size_t>(cols_))
        ws_.colNz.resize(cols_);
}

Tableau::~Tableau()
{
    for (int i = 0; i < m_; ++i) {
        double *r = row(i);
        unsigned char *marks =
            ws_.listed.data() + static_cast<std::size_t>(i) * cols_;
        for (int j : ws_.rowNz[i]) {
            r[j] = 0.0;
            marks[j] = 0;
        }
        ws_.rowNz[i].clear();
    }
    for (int j = 0; j < cols_; ++j)
        ws_.colNz[j].clear();
}

void
Tableau::load()
{
    ws_.rhs.assign(m_, 0.0);
    ws_.basis.assign(m_, 0);

    // Fill from the CSR plus slack/artificial columns.
    int slack_col = n_;
    int art_col = first_artificial_;
    for (int i = 0; i < m_; ++i) {
        for (int k = ws_.csrRowPtr[i]; k < ws_.csrRowPtr[i + 1]; ++k)
            set(i, ws_.csrCols[k], ws_.csrVals[k]);
        ws_.rhs[i] = ws_.rowRhs[i];
        switch (static_cast<Sense>(ws_.rowSense[i])) {
          case Sense::Le:
            set(i, slack_col, 1.0);
            ws_.basis[i] = slack_col++;
            break;
          case Sense::Ge:
            set(i, slack_col++, -1.0);
            set(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
          case Sense::Eq:
            set(i, art_col, 1.0);
            ws_.basis[i] = art_col++;
            break;
        }
    }
}

void
Tableau::computeReducedRow(const std::vector<double> &cost)
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
        for (int j : pcols) {
            list(i, j);
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
    computeReducedRow(cost);
    double *red = ws_.red.data();
    const int scan_end = phase1 ? cols_ : first_artificial_;

    while (iters_ < opts_.maxIters) {
        // Pricing: Dantzig unless stalling, then Bland.
        const bool bland = stall > bland_threshold;
        int enter = -1;
        double best = opts_.eps;
        for (int j = 0; j < scan_end; ++j) {
            if (red[j] > best) {
                enter = j;
                if (bland)
                    break;
                best = red[j];
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

        // Update reduced costs against the normalized pivot row.
        const double re = red[enter];
        const double *prow = row(leave);
        for (int j : ws_.rowNz[leave])
            red[j] -= re * prow[j];
        red[enter] = 0.0;

        // Stall detection for the Bland fallback.
        double obj = 0.0;
        for (int i = 0; i < m_; ++i)
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
    std::vector<double> y(cols_, 0.0);
    for (int i = 0; i < m_; ++i)
        y[ws_.basis[i]] = ws_.rhs[i];
    std::vector<double> x(n_);
    for (int j = 0; j < n_; ++j)
        x[j] = y[j] + ws_.shift[j];
    return x;
}

double
Tableau::objectiveValue(const std::vector<double> &values) const
{
    double obj = 0.0;
    for (const auto &[id, c] : model_.objective().terms())
        obj += c * values[id];
    return obj;
}

} // namespace

Solution
solveLp(const Model &model, const SolverOptions &opts, LpWorkspace &ws)
{
    Tableau t(model, opts, ws);
    Solution sol;
    sol.status = t.solve();
    sol.simplexIters = t.iters();
    if (sol.status == SolveStatus::Optimal) {
        sol.values = t.extractValues();
        sol.objective = t.objectiveValue(sol.values);
    }
    return sol;
}

Solution
solveLp(const Model &model, const SolverOptions &opts)
{
    LpWorkspace ws;
    return solveLp(model, opts, ws);
}

} // namespace smart::ilp
