#include "ilp/model.hh"

#include "common/logging.hh"

namespace smart::ilp
{

LinExpr &
LinExpr::add(Var v, double coeff)
{
    terms_.emplace_back(v.id, coeff);
    return *this;
}

LinExpr &
LinExpr::operator+=(const LinExpr &other)
{
    terms_.insert(terms_.end(), other.terms_.begin(), other.terms_.end());
    return *this;
}

LinExpr &
LinExpr::operator-=(const LinExpr &other)
{
    for (const auto &[id, c] : other.terms_)
        terms_.emplace_back(id, -c);
    return *this;
}

LinExpr &
LinExpr::operator*=(double k)
{
    for (auto &[id, c] : terms_)
        c *= k;
    return *this;
}

LinExpr
operator+(LinExpr a, const LinExpr &b)
{
    a += b;
    return a;
}

LinExpr
operator-(LinExpr a, const LinExpr &b)
{
    a -= b;
    return a;
}

LinExpr
operator*(double k, Var v)
{
    LinExpr e;
    e.add(v, k);
    return e;
}

LinExpr
operator*(double k, LinExpr e)
{
    e *= k;
    return e;
}

Var
Model::addVar(double lb, double ub, VarType type, const std::string &name)
{
    smart_assert(lb <= ub, "variable '", name, "' has lb ", lb, " > ub ",
                 ub);
    lb_.push_back(lb);
    ub_.push_back(ub);
    types_.push_back(type);
    names_.push_back(name.empty()
                         ? "x" + std::to_string(lb_.size() - 1)
                         : name);
    return Var{static_cast<int>(lb_.size() - 1)};
}

Var
Model::addBinary(const std::string &name)
{
    return addVar(0.0, 1.0, VarType::Binary, name);
}

void
Model::addConstr(const LinExpr &expr, Sense sense, double rhs,
                 const std::string &name)
{
    for (const auto &[id, c] : expr.terms()) {
        smart_assert(id >= 0 && id < numVars(),
                     "constraint '", name, "' references unknown var ",
                     id);
        (void)c;
    }
    constrs_.push_back(Constraint{expr, sense, rhs, name});
}

void
Model::setObjective(const LinExpr &expr, bool maximize)
{
    objective_ = expr;
    maximize_ = maximize;
}

double
Model::objectiveAt(const std::vector<double> &values) const
{
    double obj = 0.0;
    for (const auto &[id, c] : objective_.terms())
        obj += c * values[id];
    return obj;
}

void
Model::setBounds(int id, double lb, double ub)
{
    smart_assert(id >= 0 && id < numVars(), "unknown variable ", id);
    smart_assert(lb <= ub, "bounds cross for variable ", id);
    lb_[id] = lb;
    ub_[id] = ub;
}

} // namespace smart::ilp
