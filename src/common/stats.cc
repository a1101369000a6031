#include "common/stats.hh"

#include <cmath>

#include "common/logging.hh"

namespace smart
{

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        smart_assert(x > 0.0, "geomean requires positive inputs, got ", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace smart
