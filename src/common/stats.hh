/**
 * @file
 * Statistics helper for the benches: the geometric mean behind the
 * paper's "gmean" columns.
 */

#ifndef SMART_COMMON_STATS_HH
#define SMART_COMMON_STATS_HH

#include <vector>

namespace smart
{

/**
 * Geometric mean; all inputs must be > 0 (the paper's "gmean" columns).
 * Returns 0 for an empty range.
 */
double geomean(const std::vector<double> &xs);

} // namespace smart

#endif // SMART_COMMON_STATS_HH
