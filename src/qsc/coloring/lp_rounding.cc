#include "qsc/coloring/lp_rounding.h"

#include <algorithm>
#include <cstdint>

#include "qsc/lp/model.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/check.h"

namespace qsc {
namespace {

// Cap on LP columns per split; larger witness colors are quantile-merged.
constexpr int64_t kMaxGroups = 256;

}  // namespace

void LpRoundingSplit(const GraphView& /*g*/, const std::vector<NodeId>& members,
                     const std::vector<double>& values,
                     std::vector<NodeId>* eject) {
  const int64_t n = static_cast<int64_t>(members.size());
  QSC_CHECK_EQ(n, static_cast<int64_t>(values.size()));

  // Distinct witness weights, ascending; quantile-merge to <= kMaxGroups.
  std::vector<double> distinct = values;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const int64_t num_distinct = static_cast<int64_t>(distinct.size());
  const int64_t num_groups = std::min<int64_t>(num_distinct, kMaxGroups);
  auto group_of_weight = [&](double w) -> int64_t {
    const int64_t rank =
        std::lower_bound(distinct.begin(), distinct.end(), w) -
        distinct.begin();
    return rank * num_groups / num_distinct;
  };

  std::vector<int64_t> count(num_groups, 0);
  std::vector<double> sum(num_groups, 0.0);
  std::vector<int64_t> member_group(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t g = group_of_weight(values[i]);
    member_group[i] = g;
    ++count[g];
    sum[g] += values[i];
  }
  const double mid = (distinct.front() + distinct.back()) / 2.0;

  // maximize sum_g (w_g - mid) x_g  s.t.  x_g <= count_g,
  // sum x_g <= N-1, -sum x_g <= -1, x >= 0.
  LpProblem lp;
  lp.num_cols = static_cast<int32_t>(num_groups);
  lp.num_rows = static_cast<int32_t>(num_groups) + 2;
  for (int32_t g = 0; g < lp.num_cols; ++g) {
    lp.c.push_back(sum[g] / static_cast<double>(count[g]) - mid);
    lp.entries.push_back({g, g, 1.0});
    lp.entries.push_back({lp.num_cols, g, 1.0});
    lp.entries.push_back({lp.num_cols + 1, g, -1.0});
    lp.b.push_back(static_cast<double>(count[g]));
  }
  lp.b.push_back(static_cast<double>(n - 1));
  lp.b.push_back(-1.0);

  const LpResult result = SolveSimplex(lp);
  std::vector<char> ejected(num_groups, 0);
  if (result.status == LpStatus::kOptimal) {
    for (int64_t g = 0; g < num_groups; ++g) {
      ejected[g] = result.x[g] + 1e-9 >= static_cast<double>(count[g]) / 2.0;
    }
  } else {
    // Unreachable on this bounded feasible family; deterministic anyway.
    for (int64_t g = 0; g < num_groups; ++g) {
      ejected[g] = sum[g] / static_cast<double>(count[g]) > mid;
    }
  }
  // A rounding that collapses one side is clamped by the engine.
  for (int64_t i = 0; i < n; ++i) {
    if (ejected[member_group[i]]) eject->push_back(members[i]);
  }
}

}  // namespace qsc
