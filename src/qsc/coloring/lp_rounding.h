// The `lp-rounding` compression backend's split rule: a witness split
// posed as a small assignment LP solved by the in-tree simplex, then
// rounded (the Limbo LPColoring recipe — relax the combinatorial choice,
// solve the LP, round the fractional solution). The backend is the
// RothkoRefiner engine with this rule (coloring/backend.cc), so witness
// selection and the monotone step are Rothko's.
//
// The rule groups the members by witness weight (quantile-merged to at
// most 256 groups), then solves
//
//     maximize  sum_g (w_g - mid) * x_g
//     s.t.      0 <= x_g <= count_g            (fractional membership)
//               1 <= sum_g x_g <= N - 1        (both sides non-empty)
//
// where mid is the weight midrange (lo+hi)/2. The LP pushes every group
// above the midrange fully into the new color and every group below fully
// out; the coupling row forces a boundary group fractional exactly when a
// pure midrange threshold would leave one side empty. Rounding ejects a
// group iff x_g >= count_g / 2. The cut is therefore a *midrange*
// threshold — genuinely different from rothko's mean split and bucket's
// median-rank split.
//
// Determinism: groups are built from sorted distinct weights, the LP is a
// fixed function of the witness, and SolveSimplex is deterministic. If
// the solver ever fails to return an optimum (it cannot on this bounded
// feasible family, but the rule does not rely on that), the rule falls
// back to the plain midrange threshold.

#ifndef QSC_COLORING_LP_ROUNDING_H_
#define QSC_COLORING_LP_ROUNDING_H_

#include <vector>

#include "qsc/graph/graph_view.h"

namespace qsc {

// A SplitRule (coloring/rothko.h): appends to `eject` the members whose
// rounded LP membership puts them above the witness-weight midrange.
void LpRoundingSplit(const GraphView& g, const std::vector<NodeId>& members,
                     const std::vector<double>& values,
                     std::vector<NodeId>* eject);

}  // namespace qsc

#endif  // QSC_COLORING_LP_ROUNDING_H_
