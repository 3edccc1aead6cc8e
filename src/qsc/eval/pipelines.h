// The three "graph -> coloring -> application -> error vs. exact"
// pipeline drivers shared by Workload::Run, qsc_bench's paper/ scenarios,
// and the differential layer. Each driver times the exact oracle once,
// then sweeps the coloring approximation over ascending color budgets
// through one qsc::Compressor session, so each budget *continues* the
// cached coloring (bit-identical to a fresh run per budget — the anytime
// property). approx_seconds is the incremental session cost of one budget
// (resume coloring + reduction + solve), comparable across areas; the
// sweep total is the compress-once-query-many cost of serving every
// budget.

#ifndef QSC_EVAL_PIPELINES_H_
#define QSC_EVAL_PIPELINES_H_

#include <vector>

#include "qsc/eval/workload.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {
namespace eval {

// Exact flow via options.flow_solver; approximation via ApproximateMaxFlow
// (upper bound; Theorem-6 lower bound when options.compute_flow_lower_bound).
std::vector<RunMetrics> RunMaxFlowPipeline(const FlowInstance& instance,
                                           const EvalOptions& options,
                                           std::vector<ColorId> budgets);

// Exact LP via options.lp_oracle; approximation reduces the LP via
// q-stable coloring at each budget and solves the reduced LP with simplex.
std::vector<RunMetrics> RunLpPipeline(const LpProblem& lp,
                                      const EvalOptions& options,
                                      std::vector<ColorId> budgets);

// Exact betweenness via Brandes; approximation via the color-pivot
// estimator. rank_correlation is Spearman's rho against the exact scores.
std::vector<RunMetrics> RunCentralityPipeline(const Graph& g,
                                              const EvalOptions& options,
                                              std::vector<ColorId> budgets);

}  // namespace eval
}  // namespace qsc

#endif  // QSC_EVAL_PIPELINES_H_
