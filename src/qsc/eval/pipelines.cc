#include "qsc/eval/pipelines.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "qsc/api/compressor.h"
#include "qsc/centrality/brandes.h"
#include "qsc/coloring/q_error.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/lp/interior_point.h"
#include "qsc/util/check.h"
#include "qsc/util/stats.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace eval {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Borrow a caller-owned graph for a pipeline-lifetime session.
std::shared_ptr<const Graph> Borrow(const Graph& g) {
  return std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g);
}

}  // namespace

std::vector<ColorId> NormalizeBudgets(std::vector<ColorId> budgets) {
  QSC_CHECK(!budgets.empty());
  std::sort(budgets.begin(), budgets.end());
  budgets.erase(std::unique(budgets.begin(), budgets.end()), budgets.end());
  return budgets;
}

std::vector<RunMetrics> RunMaxFlowPipeline(const FlowInstance& instance,
                                           const EvalOptions& options,
                                           std::vector<ColorId> budgets) {
  budgets = NormalizeBudgets(std::move(budgets));
  WallTimer timer;
  const double exact =
      MaxFlowPushRelabel(instance.graph, instance.source, instance.sink);
  const double exact_seconds = timer.ElapsedSeconds();

  // One session across the whole sweep: each budget continues the cached
  // refinement (bit-identical to a fresh coloring per budget), so
  // approx_seconds is the *incremental* session cost of that budget
  // (resume coloring + reduce + solve).
  Compressor session(Borrow(instance.graph), options.pool);

  std::vector<RunMetrics> out;
  out.reserve(budgets.size());
  for (const ColorId budget : budgets) {
    QueryOptions query;
    query.max_colors = budget;
    query.split_mean = options.split_mean;
    query.backend = options.backend;
    query.compute_lower_bound = options.compute_flow_lower_bound;
    timer.Reset();
    const StatusOr<FlowQueryResult> approx =
        session.MaxFlow(instance.source, instance.sink, query);
    QSC_CHECK_OK(approx);
    const double approx_seconds = timer.ElapsedSeconds();

    RunMetrics m;
    m.color_budget = budget;
    m.num_colors = approx->num_colors;
    m.max_q = ComputeQError(instance.graph, *approx->coloring).max_q;
    m.exact_value = exact;
    m.approx_value = approx->upper_bound;
    m.lower_bound =
        options.compute_flow_lower_bound ? approx->lower_bound : kNaN;
    m.relative_error = RelativeError(exact, approx->upper_bound);
    m.rank_correlation = kNaN;
    m.exact_seconds = exact_seconds;
    m.approx_seconds = approx_seconds;
    out.push_back(m);
  }
  return out;
}

std::vector<RunMetrics> RunLpPipeline(const LpProblem& lp,
                                      const EvalOptions& options,
                                      std::vector<ColorId> budgets) {
  // The LP reduction needs >= 4 matrix-graph colors (the two pinned
  // singletons plus one row and one column color); raising a smaller
  // budget *before* normalization keeps the recorded color_budget equal to
  // the budget actually used, so num_colors <= color_budget stays true.
  for (ColorId& budget : budgets) budget = std::max<ColorId>(budget, 4);
  budgets = NormalizeBudgets(std::move(budgets));
  WallTimer timer;
  const IpmResult exact = SolveInteriorPoint(lp);
  const double exact_seconds = timer.ElapsedSeconds();
  const bool exact_ok = exact.status == LpStatus::kOptimal;

  // One LP-only session: ascending budgets resume the cached matrix-graph
  // refiner (the paper's Rothko-as-co-routine usage), bit-identical to a
  // fresh reduction per budget.
  Compressor session;

  std::vector<RunMetrics> out;
  out.reserve(budgets.size());
  for (const ColorId budget : budgets) {
    QueryOptions query;  // paper defaults: alpha=1, beta=0
    query.max_colors = budget;
    query.split_mean = options.split_mean;
    query.backend = options.backend;
    timer.Reset();
    const StatusOr<LpQueryResult> red = session.SolveLp(lp, query);
    QSC_CHECK_OK(red);
    const double approx_seconds = timer.ElapsedSeconds();
    const bool red_ok = red->solution.status == LpStatus::kOptimal;

    RunMetrics m;
    m.color_budget = budget;
    m.num_colors = static_cast<ColorId>(red->reduced.lp.num_rows +
                                        red->reduced.lp.num_cols + 2);
    m.max_q = red->reduced.max_q;
    m.exact_value = exact_ok ? exact.objective : kNaN;
    m.approx_value = red_ok ? red->solution.objective : kNaN;
    m.lower_bound = kNaN;
    m.relative_error =
        exact_ok && red_ok
            ? RelativeError(exact.objective, red->solution.objective)
            : kNaN;
    m.rank_correlation = kNaN;
    m.exact_seconds = exact_seconds;
    m.approx_seconds = approx_seconds;
    out.push_back(m);
  }
  return out;
}

std::vector<RunMetrics> RunCentralityPipeline(const Graph& g,
                                              const EvalOptions& options,
                                              std::vector<ColorId> budgets) {
  budgets = NormalizeBudgets(std::move(budgets));
  WallTimer timer;
  const std::vector<double> exact = BetweennessExact(g);
  const double exact_seconds = timer.ElapsedSeconds();

  Compressor session(Borrow(g), options.pool);

  std::vector<RunMetrics> out;
  out.reserve(budgets.size());
  for (const ColorId budget : budgets) {
    QueryOptions query;  // paper defaults: alpha=beta=1
    query.max_colors = budget;
    query.split_mean = options.split_mean;
    query.backend = options.backend;
    query.seed = options.seed;
    timer.Reset();
    const StatusOr<CentralityQueryResult> approx = session.Centrality(query);
    QSC_CHECK_OK(approx);
    const double approx_seconds = timer.ElapsedSeconds();

    RunMetrics m;
    m.color_budget = budget;
    m.num_colors = approx->num_colors;
    m.max_q = ComputeQError(g, *approx->coloring).max_q;
    m.exact_value = kNaN;
    m.approx_value = kNaN;
    m.lower_bound = kNaN;
    m.relative_error = kNaN;
    m.rank_correlation = SpearmanCorrelation(approx->scores, exact);
    m.exact_seconds = exact_seconds;
    m.approx_seconds = approx_seconds;
    out.push_back(m);
  }
  return out;
}

}  // namespace eval
}  // namespace qsc
