// The three "graph -> coloring -> application -> error vs. exact"
// pipeline drivers shared by qsc_bench's check/, pipelines/ and paper/
// scenarios. The paper's claims are all relative — a reduced-graph answer
// is judged against an exact solver under an error budget — so every
// experiment shares one pipeline shape:
//
//   instance (generator or dataset, keyed by a uint64 seed)
//     -> exact oracle (timed)
//     -> quasi-stable coloring at a sweep of color budgets
//     -> approximate solve per budget
//     -> error metrics (q-error, relative value error, rank correlation)
//
// Each driver times the exact oracle once, then sweeps the coloring
// approximation over ascending color budgets through one qsc::Compressor
// session, so each budget *continues* the cached coloring (bit-identical
// to a fresh run per budget — the anytime property). approx_seconds is the
// incremental session cost of one budget (resume coloring + reduction +
// solve), comparable across areas; the sweep total is the
// compress-once-query-many cost of serving every budget.

#ifndef QSC_EVAL_PIPELINES_H_
#define QSC_EVAL_PIPELINES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {
namespace eval {

// Cross-cutting run configuration of the pipelines and the differential
// runner. Everything that influences metric values is deterministic given
// this struct; wall-clock timings are the only nondeterministic outputs.
struct EvalOptions {
  // Seed of the centrality pivot sampling (and, by the scenarios'
  // convention, of the instance generator).
  uint64_t seed = 1;

  // Split-mean rule for the colorings (paper Sec 5.2).
  RothkoOptions::SplitMean split_mean =
      RothkoOptions::SplitMean::kArithmetic;

  // Compression backend producing the colorings (coloring/backend.h); ""
  // means the default (rothko). Must canonicalize to a registered name —
  // the pipelines route it through the Compressor boundary, which
  // validates. Part of every metric value's provenance: different
  // backends give different colorings and therefore different metrics.
  std::string backend;

  // Also compute the Theorem-6 lower bound for max-flow
  // (expensive: one maxUFlow bisection per color pair).
  bool compute_flow_lower_bound = false;

  // Optional worker pool for the pipeline sessions. Not owned. Metric
  // values are bit-identical for any pool size — the qsc/parallel
  // determinism contract — so this is pure wall-clock.
  ThreadPool* pool = nullptr;
};

// Metrics for one (instance, color budget) pipeline run. Fields that do
// not apply to an area are NaN.
struct RunMetrics {
  ColorId color_budget = 0;  // requested budget
  ColorId num_colors = 0;    // achieved colors (LP: rows + cols + pinned)

  // Max q-error of the coloring (for LPs: of the extended-matrix graph).
  double max_q = 0.0;

  double exact_value = 0.0;   // oracle objective / flow value (NaN: n/a)
  double approx_value = 0.0;  // reduced-problem value (NaN: n/a)
  double lower_bound = 0.0;   // Theorem-6 flow lower bound (NaN unless on)

  // Paper error metrics: max(v/v^, v^/v) for flow and LP values, Spearman
  // rank correlation for centrality.
  double relative_error = 0.0;
  double rank_correlation = 0.0;

  // Wall-clock seconds; excluded from reproducibility comparisons.
  double exact_seconds = 0.0;
  double approx_seconds = 0.0;
};

// Canonical budget sweep: sorted ascending, duplicates removed; aborts on
// an empty list. Shared by the pipeline drivers and the differential
// runner so every consumer agrees on the sweep.
std::vector<ColorId> NormalizeBudgets(std::vector<ColorId> budgets);

// Exact flow via push-relabel (the paper's Sec 6.1 baseline);
// approximation via ApproximateMaxFlow (upper bound; Theorem-6 lower bound
// when options.compute_flow_lower_bound).
std::vector<RunMetrics> RunMaxFlowPipeline(const FlowInstance& instance,
                                           const EvalOptions& options,
                                           std::vector<ColorId> budgets);

// Exact LP via the interior-point solver (the paper's baseline);
// approximation reduces the LP via q-stable coloring at each budget and
// solves the reduced LP with simplex.
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
