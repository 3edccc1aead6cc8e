#include "qsc/eval/differential.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <utility>

#include "qsc/api/compressor.h"
#include "qsc/centrality/brandes.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/backend.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/incremental.h"
#include "qsc/flow/dinic.h"
#include "qsc/flow/edmonds_karp.h"
#include "qsc/flow/min_cut.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"

namespace qsc {
namespace eval {
namespace {

// Tolerance for "equal" double-precision objective values of magnitude v.
double EqTol(double v) { return 1e-9 * std::max(1.0, std::abs(v)); }

std::string Fmt(const char* format, double a, double b) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), format, a, b);
  return buf;
}

struct Checker {
  DifferentialReport* report;

  void Expect(bool condition, const char* invariant, std::string detail) {
    ++report->checks;
    if (!condition) report->violations.push_back({invariant, std::move(detail)});
  }
};

// Resolves a raw EvalOptions::backend to its registered canonical name;
// an unresolvable name is a reported violation, not an abort, so a bad
// backend name shows up in the differential report like any other finding.
bool ResolveBackendName(const std::string& raw, std::string* canonical,
                        Checker& check) {
  const StatusOr<std::string> name = CanonicalBackendName(raw);
  const bool ok =
      name.ok() && ColoringBackendRegistry::Global().Contains(*name);
  check.Expect(ok, "coloring/backend-registered",
               "'" + raw + "' does not name a registered coloring backend");
  if (ok) *canonical = *name;
  return ok;
}

// Borrows a caller-owned graph for a Compressor session (the aliasing
// shared_ptr constructor; the instance outlives the session here).
std::shared_ptr<const Graph> Borrow(const Graph& g) {
  return std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g);
}

// Budget-capped anytime refinement — the ColoringCache's up-budget loop.
void RefineTo(ColoringBackend& backend, ColorId budget) {
  while (backend.partition().num_colors() < budget && backend.Step(budget)) {
  }
}

bool SamePartition(const Partition& a, const Partition& b, NodeId n) {
  bool identical = a.num_colors() == b.num_colors();
  for (NodeId v = 0; identical && v < n; ++v) {
    identical = a.ColorOf(v) == b.ColorOf(v);
  }
  return identical;
}

}  // namespace

std::string DifferentialReport::Summary() const {
  if (ok()) {
    return std::to_string(checks) + " checks, 0 violations";
  }
  std::string out = std::to_string(violations.size()) + " violation(s) in " +
                    std::to_string(checks) + " checks:";
  for (const InvariantViolation& v : violations) {
    out += "\n  [" + v.invariant + "] " + v.detail;
  }
  return out;
}

DifferentialRunner::DifferentialRunner(EvalOptions options)
    : options_(std::move(options)) {}

void DifferentialRunner::CheckColoringAnytime(
    const Graph& g, double alpha, double beta,
    DifferentialReport& report) const {
  Checker check{&report};
  std::string name;
  if (!ResolveBackendName(options_.backend, &name, check)) return;

  ColoringParams params;
  params.alpha = alpha;
  params.beta = beta;
  params.split_mean = options_.split_mean;
  ColoringBackendRegistry& registry = ColoringBackendRegistry::Global();
  std::unique_ptr<ColoringBackend> backend =
      registry.Create(name, g, Partition::Trivial(g.num_nodes()), params);
  double prev_error = backend->CurrentMaxError();
  ColorId prev_colors = backend->partition().num_colors();
  int steps = 0;
  while (steps < 40 && backend->Step()) {
    ++steps;
    const double error = backend->CurrentMaxError();
    const ColorId colors = backend->partition().num_colors();
    check.Expect(error <= prev_error + 1e-9, "coloring/anytime-monotone",
                 Fmt("Step() raised CurrentMaxError %.12g -> %.12g", prev_error,
                     error));
    check.Expect(colors > prev_colors, "coloring/colors-increasing",
                 Fmt("Step() left the color count at %.0f (was %.0f)",
                     static_cast<double>(colors),
                     static_cast<double>(prev_colors)));
    prev_error = error;
    prev_colors = colors;
  }

  // Determinism / resume-equals-fresh: replaying the same number of
  // uncapped steps from the same initial partition must reproduce the
  // partition bit-for-bit.
  std::unique_ptr<ColoringBackend> replay =
      registry.Create(name, g, Partition::Trivial(g.num_nodes()), params);
  for (int i = 0; i < steps; ++i) replay->Step();
  bool identical =
      replay->partition().num_colors() == backend->partition().num_colors();
  for (NodeId v = 0; identical && v < g.num_nodes(); ++v) {
    identical =
        replay->partition().ColorOf(v) == backend->partition().ColorOf(v);
  }
  check.Expect(identical, "coloring/deterministic-replay",
               Fmt("replaying %.0f steps produced a different partition "
                   "(%.0f colors)",
                   static_cast<double>(steps),
                   static_cast<double>(replay->partition().num_colors())));

  // Rothko-specific telemetry: the split history's color counts are
  // strictly increasing. Other backends do not expose a history.
  if (const auto* rothko = dynamic_cast<const RothkoRefiner*>(backend.get())) {
    ColorId hist_colors = 0;
    for (const RothkoStep& s : rothko->history()) {
      check.Expect(s.num_colors > hist_colors,
                   "rothko/history-colors-increasing",
                   Fmt("history color count %.0f after %.0f",
                       static_cast<double>(s.num_colors),
                       static_cast<double>(hist_colors)));
      hist_colors = s.num_colors;
    }
  }
}

DifferentialReport DifferentialRunner::CheckMaxFlow(
    const FlowInstance& instance, std::vector<ColorId> budgets) const {
  budgets = NormalizeBudgets(std::move(budgets));
  DifferentialReport report;
  Checker check{&report};

  const Graph& g = instance.graph;
  const double dinic = MaxFlowDinic(g, instance.source, instance.sink);
  const double ek = MaxFlowEdmondsKarp(g, instance.source, instance.sink);
  const double pr = MaxFlowPushRelabel(g, instance.source, instance.sink);
  check.Expect(std::abs(dinic - ek) <= EqTol(pr), "flow/solver-agreement",
               Fmt("Dinic %.12g vs Edmonds-Karp %.12g", dinic, ek));
  check.Expect(std::abs(dinic - pr) <= EqTol(pr), "flow/solver-agreement",
               Fmt("Dinic %.12g vs push-relabel %.12g", dinic, pr));

  const MinCutResult cut = MinCut(g, instance.source, instance.sink);
  check.Expect(std::abs(cut.value - pr) <= EqTol(pr), "flow/min-cut-duality",
               Fmt("min cut %.12g vs max flow %.12g", cut.value, pr));

  // The approximate side runs through a Compressor session, so the sweep
  // also exercises the coloring cache's anytime continuation for the
  // selected backend (ascending budgets continue one cached refiner).
  Compressor session(Borrow(g));
  double first_bound = 0.0, last_bound = 0.0;
  bool have_bounds = false;
  for (const ColorId budget : budgets) {
    QueryOptions query;
    query.max_colors = budget;
    query.split_mean = options_.split_mean;
    query.backend = options_.backend;
    query.compute_lower_bound = options_.compute_flow_lower_bound;
    const StatusOr<FlowQueryResult> approx =
        session.MaxFlow(instance.source, instance.sink, query);
    check.Expect(approx.ok(), "flow/query-ok",
                 approx.ok() ? "" : approx.status().ToString());
    if (!approx.ok()) continue;
    check.Expect(approx->upper_bound >= pr - EqTol(pr),
                 "flow/reduced-upper-bound",
                 Fmt("c^2 bound %.12g below exact %.12g", approx->upper_bound,
                     pr));
    if (options_.compute_flow_lower_bound) {
      check.Expect(approx->lower_bound <= pr + 1e-4 * std::max(1.0, pr),
                   "flow/reduced-lower-bound",
                   Fmt("c^1 bound %.12g above exact %.12g", approx->lower_bound,
                       pr));
    }
    if (!have_bounds) {
      first_bound = approx->upper_bound;
      have_bounds = true;
    }
    last_bound = approx->upper_bound;
  }
  check.Expect(!have_bounds || last_bound <= first_bound + EqTol(first_bound),
               "flow/anytime-improvement",
               Fmt("finest bound %.12g above coarsest %.12g", last_bound,
                   first_bound));

  CheckColoringAnytime(g, /*alpha=*/0.0, /*beta=*/0.0, report);
  return report;
}

DifferentialReport DifferentialRunner::CheckLp(
    const LpProblem& lp, std::vector<ColorId> budgets) const {
  budgets = NormalizeBudgets(std::move(budgets));
  DifferentialReport report;
  Checker check{&report};

  const LpResult simplex = SolveSimplex(lp);
  const IpmResult ipm = SolveInteriorPoint(lp);
  check.Expect(simplex.status == LpStatus::kOptimal, "lp/simplex-optimal",
               "simplex did not reach optimality");
  check.Expect(ipm.status == LpStatus::kOptimal, "lp/ipm-optimal",
               "interior point did not reach optimality");
  if (simplex.status == LpStatus::kOptimal &&
      ipm.status == LpStatus::kOptimal) {
    check.Expect(RelativeError(simplex.objective, ipm.objective) <= 1.0 + 1e-3,
                 "lp/oracle-agreement",
                 Fmt("simplex %.12g vs interior point %.12g", simplex.objective,
                     ipm.objective));
  }

  // Direct LpColoringRefiner construction aborts on an unresolvable
  // backend, so resolve it here and report instead.
  std::string backend_name;
  if (!ResolveBackendName(options_.backend, &backend_name, check)) {
    return report;
  }
  LpReduceOptions reduce_options;
  reduce_options.split_mean = options_.split_mean;
  reduce_options.backend = backend_name;
  LpColoringRefiner refiner(lp, reduce_options);
  for (const ColorId budget : budgets) {
    const ReducedLp reduced = refiner.ReduceTo(std::max<ColorId>(budget, 4));
    // Note: max_q is NOT asserted monotone across capped budgets — a color
    // cap can truncate a monotone refinement step mid-recovery, so only
    // the uncapped Step() contract (CheckColoringAnytime) is guaranteed.
    check.Expect(std::isfinite(reduced.max_q) && reduced.max_q >= 0.0,
                 "lp/q-error-valid",
                 Fmt("matrix q-error %.12g at budget %.0f", reduced.max_q,
                     static_cast<double>(budget)));

    const LpResult red = SolveSimplex(reduced.lp);
    check.Expect(red.status == LpStatus::kOptimal, "lp/reduced-solvable",
                 "reduced LP did not reach optimality");
    if (red.status != LpStatus::kOptimal) continue;

    // LiftSolution reproduces the reduced objective in the original
    // objective exactly (both reduction variants).
    const std::vector<double> lifted = LiftSolution(reduced, red.x);
    const double lifted_obj = Objective(lp, lifted);
    check.Expect(std::abs(lifted_obj - red.objective) <= EqTol(red.objective),
                 "lp/lift-objective-roundtrip",
                 Fmt("lifted objective %.12g vs reduced %.12g", lifted_obj,
                     red.objective));

    // Theorem 1: a stable (q = 0) coloring loses nothing.
    if (reduced.max_q <= 1e-9 && simplex.status == LpStatus::kOptimal) {
      check.Expect(
          std::abs(red.objective - simplex.objective) <=
              1e-6 * std::max(1.0, std::abs(simplex.objective)),
          "lp/stable-exactness",
          Fmt("q=0 reduction got %.12g, exact %.12g", red.objective,
              simplex.objective));
    }
  }

  // Full refinement is the identity reduction: an unlimited budget drives
  // the matrix-graph coloring stable (q = 0), and the reduced LP must then
  // reproduce the exact optimum (Theorem 1 — the direction the paper
  // guarantees).
  {
    const ColorId full = static_cast<ColorId>(lp.num_rows + lp.num_cols + 2);
    const ReducedLp reduced = refiner.ReduceTo(full);
    check.Expect(reduced.max_q <= 1e-9, "lp/full-refinement-stable",
                 Fmt("max_q %.12g at the full budget %.0f", reduced.max_q,
                     static_cast<double>(full)));
    if (simplex.status == LpStatus::kOptimal) {
      const LpResult red = SolveSimplex(reduced.lp);
      check.Expect(red.status == LpStatus::kOptimal, "lp/reduced-solvable",
                   "fully refined LP did not reach optimality");
      if (red.status == LpStatus::kOptimal) {
        check.Expect(std::abs(red.objective - simplex.objective) <=
                         1e-6 * std::max(1.0, std::abs(simplex.objective)),
                     "lp/full-refinement-exact",
                     Fmt("full refinement got %.12g, exact %.12g",
                         red.objective, simplex.objective));
      }
    }
  }

  return report;
}

DifferentialReport DifferentialRunner::CheckCentrality(
    const Graph& g, std::vector<ColorId> budgets) const {
  budgets = NormalizeBudgets(std::move(budgets));
  DifferentialReport report;
  Checker check{&report};

  const std::vector<double> exact = BetweennessExact(g);

  // Degenerate differential oracle: one singleton color per node makes the
  // color-pivot estimator pick every node as its own pivot with weight 1,
  // which IS Brandes' algorithm.
  ColorPivotOptions discrete_options;
  discrete_options.seed = options_.seed;
  const ApproxBetweennessResult discrete = ApproximateBetweennessWithColoring(
      g, Partition::Discrete(g.num_nodes()), discrete_options);
  double worst = 0.0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    worst = std::max(worst, std::abs(discrete.scores[v] - exact[v]));
  }
  check.Expect(worst <= 1e-6, "centrality/discrete-equals-brandes",
               Fmt("max |approx - exact| = %.12g (n = %.0f)", worst,
                   static_cast<double>(g.num_nodes())));

  // As with max-flow, the approximate side runs through a session so the
  // sweep exercises the selected backend's cache continuation.
  Compressor session(Borrow(g));
  for (const ColorId budget : budgets) {
    QueryOptions query;
    query.max_colors = budget;
    query.split_mean = options_.split_mean;
    query.backend = options_.backend;
    query.seed = options_.seed;
    const StatusOr<CentralityQueryResult> approx = session.Centrality(query);
    check.Expect(approx.ok(), "centrality/query-ok",
                 approx.ok() ? "" : approx.status().ToString());
    if (!approx.ok()) continue;
    check.Expect(static_cast<NodeId>(approx->scores.size()) == g.num_nodes(),
                 "centrality/score-shape", "score vector size mismatch");
    bool finite_nonneg = true;
    for (const double s : approx->scores) {
      finite_nonneg = finite_nonneg && std::isfinite(s) && s >= -1e-9;
    }
    check.Expect(finite_nonneg, "centrality/scores-finite",
                 "non-finite or negative betweenness score");
    const double rho = SpearmanCorrelation(approx->scores, exact);
    check.Expect(rho >= -1.0 - 1e-9 && rho <= 1.0 + 1e-9,
                 "centrality/rho-range", Fmt("rho = %.12g (budget %.0f)", rho,
                                             static_cast<double>(budget)));
  }

  CheckColoringAnytime(g, /*alpha=*/1.0, /*beta=*/1.0, report);
  return report;
}

DifferentialReport DifferentialRunner::CheckDynamic(
    const Graph& g, const DynamicCheckOptions& dyn) const {
  DifferentialReport report;
  Checker check{&report};
  std::string name;
  if (!ResolveBackendName(options_.backend, &name, check)) return report;

  const std::vector<ColorId> budgets{4, 8, 16, 32};
  ColoringParams params;
  params.split_mean = options_.split_mean;
  params.q_tolerance = dyn.q_tolerance;

  const StatusOr<std::vector<std::vector<dynamic::EditOp>>> batches =
      dynamic::GenerateEditBatches(g, dyn.stream);
  check.Expect(batches.ok(), "dynamic/edit-stream-generates",
               batches.ok() ? "" : batches.status().ToString());
  if (!batches.ok()) return report;

  const NodeId n = g.num_nodes();
  auto current = std::make_shared<const Graph>(g);
  dynamic::IncrementalRecolorer inc(current, name, Partition::Trivial(n),
                                    params);
  // Warm to the top budget, as a session serving the sweep would.
  for (const ColorId budget : budgets) RefineTo(inc, budget);

  ColoringBackendRegistry& registry = ColoringBackendRegistry::Global();
  dynamic::RepairOptions repair;
  repair.max_repair_splits = dyn.max_repair_splits;

  for (size_t bi = 0; bi < batches->size(); ++bi) {
    const std::vector<dynamic::EditOp>& batch = (*batches)[bi];
    StatusOr<Graph> next = dynamic::ApplyEditBatch(*current, batch);
    check.Expect(next.ok(), "dynamic/edit-batch-applies",
                 next.ok() ? "" : next.status().ToString());
    if (!next.ok()) return report;
    current = std::make_shared<const Graph>(std::move(next).value());

    const dynamic::RepairOutcome outcome =
        inc.ApplyGraph(current, batch, repair);
    check.Expect(outcome.repaired == outcome.converged,
                 "dynamic/repair-outcome-consistent",
                 Fmt("repaired %.0f but converged %.0f",
                     outcome.repaired ? 1.0 : 0.0,
                     outcome.converged ? 1.0 : 0.0));
    check.Expect(dyn.q_tolerance > 0.0 || !outcome.repaired,
                 "dynamic/zero-tolerance-falls-back",
                 "q_tolerance = 0 batch reported a repair");
    check.Expect(outcome.repaired || outcome.splits == 0,
                 "dynamic/fallback-spends-no-splits",
                 Fmt("fallback reported %.0f repair splits",
                     static_cast<double>(outcome.splits), 0.0));

    // A from-scratch refiner on the mutated graph, swept over the same
    // ascending budgets the incremental side serves.
    std::unique_ptr<ColoringBackend> scratch =
        registry.Create(name, *current, Partition::Trivial(n), params);
    for (const ColorId budget : budgets) {
      RefineTo(inc, budget);
      RefineTo(*scratch, budget);
      const double q_inc = inc.CurrentMaxError();
      const double q_scratch = scratch->CurrentMaxError();
      check.Expect(q_inc <= std::max(q_scratch, dyn.q_tolerance),
                   "dynamic/q-error-bound",
                   Fmt("incremental q %.12g above max(scratch %.12g, tol)",
                       q_inc, q_scratch));
      if (!outcome.repaired) {
        check.Expect(
            SamePartition(inc.partition(), scratch->partition(), n),
            "dynamic/fallback-bitwise-scratch",
            Fmt("fallback partition differs from scratch at budget %.0f "
                "(batch %.0f)",
                static_cast<double>(budget), static_cast<double>(bi)));
      }
    }
  }
  return report;
}

}  // namespace eval
}  // namespace qsc
