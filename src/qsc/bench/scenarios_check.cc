// The "check" scenario group: small seeded instances, one per scenario,
// each swept through its area's pipeline (eval/pipelines.h) and through
// the DifferentialRunner's invariant suite (eval/differential.h). The
// per-budget pipeline metrics and the check count are counters, so the
// baseline gate pins them bit for bit; an invariant violation fails the
// run (ScenarioResult::failures). Every paper claim is relative to an
// exact solver, and this group is where those oracles are cross-checked.
//
// The three pipelines/ end-to-end sweeps draw their instances from the
// same table.

#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "qsc/bench/scenario.h"
#include "qsc/eval/differential.h"
#include "qsc/eval/pipelines.h"
#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"

namespace qsc {
namespace bench {
namespace {

// One instance of an application area: a flow network, an LP, or a graph
// to rank by betweenness centrality.
using Instance = std::variant<FlowInstance, LpProblem, Graph>;

struct CheckWorkload {
  const char* name;
  const char* description;
  std::vector<ColorId> budgets;  // the default sweep
  // Builds the instance from Rng(seed); fixed datasets ignore the Rng.
  Instance (*generate)(Rng& rng);
};

Instance SegGrid(Rng& rng) { return SegmentationGridNetwork(48, 24, 2, rng); }
Instance Grid(Rng& rng) { return GridFlowNetwork(16, 8, 10, 30, rng); }
Instance Layered(Rng&) { return LayeredDiagonalNetwork(6, 12); }
Instance QapLp(Rng& rng) { return MakeQapLikeLp(5, rng.Next()); }
Instance WideLp(Rng& rng) { return MakeWideSupportLp(6, rng.Next()); }
Instance PowerLaw(Rng& rng) { return PowerLawGraph(600, 2400, 2.6, rng); }
Instance Ba(Rng& rng) { return BarabasiAlbert(400, 3, rng); }
Instance Karate(Rng&) { return KarateClub(); }

Instance BlockLp(Rng& rng) {
  BlockLpSpec spec;
  spec.num_row_groups = 4;
  spec.num_col_groups = 4;
  spec.rows_per_group = 6;
  spec.cols_per_group = 6;
  spec.seed = rng.Next();
  return MakeBlockLp(spec);
}

const std::vector<CheckWorkload>& CheckWorkloads() {
  static const std::vector<CheckWorkload> kWorkloads = {
      {"check/maxflow-seg-grid",
       "48x24 segmentation grid with 2 foreground objects (small "
       "Tsukuba-style instance)",
       {5, 10, 20, 35}, SegGrid},
      {"check/maxflow-grid",
       "16x8 4-connected grid network with random integer capacities",
       {5, 10, 20, 40}, Grid},
      {"check/maxflow-layered",
       "Example-7 layered diagonal network (adversarial gap between the "
       "Theorem-6 bounds); ignores the seed",
       {4, 8, 14}, Layered},
      {"check/lp-qap", "qap15-style assignment polytope stand-in, scale 5",
       {8, 16, 30}, QapLp},
      {"check/lp-block", "block-structured LP, 4x4 groups of 6, 5% noise",
       {8, 16, 32}, BlockLp},
      {"check/lp-wide", "supportcase10-style wide LP (cols >> rows), scale 6",
       {8, 16, 30}, WideLp},
      {"check/centrality-powerlaw",
       "Chung-Lu power-law graph, 600 nodes / ~2400 edges, gamma 2.6",
       {10, 25, 50}, PowerLaw},
      {"check/centrality-ba",
       "Barabasi-Albert preferential attachment, 400 nodes, 3 edges per "
       "node",
       {10, 25, 50}, Ba},
      {"check/centrality-karate",
       "Zachary's karate club (real dataset, Figure 1); ignores the seed",
       {4, 6, 10}, Karate},
  };
  return kWorkloads;
}

const CheckWorkload& FindCheckWorkload(const std::string& name) {
  for (const CheckWorkload& w : CheckWorkloads()) {
    if (name == w.name) return w;
  }
  QSC_CHECK(false);  // the pipelines/ scenarios name table entries
  return CheckWorkloads().front();
}

Instance Instantiate(const CheckWorkload& w, uint64_t seed) {
  Rng rng(seed);
  return w.generate(rng);
}

std::vector<eval::RunMetrics> RunPipeline(const Instance& instance,
                                          const eval::EvalOptions& options,
                                          const std::vector<ColorId>& budgets) {
  if (const auto* flow = std::get_if<FlowInstance>(&instance)) {
    return eval::RunMaxFlowPipeline(*flow, options, budgets);
  }
  if (const auto* lp = std::get_if<LpProblem>(&instance)) {
    return eval::RunLpPipeline(*lp, options, budgets);
  }
  return eval::RunCentralityPipeline(std::get<Graph>(instance), options,
                                     budgets);
}

eval::DifferentialReport RunChecks(const Instance& instance,
                                   const eval::EvalOptions& options,
                                   const std::vector<ColorId>& budgets) {
  const eval::DifferentialRunner runner(options);
  if (const auto* flow = std::get_if<FlowInstance>(&instance)) {
    return runner.CheckMaxFlow(*flow, budgets);
  }
  if (const auto* lp = std::get_if<LpProblem>(&instance)) {
    return runner.CheckLp(*lp, budgets);
  }
  return runner.CheckCentrality(std::get<Graph>(instance), budgets);
}

std::string BudgetKey(ColorId budget, const char* metric) {
  return "b" + std::to_string(budget) + "_" + metric;
}

// Per-budget counters of a sweep: colors, max q, and the area's error
// metric (Spearman's rho for centrality, else the relative error). With
// `values`, also the approximate value per budget and the exact value once
// (flow and LP only).
std::vector<std::pair<std::string, double>> SweepCounters(
    const Instance& instance, const std::vector<eval::RunMetrics>& runs,
    bool values) {
  const bool centrality = std::holds_alternative<Graph>(instance);
  std::vector<std::pair<std::string, double>> counters;
  if (values && !centrality && !runs.empty()) {
    counters.emplace_back("exact", runs.front().exact_value);
  }
  for (const eval::RunMetrics& m : runs) {
    counters.emplace_back(BudgetKey(m.color_budget, "colors"),
                          static_cast<double>(m.num_colors));
    counters.emplace_back(BudgetKey(m.color_budget, "max_q"), m.max_q);
    if (centrality) {
      counters.emplace_back(BudgetKey(m.color_budget, "rho"),
                            m.rank_correlation);
    } else {
      counters.emplace_back(BudgetKey(m.color_budget, "rel_err"),
                            m.relative_error);
      if (values) {
        counters.emplace_back(BudgetKey(m.color_budget, "approx"),
                              m.approx_value);
      }
    }
  }
  return counters;
}

// One timed unit is the pipeline sweep plus the invariant suite. The
// pipelines run on the default pool, so the CI counter-identity gate
// (--threads 1 vs 4) covers them under a pool too.
void RegisterCheck(const CheckWorkload& w) {
  Scenario::Info info;
  info.name = w.name;
  info.group = "check";
  info.description = w.description;
  info.smoke = true;
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [&w](const BenchContext& ctx) {
        const Instance instance = Instantiate(w, ctx.seed);
        eval::EvalOptions options;
        options.seed = ctx.seed;
        options.pool = DefaultPool();
        std::vector<eval::RunMetrics> runs;
        eval::DifferentialReport report;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          runs = RunPipeline(instance, options, w.budgets);
          report = RunChecks(instance, options, w.budgets);
        });
        r.counters = SweepCounters(instance, runs, /*values=*/true);
        r.counters.emplace_back("checks", static_cast<double>(report.checks));
        r.counters.emplace_back("violations",
                                static_cast<double>(report.violations.size()));
        for (const eval::InvariantViolation& v : report.violations) {
          r.failures.push_back("[" + v.invariant + "] " + v.detail);
        }
        return r;
      }));
}

// End-to-end sweep over a check/ instance: one timed unit is the full
// budget sweep (exact oracle, then coloring + reduction + solve at every
// budget).
void RegisterPipeline(const char* name, const char* description,
                      const char* instance_name) {
  Scenario::Info info;
  info.name = name;
  info.group = "pipelines";
  info.description = description;
  info.smoke = true;
  const CheckWorkload& w = FindCheckWorkload(instance_name);
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [&w](const BenchContext& ctx) {
        const Instance instance = Instantiate(w, ctx.seed);
        eval::EvalOptions options;
        options.seed = ctx.seed;
        std::vector<eval::RunMetrics> runs;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          runs = RunPipeline(instance, options, w.budgets);
        });
        r.counters = SweepCounters(instance, runs, /*values=*/false);
        return r;
      }));
}

}  // namespace

void RegisterCheckScenarios() {
  for (const CheckWorkload& w : CheckWorkloads()) RegisterCheck(w);
  RegisterPipeline("pipelines/flow-seg-grid",
                   "end-to-end max-flow pipeline on the "
                   "check/maxflow-seg-grid instance",
                   "check/maxflow-seg-grid");
  RegisterPipeline("pipelines/lp-qap",
                   "end-to-end LP pipeline on the check/lp-qap instance",
                   "check/lp-qap");
  RegisterPipeline("pipelines/centrality-powerlaw",
                   "end-to-end centrality pipeline on the "
                   "check/centrality-powerlaw instance",
                   "check/centrality-powerlaw");
}

}  // namespace bench
}  // namespace qsc
