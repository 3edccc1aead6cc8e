// Cross-module integration tests: the full pipelines the paper evaluates,
// at small scale — driven through the qsc/eval pipeline drivers and
// qsc_bench's check/ scenarios (pipeline plus differential runner) for
// each of the three applications, plus the paper's headline robustness
// claim (Figure 2).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

#include "qsc/bench/scenario.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/eval/pipelines.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/perturb.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"

namespace qsc {
namespace {

using Counters = std::map<std::string, double>;

Counters RunCheck(const std::string& name, uint64_t seed) {
  bench::RegisterBuiltinScenarios();
  const bench::Scenario* scenario =
      bench::ScenarioRegistry::Global().Find(name);
  EXPECT_NE(scenario, nullptr) << name;
  if (scenario == nullptr) return {};
  bench::BenchContext ctx;
  ctx.seed = seed;
  ctx.measure = bench::kSingleShot;
  Counters out;
  for (const auto& [key, value] : scenario->Run(ctx).counters) {
    out[key] = value;
  }
  return out;
}

TEST(IntegrationTest, KarateFigure1) {
  // Stable coloring needs 27 colors; a quasi-stable coloring with q <= 3
  // gets by with ~6. The two leaders (nodes 0 and 33) end up separated
  // from the rank-and-file in the coarse coloring.
  const Graph g = KarateClub();
  EXPECT_EQ(StableColoring(g).num_colors(), 27);

  RothkoOptions options;
  options.max_colors = 6;
  const Partition p = RothkoColoring(g, options);
  EXPECT_EQ(p.num_colors(), 6);
  const double q = ComputeQError(g, p).max_q;
  EXPECT_LE(q, 6.0);  // small residual error at 6 colors
  // The leaders (highest-degree nodes) share a small color without the
  // low-degree members.
  EXPECT_LE(p.ColorSize(p.ColorOf(0)), 4);
  EXPECT_LE(p.ColorSize(p.ColorOf(33)), 4);
}

TEST(IntegrationTest, Figure2RobustnessClaim) {
  // Stable coloring shatters after perturbing a compressible graph with a
  // few random edges; q-stable coloring keeps compressing.
  Rng rng(21);
  const Graph g = BlockBiregularGraph(50, 10, 110, rng);  // n=500
  EXPECT_LE(StableColoring(g).num_colors(), 55);

  const Graph noisy = AddRandomEdges(g, 150, rng);  // ~1.4% of edges
  const ColorId stable_colors = StableColoring(noisy).num_colors();
  EXPECT_GT(stable_colors, 250);  // stable coloring degenerates

  RothkoOptions options;
  options.max_colors = 1000;
  options.q_tolerance = 4.0;
  const Partition q4 = RothkoColoring(noisy, options);
  EXPECT_LT(q4.num_colors(), 150);  // q-stable keeps compressing
  EXPECT_LE(ComputeQError(noisy, q4).max_q, 4.0);
}

TEST(IntegrationTest, MaxFlowPipelineAccuracy) {
  // The check/maxflow-grid scenario through the shared pipeline driver:
  // the c^2 reduction upper-bounds the exact flow and stays a sane
  // approximation at 40 colors.
  const Counters c = RunCheck("check/maxflow-grid", 22);
  ASSERT_EQ(c.count("b40_approx"), 1u);  // the finest budget is 40
  EXPECT_GE(c.at("b40_approx"), c.at("exact") - 1e-6);  // upper bound
  EXPECT_LE(c.at("b40_rel_err"), 2.0);
}

TEST(IntegrationTest, LpPipelineAccuracy) {
  eval::EvalOptions options;
  const LpProblem lp = MakeQapLikeLp(5, 31);
  const auto runs = eval::RunLpPipeline(lp, options, {30});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_LE(runs[0].relative_error, 1.6);
  // The same budget through ReduceLp directly (the pipeline's reduction
  // path): both dimensions individually shrink by more than half.
  LpReduceOptions reduce_options;
  reduce_options.max_colors = 30;
  const ReducedLp reduced = ReduceLp(lp, reduce_options);
  EXPECT_LT(reduced.lp.num_rows, lp.num_rows / 2);
  EXPECT_LT(reduced.lp.num_cols, lp.num_cols / 2);
  EXPECT_EQ(runs[0].num_colors,
            reduced.lp.num_rows + reduced.lp.num_cols + 2);
}

TEST(IntegrationTest, CentralityPipelineAccuracy) {
  Rng rng(23);
  const Graph g = PowerLawGraph(600, 2400, 2.6, rng);
  eval::EvalOptions options;
  const auto runs = eval::RunCentralityPipeline(g, options, {80});
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_GT(runs[0].rank_correlation, 0.8);
}

TEST(IntegrationTest, CheckScenariosPassDifferentialChecks) {
  // One check/ scenario per application area through the full invariant
  // suite (paper bound directions, oracle agreement, anytime
  // monotonicity).
  for (const char* name : {"check/maxflow-seg-grid", "check/lp-block",
                           "check/centrality-powerlaw"}) {
    const Counters c = RunCheck(name, 7);
    EXPECT_EQ(c.at("violations"), 0.0) << name;
    EXPECT_GT(c.at("checks"), 0.0) << name;
  }
}

TEST(IntegrationTest, CheckCountersReproducibleAcrossRuns) {
  // The reproducibility contract behind BENCH_*.json trajectories: same
  // (scenario, seed) => bitwise-identical counters, timings excluded.
  for (const char* name :
       {"check/maxflow-grid", "check/lp-qap", "check/centrality-ba"}) {
    const Counters a = RunCheck(name, 1234);
    const Counters b = RunCheck(name, 1234);
    ASSERT_EQ(a.size(), b.size()) << name;
    for (const auto& [key, value] : a) {
      EXPECT_EQ(std::memcmp(&value, &b.at(key), sizeof(double)), 0)
          << name << " " << key;
    }
  }
}

TEST(IntegrationTest, AnytimeRefinementImprovesFlowBound) {
  // Paper Sec 5.2: Rothko as a co-routine — every few extra colors can
  // only improve (never invalidate) the approximation.
  Rng rng(24);
  const FlowInstance inst = GridFlowNetwork(12, 6, 10, 20, rng);
  const double exact = MaxFlowPushRelabel(inst.graph, inst.source,
                                          inst.sink);
  std::vector<int32_t> labels(inst.graph.num_nodes(), 2);
  labels[inst.source] = 0;
  labels[inst.sink] = 1;
  RothkoOptions options;
  RothkoRefiner refiner(inst.graph, Partition::FromColorIds(labels),
                        options);
  double first_bound = -1.0, last_bound = -1.0;
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 8; ++step) {
      if (!refiner.Step()) break;
    }
    const Graph reduced = BuildReducedGraph(inst.graph, refiner.partition(),
                                            ReducedWeight::kSum);
    const double bound = MaxFlowPushRelabel(
        reduced, refiner.partition().ColorOf(inst.source),
        refiner.partition().ColorOf(inst.sink));
    EXPECT_GE(bound, exact - 1e-6);
    if (first_bound < 0) first_bound = bound;
    last_bound = bound;
  }
  EXPECT_LE(last_bound, first_bound + 1e-9);
}

TEST(IntegrationTest, StableColoringSolvesLpExactly) {
  // q = 0 end-to-end: Grohe et al. dimensionality reduction recovers the
  // exact optimum on a perfectly block-structured LP.
  BlockLpSpec spec;
  spec.num_row_groups = 4;
  spec.num_col_groups = 4;
  spec.rows_per_group = 6;
  spec.cols_per_group = 6;
  spec.noise = 0.0;
  spec.seed = 42;
  LpProblem lp = MakeBlockLp(spec);
  for (int32_t i = 0; i < lp.num_rows; ++i) lp.b[i] = lp.b[(i / 6) * 6];
  const LpResult exact = SolveSimplex(lp);
  LpReduceOptions options;
  options.max_colors = 12;
  options.q_tolerance = 0.0;
  const ReducedLp reduced = ReduceLp(lp, options);
  ASSERT_NEAR(reduced.max_q, 0.0, 1e-9);
  const LpResult red = SolveSimplex(reduced.lp);
  EXPECT_NEAR(RelativeError(exact.objective, red.objective), 1.0, 1e-6);
}

}  // namespace
}  // namespace qsc
