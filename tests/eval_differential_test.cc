// Tests for the differential runner: the geometric split mean passes the
// invariant suite (bench_check_test covers the check/ scenarios under
// several seeds), the adversarial Example-7 network exercises the
// Theorem-6 gap without violating the bound directions, and the report
// machinery itself (check counting, summary formatting) behaves.

#include "qsc/eval/differential.h"

#include <gtest/gtest.h>

#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace eval {
namespace {

TEST(DifferentialRunnerTest, GeometricSplitMeanAlsoPasses) {
  // The check/maxflow-grid and check/centrality-ba instances at seed 5
  // (the check/ scenarios themselves run the arithmetic default).
  EvalOptions options;
  options.seed = 5;
  options.split_mean = RothkoOptions::SplitMean::kGeometric;
  const DifferentialRunner runner(options);
  Rng flow_rng(5);
  const DifferentialReport flow = runner.CheckMaxFlow(
      GridFlowNetwork(16, 8, 10, 30, flow_rng), {5, 10, 20, 40});
  EXPECT_TRUE(flow.ok()) << "maxflow-grid: " << flow.Summary();
  Rng graph_rng(5);
  const DifferentialReport centrality = runner.CheckCentrality(
      BarabasiAlbert(400, 3, graph_rng), {10, 25, 50});
  EXPECT_TRUE(centrality.ok()) << "centrality-ba: " << centrality.Summary();
}

TEST(DifferentialRunnerTest, LayeredDiagonalExercisesTheoremSixGap) {
  // Example 7 / Figure 4: the c^2 upper bound is far above the true flow
  // and the c^1 lower bound far below — the bound *directions* must still
  // hold even when the gap is maximal.
  EvalOptions options;
  options.compute_flow_lower_bound = true;
  const DifferentialRunner runner(options);
  const DifferentialReport report =
      runner.CheckMaxFlow(LayeredDiagonalNetwork(6, 12), {4, 8});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DifferentialRunnerTest, TallLpFamilyPassesChecks) {
  // CheckLp always runs BOTH oracles (that is the differential); this
  // covers the tall (rows >> cols) generator family the check/ scenarios
  // skip.
  const DifferentialRunner runner(EvalOptions{});
  const DifferentialReport report =
      runner.CheckLp(MakeTallLp(4, 21), {8, 16});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(DifferentialReportTest, SummaryFormatsViolations) {
  DifferentialReport report;
  report.checks = 12;
  EXPECT_EQ(report.Summary(), "12 checks, 0 violations");
  EXPECT_TRUE(report.ok());

  report.violations.push_back({"flow/solver-agreement", "Dinic 3 vs EK 4"});
  EXPECT_FALSE(report.ok());
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("1 violation(s) in 12 checks"), std::string::npos);
  EXPECT_NE(summary.find("[flow/solver-agreement] Dinic 3 vs EK 4"),
            std::string::npos);
}

}  // namespace
}  // namespace eval
}  // namespace qsc
