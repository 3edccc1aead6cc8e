// The full DifferentialRunner oracle suite, swept over every registered
// compression backend on the shared 56-graph property corpus
// (tests/rothko_corpus.h): Theorem-6 bound directions and min-cut duality
// for max-flow, Theorem-1 q = 0 exactness and lift round-trips for LP,
// the discrete-equals-Brandes degeneracy for centrality, and — via
// CheckColoringAnytime — the monotone-anytime and deterministic-replay
// contract of each backend. Every (backend, split-mean, seed) cell must
// come back violation-free; failures print the runner's evidence.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/coloring/backend.h"
#include "qsc/eval/differential.h"
#include "qsc/eval/pipelines.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"

#include "rothko_corpus.h"

namespace qsc {
namespace eval {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

const std::vector<ColorId> kBudgets = {4, 8, 16};

EvalOptions OptionsFor(const std::string& backend, uint64_t seed,
                       SplitMean split_mean) {
  EvalOptions options;
  options.seed = seed;
  options.backend = backend;
  options.split_mean = split_mean;
  return options;
}

class BackendDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendDifferentialTest,
    ::testing::ValuesIn(ColoringBackendRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '_') c = '0';
      }
      return name;
    });

TEST_P(BackendDifferentialTest, CentralityCorpusHasNoViolations) {
  // All 56 cells: 14 seeds x {directed, undirected} x both split means.
  for (const SplitMean split_mean :
       {SplitMean::kArithmetic, SplitMean::kGeometric}) {
    for (const uint64_t seed : CorpusSeeds()) {
      for (const bool directed : {false, true}) {
        const DifferentialRunner runner(
            OptionsFor(GetParam(), seed, split_mean));
        const Graph g = CorpusGraph(seed, directed);
        const DifferentialReport report = runner.CheckCentrality(g, kBudgets);
        ASSERT_TRUE(report.ok())
            << GetParam() << " seed " << seed
            << (directed ? " directed " : " undirected ")
            << report.Summary();
      }
    }
  }
}

TEST_P(BackendDifferentialTest, MaxFlowCorpusHasNoViolations) {
  // The directed half of the corpus, recast as flow instances (terminals
  // 0 and n-1; a disconnected pair just makes the exact flow 0, which the
  // bound directions still have to respect).
  for (const SplitMean split_mean :
       {SplitMean::kArithmetic, SplitMean::kGeometric}) {
    for (const uint64_t seed : CorpusSeeds()) {
      const DifferentialRunner runner(
          OptionsFor(GetParam(), seed, split_mean));
      FlowInstance instance;
      instance.graph = CorpusGraph(seed, /*directed=*/true);
      instance.source = 0;
      instance.sink = instance.graph.num_nodes() - 1;
      const DifferentialReport report =
          runner.CheckMaxFlow(instance, kBudgets);
      ASSERT_TRUE(report.ok())
          << GetParam() << " seed " << seed << " " << report.Summary();
    }
  }
}

TEST_P(BackendDifferentialTest, LpCorpusHasNoViolations) {
  // Seeded feasible LPs (one per corpus seed); Theorem-1 exactness at the
  // full budget must hold for every backend's matrix coloring.
  for (const SplitMean split_mean :
       {SplitMean::kArithmetic, SplitMean::kGeometric}) {
    for (const uint64_t seed : CorpusSeeds()) {
      const DifferentialRunner runner(
          OptionsFor(GetParam(), seed, split_mean));
      const LpProblem lp = MakeQapLikeLp(4, seed);
      const DifferentialReport report = runner.CheckLp(lp, kBudgets);
      ASSERT_TRUE(report.ok())
          << GetParam() << " seed " << seed << " " << report.Summary();
    }
  }
}

TEST(BackendDifferentialRejectionTest, UnresolvableBackendIsAViolation) {
  // The runner reports an unresolvable backend instead of aborting, so a
  // bad --backend surfaces in the differential JSON like any finding.
  EvalOptions options;
  options.backend = "no-such-backend";
  const DifferentialRunner runner(options);
  const DifferentialReport report =
      runner.CheckCentrality(CorpusGraph(1, false), kBudgets);
  EXPECT_FALSE(report.ok());
  bool found = false;
  for (const InvariantViolation& v : report.violations) {
    found = found || v.invariant == "coloring/backend-registered";
  }
  EXPECT_TRUE(found) << report.Summary();
}

}  // namespace
}  // namespace eval
}  // namespace qsc
