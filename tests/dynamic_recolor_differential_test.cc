// The incremental-recoloring oracle (DifferentialRunner::CheckDynamic),
// swept over every registered compression backend on the shared 56-graph
// property corpus (tests/rothko_corpus.h) under insert-only, delete-only
// and mixed seeded edit streams. At every checkpoint of every stream and
// every budget of the sweep the served bound
//     q_incremental <= max(q_scratch, q_tolerance)
// must hold exactly, fallbacks must reproduce the from-scratch partition
// bit for bit, and the repair telemetry must be internally consistent
// (docs/DYNAMIC.md). The suite name matches the CI TSan regex
// ('DynamicRecolor') so the data-race build covers this file too.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/coloring/backend.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/eval/differential.h"
#include "qsc/eval/pipelines.h"
#include "qsc/graph/graph.h"

#include "rothko_corpus.h"

namespace qsc {
namespace eval {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

EvalOptions OptionsFor(const std::string& backend, uint64_t seed) {
  EvalOptions options;
  options.seed = seed;
  options.backend = backend;
  return options;
}

DynamicCheckOptions StreamOf(uint64_t seed, double insert_weight,
                             double delete_weight, double update_weight) {
  DynamicCheckOptions dyn;
  dyn.stream.seed = seed * 31 + 7;
  dyn.stream.num_batches = 3;
  dyn.stream.edits_per_batch = 6;
  dyn.stream.insert_weight = insert_weight;
  dyn.stream.delete_weight = delete_weight;
  dyn.stream.update_weight = update_weight;
  return dyn;
}

class DynamicRecolorDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, DynamicRecolorDifferentialTest,
    ::testing::ValuesIn(ColoringBackendRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '_') c = '0';
      }
      return name;
    });

// All 56 corpus cells under each single-kind stream and the mixed stream.
// Delete-only streams shrink the graph toward the repairable floor;
// insert-only streams densify it; the mixed stream exercises the
// feasibility fallthrough of GenerateEditBatches.
TEST_P(DynamicRecolorDifferentialTest, CorpusStreamsHaveNoViolations) {
  struct StreamKind {
    const char* name;
    double insert, del, update;
  };
  const StreamKind kStreams[] = {
      {"insert-only", 1.0, 0.0, 0.0},
      {"delete-only", 0.0, 1.0, 0.0},
      {"mixed", 1.0, 1.0, 1.0},
  };
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const Graph g = CorpusGraph(seed, directed);
      const DifferentialRunner runner(OptionsFor(GetParam(), seed));
      for (const StreamKind& stream : kStreams) {
        const DynamicCheckOptions dyn =
            StreamOf(seed, stream.insert, stream.del, stream.update);
        const DifferentialReport report = runner.CheckDynamic(g, dyn);
        ASSERT_TRUE(report.ok())
            << GetParam() << " seed " << seed
            << (directed ? " directed " : " undirected ") << stream.name
            << ": " << report.Summary();
        EXPECT_GT(report.checks, 0);
      }
    }
  }
}

// q_tolerance = 0 disables the repair path entirely: every batch must fall
// back, and CheckDynamic then insists the lazily recomputed partitions are
// bitwise identical to from-scratch refinement at every budget. A corpus
// subset keeps the runtime proportionate (the bound itself is already
// checked everywhere above).
TEST_P(DynamicRecolorDifferentialTest, ZeroToleranceFallsBackBitwise) {
  for (const uint64_t seed : {1u, 6u, 11u}) {
    for (const bool directed : {false, true}) {
      const Graph g = CorpusGraph(seed, directed);
      const DifferentialRunner runner(OptionsFor(GetParam(), seed));
      DynamicCheckOptions dyn = StreamOf(seed, 1.0, 1.0, 1.0);
      dyn.q_tolerance = 0.0;
      const DifferentialReport report = runner.CheckDynamic(g, dyn);
      ASSERT_TRUE(report.ok())
          << GetParam() << " seed " << seed
          << (directed ? " directed" : " undirected") << ": "
          << report.Summary();
    }
  }
}

// A tiny repair budget forces fallbacks even at positive tolerance; the
// bound and the bitwise-fallback contract must survive budget starvation.
TEST_P(DynamicRecolorDifferentialTest, StarvedRepairBudgetStaysSound) {
  const Graph g = CorpusGraph(3, /*directed=*/false);
  const DifferentialRunner runner(OptionsFor(GetParam(), 3));
  DynamicCheckOptions dyn = StreamOf(3, 1.0, 1.0, 1.0);
  dyn.max_repair_splits = 1;
  const DifferentialReport report = runner.CheckDynamic(g, dyn);
  ASSERT_TRUE(report.ok()) << GetParam() << ": " << report.Summary();
}

}  // namespace
}  // namespace eval
}  // namespace qsc
