// The compression-backend registry and the ColoringBackend contract
// (src/qsc/coloring/backend.h): canonical-name handling, the three builtin
// registrations, and — per backend — the monotone anytime Step(), strict
// color growth, cap truncation, resume-equals-fresh and pool-size
// determinism, and MemoryBytes accounting the ColoringCache depends on;
// plus the exact first cut of each non-default split rule.

#include "qsc/coloring/backend.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/coloring/partition.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"

#include "rothko_corpus.h"

namespace qsc {
namespace {

Graph DenseTestGraph(uint64_t seed = 3, bool directed = true) {
  return testing_corpus::CorpusGraph(seed, directed);
}

std::unique_ptr<ColoringBackend> Make(const std::string& name, const Graph& g,
                                      const ColoringParams& params = {}) {
  return ColoringBackendRegistry::Global().Create(
      name, g, Partition::Trivial(g.num_nodes()), params);
}

// --- canonical names ------------------------------------------------------

TEST(BackendNameTest, CanonicalizesTrimAndCase) {
  struct Case {
    const char* raw;
    const char* canonical;
  };
  const Case cases[] = {
      {"rothko", "rothko"},
      {"  Rothko  ", "rothko"},
      {"LP-Rounding", "lp-rounding"},
      {"\tbucket\n", "bucket"},
      {"", "rothko"},  // "" means the default backend
      {"a0_b-c9", "a0_b-c9"},
  };
  for (const Case& c : cases) {
    const StatusOr<std::string> got = CanonicalBackendName(c.raw);
    ASSERT_TRUE(got.ok()) << c.raw;
    EXPECT_EQ(*got, c.canonical) << c.raw;
  }
}

TEST(BackendNameTest, RejectsMalformedNames) {
  const std::vector<std::string> bad = {
      "bogus!",         // non-name character
      "-rothko",        // leading dash
      "_rothko",        // leading underscore
      "two words",      // interior whitespace
      "caf\xc3\xa9",    // non-ASCII
      std::string(65, 'a'),  // over the 64-char cap
  };
  for (const std::string& name : bad) {
    const StatusOr<std::string> got = CanonicalBackendName(name);
    ASSERT_FALSE(got.ok()) << name;
    EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

// --- registry -------------------------------------------------------------

TEST(BackendRegistryTest, BuiltinsAreRegistered) {
  ColoringBackendRegistry& registry = ColoringBackendRegistry::Global();
  EXPECT_TRUE(registry.Contains("rothko"));
  EXPECT_TRUE(registry.Contains("lp-rounding"));
  EXPECT_TRUE(registry.Contains("bucket"));
  EXPECT_TRUE(registry.Contains(kDefaultColoringBackend));
  EXPECT_FALSE(registry.Contains("no-such-backend"));

  const std::vector<std::string> names = registry.Names();
  ASSERT_GE(names.size(), 3u);
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);  // sorted, unique
  }
  for (const std::string& name : names) {
    EXPECT_FALSE(registry.Description(name).empty()) << name;
  }
}

TEST(BackendRegistryTest, DefaultFactoryProducesTheRothkoRefiner) {
  const Graph g = DenseTestGraph();
  const std::unique_ptr<ColoringBackend> backend =
      Make(kDefaultColoringBackend, g);
  EXPECT_NE(dynamic_cast<RothkoRefiner*>(backend.get()), nullptr);
}

// --- the ColoringBackend contract, per registered backend -----------------

class BackendContractTest : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendContractTest,
    ::testing::ValuesIn(ColoringBackendRegistry::Global().Names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-' || c == '_') c = '0';
      }
      return name;
    });

TEST_P(BackendContractTest, InitialErrorDescribesTheInitialPartition) {
  const Graph g = DenseTestGraph();
  const std::unique_ptr<ColoringBackend> backend = Make(GetParam(), g);
  // A dense random graph is nowhere near stable under the trivial
  // partition, and the backend must report that before the first Step().
  EXPECT_GT(backend->CurrentMaxError(), 0.0);
  EXPECT_EQ(backend->partition().num_colors(), 1);
}

TEST_P(BackendContractTest, UncappedStepsAreMonotoneAndGrowColors) {
  for (const bool directed : {false, true}) {
    const Graph g = DenseTestGraph(5, directed);
    const std::unique_ptr<ColoringBackend> backend = Make(GetParam(), g);
    double prev_error = backend->CurrentMaxError();
    ColorId prev_colors = backend->partition().num_colors();
    for (int step = 0; step < 25 && backend->Step(); ++step) {
      EXPECT_LE(backend->CurrentMaxError(), prev_error + 1e-9);
      EXPECT_GT(backend->partition().num_colors(), prev_colors);
      prev_error = backend->CurrentMaxError();
      prev_colors = backend->partition().num_colors();
    }
    // The reported error is the real q-error of the current partition.
    EXPECT_NEAR(backend->CurrentMaxError(),
                ComputeQError(g, backend->partition()).max_q, 1e-9);
  }
}

TEST_P(BackendContractTest, ColorCapTruncatesTheContinuation) {
  const Graph g = DenseTestGraph(7);
  const std::unique_ptr<ColoringBackend> backend = Make(GetParam(), g);
  const ColorId cap = 12;
  while (backend->partition().num_colors() < cap && backend->Step(cap)) {
  }
  EXPECT_LE(backend->partition().num_colors(), cap);
  EXPECT_EQ(backend->partition().num_colors(), cap);  // dense: cap reached
}

TEST_P(BackendContractTest, ResumeEqualsFresh) {
  // The cache-continuation property: refining to 12 colors and then on to
  // 24 must land on the identical partition as refining straight to 24 —
  // every split is a function of the current partition only.
  for (const bool directed : {false, true}) {
    const Graph g = DenseTestGraph(9, directed);

    const std::unique_ptr<ColoringBackend> fresh = Make(GetParam(), g);
    while (fresh->partition().num_colors() < 24 && fresh->Step(24)) {
    }

    const std::unique_ptr<ColoringBackend> resumed = Make(GetParam(), g);
    while (resumed->partition().num_colors() < 12 && resumed->Step(12)) {
    }
    while (resumed->partition().num_colors() < 24 && resumed->Step(24)) {
    }

    ASSERT_EQ(fresh->partition().num_colors(), resumed->partition().num_colors());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(fresh->partition().ColorOf(v), resumed->partition().ColorOf(v));
    }
    EXPECT_EQ(fresh->CurrentMaxError(), resumed->CurrentMaxError());
  }
}

TEST_P(BackendContractTest, ResultsDoNotDependOnPoolSize) {
  // Contract 2: the split sequence is independent of the pool size. The
  // graphs are large enough that the first splits' member scans take the
  // pooled path, and every split scores its affected colors on the pool.
  ThreadPool two(2);
  ThreadPool eight(8);
  for (const bool directed : {false, true}) {
    Rng rng(17);
    const Graph g = directed ? WeightedHubGraph(6000, 3, 9, rng)
                             : BarabasiAlbert(6000, 3, rng);
    ColoringParams params;
    const std::unique_ptr<ColoringBackend> serial =
        Make(GetParam(), g, params);
    params.pool = &two;
    const std::unique_ptr<ColoringBackend> pooled2 =
        Make(GetParam(), g, params);
    params.pool = &eight;
    const std::unique_ptr<ColoringBackend> pooled8 =
        Make(GetParam(), g, params);
    for (int step = 0; step < 24; ++step) {
      const bool more = serial->Step();
      ASSERT_EQ(pooled2->Step(), more) << "step " << step;
      ASSERT_EQ(pooled8->Step(), more) << "step " << step;
      ASSERT_TRUE(pooled2->partition() == serial->partition()) << step;
      ASSERT_TRUE(pooled8->partition() == serial->partition()) << step;
      ASSERT_EQ(pooled2->CurrentMaxError(), serial->CurrentMaxError());
      ASSERT_EQ(pooled8->CurrentMaxError(), serial->CurrentMaxError());
      if (!more) break;
    }
  }
}

TEST_P(BackendContractTest, QToleranceStopsRefinement) {
  const Graph g = DenseTestGraph(11);
  ColoringParams params;
  const std::unique_ptr<ColoringBackend> reference = Make(GetParam(), g);
  params.q_tolerance = reference->CurrentMaxError() / 2.0;
  const std::unique_ptr<ColoringBackend> backend = Make(GetParam(), g, params);
  while (backend->Step()) {
  }
  // Step() returned false: either the tolerance was met or the partition
  // went fully stable; in both cases the error honors the tolerance.
  EXPECT_LE(backend->CurrentMaxError(), params.q_tolerance + 1e-9);
}

TEST_P(BackendContractTest, MemoryBytesIsPositiveAndTracksThePartition) {
  const Graph g = DenseTestGraph(13);
  const std::unique_ptr<ColoringBackend> backend = Make(GetParam(), g);
  const int64_t before = backend->MemoryBytes();
  EXPECT_GT(before, 0);
  for (int step = 0; step < 5 && backend->Step(); ++step) {
  }
  // Accounting covers at least the partition snapshot the backend owns.
  EXPECT_GE(backend->MemoryBytes(), backend->partition().MemoryBytes());
}

TEST(BackendDistinctnessTest, KernelsProduceDistinctColorings) {
  // The three builtins implement genuinely different split rules; on a
  // rough random graph they should not all collapse to the same partition
  // at a mid-range budget. (rothko vs bucket is the sharpest contrast:
  // witness-mean split vs degree median-rank split.)
  const Graph g = DenseTestGraph(2);
  auto color_to = [&g](const std::string& name, ColorId budget) {
    const std::unique_ptr<ColoringBackend> backend = Make(name, g);
    while (backend->partition().num_colors() < budget &&
           backend->Step(budget)) {
    }
    return backend->partition();
  };
  const Partition rothko = color_to("rothko", 16);
  const Partition bucket = color_to("bucket", 16);
  bool differs = rothko.num_colors() != bucket.num_colors();
  for (NodeId v = 0; !differs && v < g.num_nodes(); ++v) {
    differs = rothko.ColorOf(v) != bucket.ColorOf(v);
  }
  EXPECT_TRUE(differs);
}

// --- the exact first cut of each non-default rule -------------------------

// The members peeled off by the first split of the trivial partition
// (a cap of 2 colors stops the step after exactly one split), sorted.
std::vector<NodeId> FirstSplitEjects(const std::string& name, const Graph& g) {
  const std::unique_ptr<ColoringBackend> backend = Make(name, g);
  EXPECT_TRUE(backend->Step(/*color_cap=*/2));
  EXPECT_EQ(backend->partition().num_colors(), 2);
  std::vector<NodeId> ejected = backend->partition().Members(1);
  std::sort(ejected.begin(), ejected.end());
  return ejected;
}

TEST(BackendSplitRuleTest, BucketPeelsTheUpperHalfOfTheDegreeRanks) {
  // A directed 6-cycle with uneven weights. Total weighted degree
  // (OutWeight + InWeight) per node: 0:3+1=4, 1:1+3=4, 2:1+1=2, 3:2+1=3,
  // 4:1+2=3, 5:1+1=2. Ranked ascending with ties by id: 2 5 3 | 4 0 1 —
  // the median falls inside the 3/4 tie, so the id tie-break decides.
  const std::vector<EdgeTriple> arcs = {{0, 1, 3.0}, {1, 2, 1.0}, {2, 3, 1.0},
                                        {3, 4, 2.0}, {4, 5, 1.0}, {5, 0, 1.0}};
  const Graph g = Graph::FromEdges(6, arcs, /*undirected=*/false);
  EXPECT_EQ(FirstSplitEjects("bucket", g), (std::vector<NodeId>{0, 1, 4}));
}

TEST(BackendSplitRuleTest, LpRoundingEjectsTheMembersAboveTheMidrange) {
  // An undirected star, hub 5, leaf weights 1 1 1 1 3: weighted degrees
  // 1 1 1 1 3 7. Under the trivial partition the only witness is the
  // color toward itself, so these degrees are the witness weights. The
  // midrange is 4 (no weight equals it) and only the hub lies above; the
  // witness mean 14/6 would also eject node 4.
  const std::vector<EdgeTriple> edges = {{5, 0, 1.0}, {5, 1, 1.0}, {5, 2, 1.0},
                                         {5, 3, 1.0}, {5, 4, 3.0}};
  const Graph g = Graph::FromEdges(6, edges, /*undirected=*/true);
  EXPECT_EQ(FirstSplitEjects("lp-rounding", g), (std::vector<NodeId>{5}));
  EXPECT_EQ(FirstSplitEjects("rothko", g), (std::vector<NodeId>{4, 5}));
}

}  // namespace
}  // namespace qsc
