// In-place edit patches (ColoringBackend::PatchGraph, backend.h contract
// item 5): a refiner patched with an edit batch must equal the registry's
// factory over (edited graph, pre-edit partition) bit for bit — the same
// CurrentMaxError(), the same live degree-row entries, and the same split
// sequence afterwards. Swept over the shared 56-graph corpus
// (tests/rothko_corpus.h) under insert-only, delete-only and mixed seeded
// edit streams, several pre-edit depths, unweighted and size-weighted
// witnesses, and pools none/2/8; hand-built cases pin the tie-count paths
// (a forced rescan, a tie count driven to 0, a row's last entry toward a
// color deleted). Every corpus weight and edit weight is an integer, so
// all sums are exact in double precision and the comparison is exact.
// The suite name matches the CI TSan regex ('RothkoEquivalence') so the
// data-race build runs the pooled patches too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using dynamic::EditKind;
using dynamic::EditOp;

std::vector<EditedArc> ArcsOf(const std::vector<EditOp>& batch) {
  std::vector<EditedArc> arcs;
  for (const EditOp& op : batch) arcs.push_back({op.src, op.dst});
  return arcs;
}

std::unique_ptr<Graph> Apply(const Graph& g, const std::vector<EditOp>& batch) {
  StatusOr<Graph> next = dynamic::ApplyEditBatch(g, batch);
  QSC_CHECK_OK(next);
  return std::make_unique<Graph>(std::move(next).value());
}

const RothkoRefiner& AsRothko(const ColoringBackend& b) {
  const auto* r = dynamic_cast<const RothkoRefiner*>(&b);
  QSC_CHECK(r != nullptr);
  return *r;
}

// The observable state the contract covers, plus the live row entries.
void ExpectSameState(const ColoringBackend& patched,
                     const ColoringBackend& rebuilt, const std::string& where) {
  ASSERT_EQ(patched.CurrentMaxError(), rebuilt.CurrentMaxError()) << where;
  ASSERT_TRUE(patched.partition() == rebuilt.partition()) << where;
  ASSERT_EQ(AsRothko(patched).DegreeRowStats().live,
            AsRothko(rebuilt).DegreeRowStats().live)
      << where;
}

// Patches `patched` with each batch in turn, comparing it after the patch
// and after each of 10 further steps with a registry rebuild that takes
// the same steps. Adds the patch telemetry to `total`.
void PatchAndCompare(const std::string& backend, const Graph& g0,
                     const std::vector<std::vector<EditOp>>& batches,
                     ColoringBackend* patched, const ColoringParams& params,
                     const std::string& where, RothkoPatchStats* total) {
  std::unique_ptr<Graph> current;
  const Graph* g = &g0;
  for (size_t b = 0; b < batches.size(); ++b) {
    std::unique_ptr<Graph> next = Apply(*g, batches[b]);
    EXPECT_TRUE(patched->PatchGraph(*next, ArcsOf(batches[b])));
    const RothkoPatchStats& stats = AsRothko(*patched).last_patch();
    total->changed_entries += stats.changed_entries;
    total->pairs += stats.pairs;
    total->rescans += stats.rescans;
    current = std::move(next);
    g = current.get();

    std::unique_ptr<ColoringBackend> rebuilt =
        ColoringBackendRegistry::Global().Create(backend, *g,
                                                 patched->partition(), params);
    const std::string at = where + " batch " + std::to_string(b);
    ExpectSameState(*patched, *rebuilt, at + " after the patch");
    if (::testing::Test::HasFatalFailure()) return;
    for (int step = 0; step < 10; ++step) {
      const bool more = patched->Step();
      ASSERT_EQ(more, rebuilt->Step()) << at << " step " << step;
      ExpectSameState(*patched, *rebuilt, at + " step " + std::to_string(step));
      if (::testing::Test::HasFatalFailure()) return;
      if (!more) break;
    }
  }
}

struct StreamKind {
  const char* name;
  double insert, del, update;
};
constexpr StreamKind kStreams[] = {
    {"insert-only", 1.0, 0.0, 0.0},
    {"delete-only", 0.0, 1.0, 0.0},
    {"mixed", 1.0, 1.0, 1.0},
};

std::vector<std::vector<EditOp>> StreamFor(const Graph& g, uint64_t seed,
                                           const StreamKind& kind,
                                           int64_t num_batches,
                                           int64_t edits_per_batch) {
  dynamic::EditStreamOptions stream;
  stream.seed = seed;
  stream.num_batches = num_batches;
  stream.edits_per_batch = edits_per_batch;
  stream.insert_weight = kind.insert;
  stream.delete_weight = kind.del;
  stream.update_weight = kind.update;
  StatusOr<std::vector<std::vector<EditOp>>> batches =
      dynamic::GenerateEditBatches(g, stream);
  QSC_CHECK_OK(batches);
  return std::move(batches).value();
}

class RothkoEquivalencePatchTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, bool, RothkoOptions::SplitMean>> {};

TEST_P(RothkoEquivalencePatchTest, PatchEqualsRebuildOnCorpusStreams) {
  const auto [seed, directed, split_mean] = GetParam();
  const Graph g = testing_corpus::CorpusGraph(seed, directed);
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  RothkoPatchStats total;
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    for (const double weight_exponent : {0.0, 1.0}) {
      ColoringParams params;
      params.split_mean = split_mean;
      params.pool = pool;
      params.alpha = params.beta = weight_exponent;
      for (const StreamKind& kind : kStreams) {
        const std::vector<std::vector<EditOp>> batches =
            StreamFor(g, seed * 131 + 17, kind, /*num_batches=*/3,
                      /*edits_per_batch=*/6);
        for (const int depth : {0, 3, 12}) {
          std::unique_ptr<ColoringBackend> patched =
              ColoringBackendRegistry::Global().Create(
                  "rothko", g, Partition::Trivial(g.num_nodes()), params);
          for (int i = 0; i < depth; ++i) patched->Step();
          const int threads = pool == nullptr ? 0 : pool->num_threads();
          const std::string where =
              std::string(kind.name) + " depth " + std::to_string(depth) +
              " pool " + std::to_string(threads) +
              " alpha=beta=" + std::to_string(weight_exponent);
          PatchAndCompare("rothko", g, batches, patched.get(), params, where,
                          &total);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
  // The sweep exercises the patch, not just no-op batches.
  EXPECT_GT(total.changed_entries, 0);
  EXPECT_GT(total.pairs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RothkoEquivalencePatchTest,
    testing::Combine(testing::ValuesIn(testing_corpus::CorpusSeeds()),
                     testing::Bool(),
                     testing::Values(RothkoOptions::SplitMean::kArithmetic,
                                     RothkoOptions::SplitMean::kGeometric)),
    [](const testing::TestParamInfo<RothkoEquivalencePatchTest::ParamType>&
           info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_directed" : "_undirected") +
             (std::get<2>(info.param) == RothkoOptions::SplitMean::kGeometric
                  ? "_geometric"
                  : "_arithmetic");
    });

// The other builtin backends are the same engine with another split rule:
// their patches go through the same code, so a corpus subset suffices.
TEST(RothkoEquivalencePatch, EveryBackendPatchEqualsRebuild) {
  for (const std::string& backend : ColoringBackendRegistry::Global().Names()) {
    for (const uint64_t seed : {2u, 9u}) {
      for (const bool directed : {false, true}) {
        const Graph g = testing_corpus::CorpusGraph(seed, directed);
        const std::vector<std::vector<EditOp>> batches =
            StreamFor(g, seed, kStreams[2], /*num_batches=*/3,
                      /*edits_per_batch=*/6);
        ColoringParams params;
        std::unique_ptr<ColoringBackend> patched =
            ColoringBackendRegistry::Global().Create(
                backend, g, Partition::Trivial(g.num_nodes()), params);
        for (int i = 0; i < 4; ++i) patched->Step();
        RothkoPatchStats total;
        PatchAndCompare(backend, g, batches, patched.get(), params,
                        backend + " seed " + std::to_string(seed), &total);
        if (HasFatalFailure()) return;
      }
    }
  }
}

// A directed star into one sink: members 0..2 of color 0 point at node 3
// (color 1) with the given weights. Only the out pair (0 -> 1) has a
// spread; the in pair holds the sink alone.
struct Star {
  Graph graph;
  Partition partition;
};

Star StarInto(double w0, double w1, double w2) {
  const std::vector<EdgeTriple> arcs = {{0, 3, w0}, {1, 3, w1}, {2, 3, w2}};
  return {Graph::FromEdges(4, arcs, /*undirected=*/false),
          Partition::FromColorIds({0, 0, 0, 1})};
}

// Patches the star with `batch` and checks the result against a rebuild.
RothkoPatchStats PatchStar(const Star& star, const std::vector<EditOp>& batch,
                           double expected_error) {
  RothkoRefiner patched(star.graph, star.partition, RothkoOptions());
  const std::unique_ptr<Graph> next = Apply(star.graph, batch);
  EXPECT_TRUE(patched.PatchGraph(*next, ArcsOf(batch)));
  RothkoRefiner rebuilt(*next, star.partition, RothkoOptions());
  EXPECT_EQ(patched.CurrentMaxError(), expected_error);
  ExpectSameState(patched, rebuilt, "star");
  EXPECT_EQ(patched.Step(), rebuilt.Step());
  ExpectSameState(patched, rebuilt, "star after a step");
  return patched.last_patch();
}

TEST(RothkoEquivalencePatch, LoweringTheUniqueMaxHolderRescans) {
  // max 5 held by node 0 alone; lowering it to 3 leaves no holder and no
  // new value reaches 5, so the pair is rescanned: max 3, min 2.
  const RothkoPatchStats stats =
      PatchStar(StarInto(5, 2, 2), {{EditKind::kUpdateWeight, 0, 3, 3.0}},
                /*expected_error=*/1.0);
  EXPECT_EQ(stats.changed_entries, 2);  // out row 0, in row 3
  EXPECT_EQ(stats.rescans, 1);
  EXPECT_EQ(stats.rescanned_members, 3);
}

TEST(RothkoEquivalencePatch, TieCountToZeroReclaimedWithoutRescan) {
  // max 5 held twice; both holders leave it, one for 7: the new value
  // beyond the stale max takes it over, so nothing is rescanned.
  const RothkoPatchStats stats =
      PatchStar(StarInto(5, 5, 2),
                {{EditKind::kUpdateWeight, 0, 3, 7.0},
                 {EditKind::kUpdateWeight, 1, 3, 6.0}},
                /*expected_error=*/5.0);
  EXPECT_EQ(stats.pairs, 2);  // the out pair and the sink's in pair
  EXPECT_EQ(stats.rescans, 0);
}

TEST(RothkoEquivalencePatch, TieCountToZeroInsideRescans) {
  // min 2 held twice; both holders move inward (to 4 and 3), so the min
  // has no holder and the pair is rescanned: min 3.
  const RothkoPatchStats stats =
      PatchStar(StarInto(5, 2, 2),
                {{EditKind::kUpdateWeight, 1, 3, 4.0},
                 {EditKind::kUpdateWeight, 2, 3, 3.0}},
                /*expected_error=*/2.0);
  EXPECT_EQ(stats.rescans, 1);
}

TEST(RothkoEquivalencePatch, DeletingTheLastEntryTowardAColor) {
  // Node 0's only arc into color 1 goes: its row loses the entry, the
  // min keeps a holder (node 1), and the absent member now counts as
  // weight 0 (spread 5 - 0).
  const RothkoPatchStats stats =
      PatchStar(StarInto(2, 2, 5), {{EditKind::kDeleteEdge, 0, 3, 0.0}},
                /*expected_error=*/5.0);
  EXPECT_EQ(stats.changed_entries, 2);
  EXPECT_EQ(stats.rescans, 0);
}

TEST(RothkoEquivalencePatch, DeletingAPairsLastMemberErasesIt) {
  // Every arc into the sink goes: the out pair loses all members and is
  // erased, the sink's in row empties, and the coloring is stable.
  const Star star = StarInto(5, 2, 2);
  RothkoRefiner refiner(star.graph, star.partition, RothkoOptions());
  const std::vector<EditOp> batch = {{EditKind::kDeleteEdge, 0, 3, 0.0},
                                     {EditKind::kDeleteEdge, 1, 3, 0.0},
                                     {EditKind::kDeleteEdge, 2, 3, 0.0}};
  const std::unique_ptr<Graph> next = Apply(star.graph, batch);
  ASSERT_TRUE(refiner.PatchGraph(*next, ArcsOf(batch)));
  EXPECT_EQ(refiner.CurrentMaxError(), 0.0);
  EXPECT_EQ(refiner.DegreeRowStats().live, 0);
  EXPECT_EQ(refiner.last_patch().live_pairs, 0);
  EXPECT_EQ(refiner.last_patch().heap_entries, 0);
  EXPECT_FALSE(refiner.Step());
}

// Non-integer weights: the pre-edit rows were kept by splits, which move
// weight between keys by subtraction and addition, so an entry the batch
// did not touch can differ from a fresh build's sum in its last bits; the
// patch then carries that rounding forward. The contract for such graphs
// is agreement up to rounding, not bit equality.
TEST(RothkoEquivalencePatch, NonIntegerWeightsAgreeWithinRounding) {
  for (const uint64_t seed : testing_corpus::CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const Graph base = testing_corpus::CorpusGraph(seed, directed);
      std::vector<EdgeTriple> arcs = base.Arcs();
      for (EdgeTriple& a : arcs) a.weight = a.weight / 7.0 + 0.1;
      const Graph g = Graph::FromArcs(base.num_nodes(), arcs, !directed);
      std::vector<std::vector<EditOp>> batches =
          StreamFor(g, seed, kStreams[2], /*num_batches=*/3,
                    /*edits_per_batch=*/6);
      for (auto& batch : batches) {
        for (EditOp& op : batch) {
          if (op.kind != EditKind::kDeleteEdge) op.weight = op.weight / 3.0;
        }
      }
      RothkoRefiner patched(g, Partition::Trivial(g.num_nodes()),
                            RothkoOptions());
      for (int i = 0; i < 6; ++i) patched.Step();
      std::unique_ptr<Graph> current;
      const Graph* at = &g;
      for (const auto& batch : batches) {
        std::unique_ptr<Graph> next = Apply(*at, batch);
        ASSERT_TRUE(patched.PatchGraph(*next, ArcsOf(batch)));
        current = std::move(next);
        at = current.get();
        RothkoRefiner rebuilt(*at, patched.partition(), RothkoOptions());
        const double want = rebuilt.CurrentMaxError();
        EXPECT_NEAR(patched.CurrentMaxError(), want,
                    1e-9 * std::max(1.0, std::abs(want)))
            << "seed " << seed << (directed ? " directed" : " undirected");
        patched.Step();
      }
    }
  }
}

// Stale witness entries accumulate across batches (each patch pushes
// fresh ones); the heaps are rebuilt from the live aggregates whenever
// stale entries outnumber live ones, so over a long edit stream neither
// the heaps nor the refiner outgrow a fresh build by more than a constant
// factor.
TEST(RothkoEquivalencePatch, WitnessHeapsStayBoundedOverLongStreams) {
  for (const bool directed : {false, true}) {
    const Graph g0 = testing_corpus::CorpusGraph(5, directed);
    const std::vector<std::vector<EditOp>> batches =
        StreamFor(g0, 77, kStreams[2], /*num_batches=*/1000,
                  /*edits_per_batch=*/4);
    RothkoOptions options;
    options.q_tolerance = 2.0;
    RothkoRefiner patched(g0, Partition::Trivial(g0.num_nodes()), options);
    for (int i = 0; i < 8; ++i) patched.Step();
    std::unique_ptr<Graph> current = std::make_unique<Graph>(g0);
    int64_t rebuilds = 0;
    double worst_ratio = 0.0;
    for (size_t b = 0; b < batches.size(); ++b) {
      std::unique_ptr<Graph> next = Apply(*current, batches[b]);
      ASSERT_TRUE(patched.PatchGraph(*next, ArcsOf(batches[b])));
      current = std::move(next);
      const RothkoPatchStats& stats = patched.last_patch();
      ASSERT_LE(stats.heap_entries, 2 * stats.live_pairs + 16)
          << "batch " << b;
      if (stats.heaps_rebuilt) ++rebuilds;
      RothkoRefiner fresh(*current, patched.partition(), options);
      const double ratio = static_cast<double>(patched.MemoryBytes()) /
                           static_cast<double>(fresh.MemoryBytes());
      worst_ratio = std::max(worst_ratio, ratio);
      ASSERT_LE(ratio, 4.0) << "batch " << b;
      patched.Step();  // splits push entries too, as repairs do
    }
    EXPECT_GT(rebuilds, 0);
    RecordProperty(directed ? "worst_ratio_directed" : "worst_ratio_undirected",
                   std::to_string(worst_ratio));
  }
}

}  // namespace
}  // namespace qsc
