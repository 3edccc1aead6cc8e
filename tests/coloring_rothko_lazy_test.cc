// Lazy pair aggregates in the Rothko split loop (rothko.h): a split
// updates each neighboring color's aggregates from the rows it touched and
// leaves an aggregate whose extreme lost its last holder *loose*, to be
// rescanned only when it reaches a witness heap's top. The refiner must
// still make the frozen reference's (rothko_reference.h) decisions bit for
// bit: after every Step the same partition and CurrentMaxError(), and the
// same split history at the end. After every split the refiner's audit
// (RothkoRefiner::set_audit) checks each live aggregate against a scan of
// its members: the same count, a held extreme equal to the scan's, a loose
// one strictly beyond it, and no pair loose whose entries all came from the
// split's new values.
//
// Swept over the shared 56-graph corpus (rothko_corpus.h) and seeded
// graphs with sign-mixed, non-integer weights, under the unweighted and
// both size-weighted witness rules, with no pool and pools of 2 and 8.
// The suite name matches the CI TSan filter ('RothkoLazy').

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"
#include "rothko_corpus.h"
#include "rothko_reference.h"

namespace qsc {
namespace {

struct Weighting {
  double alpha, beta;
};
constexpr Weighting kWeightings[] = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}};

// Drives the refiner and the reference to stability step by step,
// comparing them after each step, and adds the refiner's split stats to
// `total`.
void RunAgainstReference(const Graph& g, RothkoOptions options,
                         const std::string& where, RothkoSplitStats* total) {
  RothkoRefiner lazy(g, Partition::Trivial(g.num_nodes()), options);
  lazy.set_audit(true);
  reference::ReferenceRefiner ref(g, Partition::Trivial(g.num_nodes()),
                                  options);
  for (int step = 0;; ++step) {
    const std::string at = where + " step " + std::to_string(step);
    ASSERT_EQ(lazy.CurrentMaxError(), ref.CurrentMaxError()) << at;
    ASSERT_TRUE(lazy.partition() == ref.partition()) << at;
    ASSERT_EQ(lazy.audit_failure(), "") << at;
    const bool more = lazy.Step();
    ASSERT_EQ(more, ref.Step()) << at;
    if (!more) break;
  }
  const std::vector<RothkoStep>& got = lazy.history();
  const std::vector<RothkoStep>& want = ref.history();
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].split_color, want[i].split_color) << where << " " << i;
    ASSERT_EQ(got[i].witness_error, want[i].witness_error)
        << where << " " << i;
  }
  const RothkoSplitStats& stats = lazy.split_stats();
  total->touched_rows += stats.touched_rows;
  total->loose_pairs += stats.loose_pairs;
  total->rescans += stats.rescans;
  total->rescanned_members += stats.rescanned_members;
}

// Every weighting at pool sizes none, 2 and 8, run to stability.
void SweepWeightingsAndPools(const Graph& g, RothkoOptions::SplitMean mean,
                             const std::string& where,
                             RothkoSplitStats* total) {
  ThreadPool pool2(2);
  ThreadPool pool8(8);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool2, &pool8}) {
    for (const Weighting& w : kWeightings) {
      RothkoOptions options;
      options.split_mean = mean;
      options.max_colors = g.num_nodes();
      options.alpha = w.alpha;
      options.beta = w.beta;
      options.pool = pool;
      const int threads = pool == nullptr ? 0 : pool->num_threads();
      RunAgainstReference(g, options,
                          where + " alpha=" + std::to_string(w.alpha) +
                              " beta=" + std::to_string(w.beta) + " pool " +
                              std::to_string(threads),
                          total);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class RothkoLazyTest
    : public testing::TestWithParam<
          std::tuple<uint64_t, bool, RothkoOptions::SplitMean>> {};

TEST_P(RothkoLazyTest, MatchesReferenceWithExactOrBoundingAggregates) {
  const auto [seed, directed, split_mean] = GetParam();
  const Graph g = testing_corpus::CorpusGraph(seed, directed);
  RothkoSplitStats total;
  SweepWeightingsAndPools(g, split_mean, "corpus", &total);
  if (HasFatalFailure()) return;
  EXPECT_GT(total.touched_rows, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RothkoLazyTest,
    testing::Combine(testing::ValuesIn(testing_corpus::CorpusSeeds()),
                     testing::Bool(),
                     testing::Values(RothkoOptions::SplitMean::kArithmetic,
                                     RothkoOptions::SplitMean::kGeometric)),
    [](const testing::TestParamInfo<RothkoLazyTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_directed" : "_undirected") +
             (std::get<2>(info.param) == RothkoOptions::SplitMean::kGeometric
                  ? "_geometric"
                  : "_arithmetic");
    });

// A corpus-shaped graph whose weights are non-integer and about a third
// negative (LP matrix graphs carry signed coefficients), so row values
// move both ways across a split and sums round. The reference cannot
// re-materialize an entry whose weights cancelled within the zero
// tolerance, so the weights are drawn from a continuum where no partial
// sum lands that close to zero. Undirected edges are drawn once and
// mirrored with the same weight.
Graph SignMixedGraph(uint64_t seed, bool directed) {
  Rng rng(seed * 7919 + 3);
  constexpr NodeId kNodes = 60;
  std::vector<EdgeTriple> edges;
  for (int64_t i = 0; i < (directed ? 240 : 180); ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(kNodes));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(kNodes));
    const double magnitude = rng.UniformDouble(0.25, 4.0);
    edges.push_back({u, v, rng.Bernoulli(0.35) ? -magnitude : magnitude});
  }
  return Graph::FromEdges(kNodes, edges, /*undirected=*/!directed);
}

TEST(RothkoLazy, SignMixedNonIntegerGraphsMatchReference) {
  RothkoSplitStats total;
  for (const uint64_t seed : testing_corpus::CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const Graph g = SignMixedGraph(seed, directed);
      SweepWeightingsAndPools(g, RothkoOptions::SplitMean::kArithmetic,
                              "sign-mixed seed " + std::to_string(seed) +
                                  (directed ? " directed" : " undirected"),
                              &total);
      if (HasFatalFailure()) return;
    }
  }
  // The sweep exercises the lazy path: pairs turn loose and are rescanned.
  EXPECT_GT(total.loose_pairs, 0);
  EXPECT_GT(total.rescans, 0);
  EXPECT_GT(total.rescanned_members, 0);
}

}  // namespace
}  // namespace qsc
