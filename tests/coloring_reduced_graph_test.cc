#include "qsc/coloring/reduced_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "qsc/coloring/color_pair_sums.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

TEST(ReducedGraphTest, SumWeights) {
  // Colors {0,1} and {2,3} with three unit arcs across.
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}}, false);
  const Partition p = Partition::FromColorIds({0, 0, 1, 1});
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kSum);
  EXPECT_EQ(r.num_nodes(), 2);
  EXPECT_DOUBLE_EQ(r.ArcWeight(0, 1), 3.0);
  EXPECT_FALSE(r.HasArc(1, 0));
}

TEST(ReducedGraphTest, MeanWeights) {
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}}, false);
  const Partition p = Partition::FromColorIds({0, 0, 1, 1});
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kMean);
  EXPECT_DOUBLE_EQ(r.ArcWeight(0, 1), 3.0 / 4.0);
}

TEST(ReducedGraphTest, SqrtNormalizedWeights) {
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {0, 3, 1.0}, {1, 2, 1.0}}, false);
  const Partition p = Partition::FromColorIds({0, 0, 1, 1});
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kSqrtNormalized);
  EXPECT_DOUBLE_EQ(r.ArcWeight(0, 1), 3.0 / 2.0);
}

TEST(ReducedGraphTest, DiscretePartitionIsIdentity) {
  Rng rng(1);
  const Graph g = ErdosRenyiGnm(20, 50, rng);
  const Graph r =
      BuildReducedGraph(g, Partition::Discrete(20), ReducedWeight::kSum);
  EXPECT_EQ(r.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.num_arcs(), g.num_arcs());
  for (const EdgeTriple& a : g.Arcs()) {
    EXPECT_DOUBLE_EQ(r.ArcWeight(a.src, a.dst), a.weight);
  }
}

TEST(ReducedGraphTest, TrivialPartitionIsOneNode) {
  Rng rng(2);
  const Graph g = ErdosRenyiGnm(20, 50, rng);
  const Graph r =
      BuildReducedGraph(g, Partition::Trivial(20), ReducedWeight::kSum);
  EXPECT_EQ(r.num_nodes(), 1);
  // One self-loop carrying the total weight (each undirected edge counted
  // in both arc directions).
  EXPECT_DOUBLE_EQ(r.ArcWeight(0, 0), g.TotalWeight());
}

TEST(ReducedGraphTest, TotalWeightPreservedUnderSum) {
  Rng rng(3);
  const Graph g = BarabasiAlbert(100, 3, rng);
  RothkoOptions options;
  options.max_colors = 12;
  const Partition p = RothkoColoring(g, options);
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kSum);
  EXPECT_NEAR(r.TotalWeight(), g.TotalWeight(), 1e-6);
}

TEST(ReducedGraphTest, UndirectedStaysUndirected) {
  Rng rng(4);
  const Graph g = ErdosRenyiGnm(30, 80, rng);
  const Partition p = StableColoring(g);
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kSum);
  EXPECT_TRUE(r.undirected());
  for (const EdgeTriple& a : r.Arcs()) {
    EXPECT_DOUBLE_EQ(r.ArcWeight(a.dst, a.src), a.weight);
  }
}

TEST(ReducedGraphTest, EdgeExistsIffMembersConnect) {
  Rng rng(5);
  const Graph g = BlockBiregularGraph(8, 4, 12, rng);
  std::vector<int32_t> labels(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) labels[v] = v / 4;
  const Partition p = Partition::FromColorIds(labels);
  const Graph r = BuildReducedGraph(g, p, ReducedWeight::kSum);
  for (ColorId i = 0; i < 8; ++i) {
    for (ColorId j = 0; j < 8; ++j) {
      bool any = false;
      for (NodeId u : p.Members(i)) {
        for (NodeId v : p.Members(j)) any |= g.HasArc(u, v);
      }
      EXPECT_EQ(r.HasArc(i, j), any) << i << "," << j;
    }
  }
}

// The map-based construction BuildReducedGraph used before its dense
// accumulator: one pass over the arcs in ascending source order, summed per
// (color, color) key. The bit-identity reference for the tests below.
Graph ReferenceReducedGraph(const GraphView& g, const Partition& p,
                            ReducedWeight weight) {
  std::map<std::pair<ColorId, ColorId>, double> totals;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const NeighborEntry& e : g.OutNeighbors(u)) {
      totals[{p.ColorOf(u), p.ColorOf(e.node)}] += e.weight;
    }
  }
  std::vector<EdgeTriple> arcs;
  for (const auto& [key, total] : totals) {
    const auto [i, j] = key;
    double w = total;
    const double si = static_cast<double>(p.ColorSize(i));
    const double sj = static_cast<double>(p.ColorSize(j));
    switch (weight) {
      case ReducedWeight::kSum:
        break;
      case ReducedWeight::kMean:
        w /= si * sj;
        break;
      case ReducedWeight::kSqrtNormalized:
        w /= std::sqrt(si * sj);
        break;
    }
    if (g.undirected() && i > j) continue;
    arcs.push_back({i, j, w});
  }
  return Graph::FromEdges(p.num_colors(), arcs, g.undirected());
}

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

void ExpectBitIdentical(const Graph& actual, const Graph& expected) {
  ASSERT_EQ(actual.num_nodes(), expected.num_nodes());
  ASSERT_EQ(actual.undirected(), expected.undirected());
  const std::vector<EdgeTriple> a = actual.Arcs();
  const std::vector<EdgeTriple> b = expected.Arcs();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].src, b[i].src) << i;
    ASSERT_EQ(a[i].dst, b[i].dst) << i;
    ASSERT_EQ(std::memcmp(&a[i].weight, &b[i].weight, sizeof(double)), 0)
        << "arc (" << a[i].src << ", " << a[i].dst << "): " << a[i].weight
        << " vs " << b[i].weight;
  }
}

// Signed weights whose sums depend on the summation order (1e16 absorbs a
// unit added after it but not one added before), cancel to zero (+x then
// -x) or are signed zeros. FromEdges sums an edge's duplicates, so a zero
// weight only survives inside a nonzero duplicate group.
Graph RandomSignedGraph(NodeId n, int64_t num_edges, bool undirected,
                        Rng& rng) {
  static constexpr double kWeights[] = {1.0,  -1.0, 0.5,  -0.5, 0.0,
                                        -0.0, 1e16, -1e16, 0.1, -2.75};
  std::vector<EdgeTriple> edges;
  for (int64_t e = 0; e < num_edges; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    edges.push_back({u, v, kWeights[rng.NextBounded(std::size(kWeights))]});
  }
  return Graph::FromEdges(n, edges, undirected);
}

// k colors over n nodes, every color used, members scattered.
Partition RandomPartition(NodeId n, ColorId k, Rng& rng) {
  std::vector<int32_t> labels(n);
  for (NodeId v = 0; v < n; ++v) {
    labels[v] = v < k ? v : static_cast<int32_t>(rng.NextBounded(k));
  }
  rng.Shuffle(labels);
  return Partition::FromColorIds(labels);
}

TEST(ReducedGraphBitIdentityTest, MatchesMapReferenceForEveryColorCount) {
  // 1..n colors: k * k <= max(k, arcs) takes the single dense block, larger
  // k (up to the discrete partition) the multi-block path.
  for (const bool undirected : {false, true}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      Rng rng(seed * 7919 + (undirected ? 1 : 0));
      const NodeId n = 40 + static_cast<NodeId>(rng.NextBounded(40));
      const Graph g = RandomSignedGraph(n, 3 * n, undirected, rng);
      int multi_block = 0;
      for (ColorId k = 1; k <= n; ++k) {
        const Partition p = RandomPartition(n, k, rng);
        if (static_cast<int64_t>(k) * k > std::max<int64_t>(k, g.num_arcs())) {
          ++multi_block;
        }
        for (const ReducedWeight weight :
             {ReducedWeight::kSum, ReducedWeight::kMean,
              ReducedWeight::kSqrtNormalized}) {
          SCOPED_TRACE(::testing::Message()
                       << "undirected=" << undirected << " seed=" << seed
                       << " k=" << k << " weight=" << static_cast<int>(weight));
          ExpectBitIdentical(BuildReducedGraph(g, p, weight),
                             ReferenceReducedGraph(g, p, weight));
        }
      }
      EXPECT_GT(multi_block, 0);
    }
  }
}

TEST(ReducedGraphBitIdentityTest, OrderSensitiveSumsOnRothkoColorings) {
  // Every node's out-arcs are 1e16, 1, -1e16 in ascending target order:
  // a pair's total depends on the order its terms arrive in.
  const NodeId n = 300;
  std::vector<EdgeTriple> arcs;
  for (NodeId u = 0; u < n; ++u) {
    arcs.push_back({u, (u + 1) % n, 1e16});
    arcs.push_back({u, (u + 2) % n, 1.0});
    arcs.push_back({u, (u + 3) % n, -1e16});
  }
  Rng rng(11);
  const Graph base = BarabasiAlbert(n, 2, rng);
  for (const EdgeTriple& a : base.Arcs()) arcs.push_back(a);
  const Graph g = Graph::FromArcs(n, arcs, /*undirected=*/false);
  for (const ColorId colors : {4, 16, 64}) {
    RothkoOptions options;
    options.max_colors = colors;
    const Partition p = RothkoColoring(g, options);
    ExpectBitIdentical(BuildReducedGraph(g, p, ReducedWeight::kSum),
                       ReferenceReducedGraph(g, p, ReducedWeight::kSum));
  }
}

// SumColorPairs straight: terms include signed zeros, which no Graph arc
// can carry, and cells that cancel to exactly zero.
TEST(SumColorPairsTest, MatchesMapReferenceWithSignedZeroTerms) {
  static constexpr double kValues[] = {0.0, -0.0, 1.0, -1.0, 1e16, -1e16,
                                       0.25};
  int single_blocks = 0, multi_blocks = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int32_t rows = 1 + static_cast<int32_t>(rng.NextBounded(30));
    const int32_t cols = 1 + static_cast<int32_t>(rng.NextBounded(30));
    const int64_t num_sources = static_cast<int64_t>(rng.NextBounded(40));
    std::vector<int32_t> row_of(num_sources);
    std::vector<std::vector<std::pair<int32_t, double>>> terms(num_sources);
    int64_t num_terms = 0;
    for (int64_t s = 0; s < num_sources; ++s) {
      row_of[s] = static_cast<int32_t>(rng.NextBounded(rows));
      const int64_t count = static_cast<int64_t>(rng.NextBounded(6));
      for (int64_t t = 0; t < count; ++t) {
        terms[s].push_back({static_cast<int32_t>(rng.NextBounded(cols)),
                            kValues[rng.NextBounded(std::size(kValues))]});
      }
      num_terms += count;
    }
    std::map<std::pair<int32_t, int32_t>, double> expected;
    for (int64_t s = 0; s < num_sources; ++s) {
      for (const auto& [col, value] : terms[s]) {
        expected[{row_of[s], col}] += value;
      }
    }
    std::vector<std::tuple<int32_t, int32_t, double>> emitted;
    SumColorPairs(
        num_sources, rows, cols, num_terms,
        [&](int64_t s) { return row_of[s]; },
        [&](int64_t s, auto add) {
          for (const auto& [col, value] : terms[s]) add(col, value);
        },
        [&](int32_t r, int32_t c, double total) {
          emitted.emplace_back(r, c, total);
        });
    const bool single_block =
        static_cast<int64_t>(rows) * cols <= std::max<int64_t>(cols, num_terms);
    ++(single_block ? single_blocks : multi_blocks);
    if (single_block) {
      EXPECT_TRUE(std::is_sorted(
          emitted.begin(), emitted.end(), [](const auto& a, const auto& b) {
            return std::make_pair(std::get<0>(a), std::get<1>(a)) <
                   std::make_pair(std::get<0>(b), std::get<1>(b));
          }));
    }
    std::map<std::pair<int32_t, int32_t>, double> actual;
    for (const auto& [r, c, total] : emitted) {
      EXPECT_TRUE(actual.emplace(std::make_pair(r, c), total).second)
          << "cell (" << r << ", " << c << ") emitted twice";
      EXPECT_NE(total, 0.0);
    }
    for (auto it = expected.begin(); it != expected.end();) {
      it = it->second == 0.0 ? expected.erase(it) : std::next(it);
    }
    ASSERT_EQ(actual.size(), expected.size()) << "seed " << seed;
    for (const auto& [cell, total] : expected) {
      ASSERT_EQ(actual.count(cell), 1u) << "seed " << seed;
      EXPECT_EQ(Bits(actual.at(cell)), Bits(total))
          << "seed " << seed << " cell (" << cell.first << ", "
          << cell.second << ")";
    }
  }
  EXPECT_GT(single_blocks, 0);
  EXPECT_GT(multi_blocks, 0);
}

}  // namespace
}  // namespace qsc
