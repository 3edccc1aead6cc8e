#include "qsc/graph/graph.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "qsc/graph/datasets.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

TEST(GraphTest, EmptyGraph) {
  const Graph g = Graph::FromEdges(0, {}, false);
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, DirectedArcsStoredOnce) {
  const Graph g = Graph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}}, false);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.undirected());
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.InDegree(0), 0);
  EXPECT_EQ(g.InDegree(1), 1);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.ArcWeight(1, 0), 0.0);
}

TEST(GraphTest, UndirectedEdgesMirrored) {
  const Graph g = Graph::FromEdges(3, {{0, 1, 2.0}}, true);
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.undirected());
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.ArcWeight(1, 0), 2.0);
}

TEST(GraphTest, ParallelEdgesCoalesced) {
  const Graph g =
      Graph::FromEdges(2, {{0, 1, 1.0}, {0, 1, 2.5}}, false);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), 3.5);
}

TEST(GraphTest, ZeroAggregateWeightDropped) {
  const Graph g =
      Graph::FromEdges(2, {{0, 1, 1.0}, {0, 1, -1.0}}, false);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_FALSE(g.HasArc(0, 1));
}

TEST(GraphTest, SelfLoopUndirectedStoredOnce) {
  const Graph g = Graph::FromEdges(2, {{0, 0, 4.0}, {0, 1, 1.0}}, true);
  EXPECT_EQ(g.num_arcs(), 3);  // loop + two mirrored arcs
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 0), 4.0);
}

TEST(GraphTest, WeightCaches) {
  const Graph g = Graph::FromEdges(
      3, {{0, 1, 2.0}, {0, 2, 3.0}, {1, 2, 4.0}}, false);
  EXPECT_DOUBLE_EQ(g.OutWeight(0), 5.0);
  EXPECT_DOUBLE_EQ(g.InWeight(2), 7.0);
  EXPECT_DOUBLE_EQ(g.TotalWeight(), 9.0);
}

TEST(GraphTest, NegativeWeightsAllowed) {
  const Graph g = Graph::FromEdges(2, {{0, 1, -2.5}}, false);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), -2.5);
  EXPECT_DOUBLE_EQ(g.OutWeight(0), -2.5);
}

TEST(GraphTest, AdjacencySortedByEndpoint) {
  const Graph g = Graph::FromEdges(
      4, {{0, 3, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}}, false);
  NodeId prev = -1;
  for (const NeighborEntry& e : g.OutNeighbors(0)) {
    EXPECT_GT(e.node, prev);
    prev = e.node;
  }
}

TEST(GraphTest, ArcsRoundTrip) {
  const std::vector<EdgeTriple> edges{{0, 1, 1.5}, {2, 0, 2.5}};
  const Graph g = Graph::FromEdges(3, edges, false);
  const auto arcs = g.Arcs();
  ASSERT_EQ(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].src, 0);
  EXPECT_EQ(arcs[0].dst, 1);
  EXPECT_EQ(arcs[1].src, 2);
  EXPECT_EQ(arcs[1].dst, 0);
}

TEST(GraphTest, InNeighborsMatchOutArcs) {
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {1, 2, 5.0}, {3, 2, 2.0}}, false);
  double total_in = 0.0;
  int64_t count = 0;
  for (const NeighborEntry& e : g.InNeighbors(2)) {
    total_in += e.weight;
    ++count;
  }
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(total_in, 8.0);
}

TEST(GraphTest, OutOfRangeEndpointDies) {
  EXPECT_DEATH(Graph::FromEdges(2, {{0, 2, 1.0}}, false), "QSC_CHECK");
}

TEST(GraphTest, UndirectedDuplicatesCoalescingToZeroDropBothArcs) {
  // {0,1,+2} and {0,1,-2} mirror to four arcs that cancel pairwise; the
  // edge must vanish entirely (paper convention: edge exists iff w != 0)
  // and never leave a one-sided residue.
  const Graph g = Graph::FromEdges(
      3, {{0, 1, 2.0}, {0, 1, -2.0}, {1, 2, 1.0}}, true);
  EXPECT_FALSE(g.HasArc(0, 1));
  EXPECT_FALSE(g.HasArc(1, 0));
  EXPECT_EQ(g.num_arcs(), 2);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.OutWeight(0), 0.0);
  EXPECT_DOUBLE_EQ(g.InWeight(0), 0.0);
}

TEST(GraphTest, UndirectedCancellationAcrossOrientations) {
  // The same logical edge given once per orientation: undirected
  // construction mirrors both, so all four arcs cancel.
  const Graph g = Graph::FromEdges(2, {{0, 1, 3.0}, {1, 0, -3.0}}, true);
  EXPECT_EQ(g.num_arcs(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST(GraphTest, UndirectedSelfLoopDuplicatesCoalesced) {
  // Self-loops are stored once in undirected mode, including duplicates;
  // a loop coalescing to zero disappears without skewing num_edges.
  const Graph g = Graph::FromEdges(
      2, {{0, 0, 1.5}, {0, 0, 2.5}, {1, 1, 1.0}, {1, 1, -1.0}}, true);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 0), 4.0);
  EXPECT_FALSE(g.HasArc(1, 1));
}

TEST(GraphTest, UndirectedDuplicatesStoreBitwiseSymmetricArcs) {
  // Duplicates of one undirected edge, in any order and orientation, must
  // sum to bitwise the same weight on both stored arcs: 2,000 random
  // 1-9-node graphs with up to 30 edges weighted +-k/10, whose sums are
  // order-sensitive in the last ulp.
  Rng rng(0x5e11);
  int asymmetric = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const NodeId n = static_cast<NodeId>(rng.UniformInt(1, 9));
    std::vector<EdgeTriple> edges(rng.UniformInt(0, 30));
    for (EdgeTriple& e : edges) {
      e.src = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      e.dst = static_cast<NodeId>(rng.UniformInt(0, n - 1));
      e.weight = static_cast<double>(rng.UniformInt(-9, 9)) / 10.0;
    }
    const Graph g = Graph::FromEdges(n, edges, /*undirected=*/true);
    bool symmetric = true;
    for (const EdgeTriple& a : g.Arcs()) {
      symmetric = symmetric && g.HasArc(a.dst, a.src) &&
                  g.ArcWeight(a.dst, a.src) == a.weight;
    }
    symmetric = symmetric && Graph::FromArcs(n, g.Arcs(), true) == g;
    asymmetric += symmetric ? 0 : 1;
  }
  EXPECT_EQ(asymmetric, 0);
}

TEST(GraphTest, FromArcsRoundTripsDirectedGraph) {
  const Graph g = Graph::FromEdges(
      4, {{0, 2, 1.0}, {1, 2, 5.0}, {3, 2, 2.0}, {2, 0, -1.5}}, false);
  const Graph back = Graph::FromArcs(g.num_nodes(), g.Arcs(), g.undirected());
  EXPECT_TRUE(g == back);
}

TEST(GraphTest, FromArcsRoundTripsUndirectedGraphWithLoops) {
  // FromEdges would re-mirror Arcs() and double every non-loop weight;
  // FromArcs is the exact inverse.
  const Graph g = Graph::FromEdges(
      4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 2, 4.0}, {0, 3, 1.0}}, true);
  const Graph back = Graph::FromArcs(g.num_nodes(), g.Arcs(), g.undirected());
  EXPECT_TRUE(g == back);
  EXPECT_DOUBLE_EQ(back.ArcWeight(0, 1), 2.0);  // not doubled
  EXPECT_EQ(back.num_edges(), g.num_edges());

  // The naive FromEdges round trip is NOT the identity — this asymmetry is
  // why FromArcs exists.
  const Graph doubled =
      Graph::FromEdges(g.num_nodes(), g.Arcs(), g.undirected());
  EXPECT_DOUBLE_EQ(doubled.ArcWeight(0, 1), 4.0);
}

TEST(GraphTest, FromArcsCoalescesDuplicates) {
  const Graph g = Graph::FromArcs(
      2, {{0, 1, 1.0}, {0, 1, 2.0}, {1, 0, -3.0}, {1, 0, 3.0}}, false);
  EXPECT_EQ(g.num_arcs(), 1);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), 3.0);
  EXPECT_FALSE(g.HasArc(1, 0));
}

TEST(GraphTest, FromArcsRejectsAsymmetricUndirectedInput) {
  EXPECT_DEATH(Graph::FromArcs(2, {{0, 1, 1.0}}, true), "QSC_CHECK");
}

TEST(GraphTest, FromArcsToleratesRoundingResidueInCancelledEdges) {
  // Duplicate sums are order-dependent: one direction of this symmetric
  // multiset cancels to exactly 0 (dropped) while the mirror may keep an
  // ulp-sized residue. FromArcs must treat the residue as a cancelled
  // edge, not abort or keep a one-sided arc.
  const Graph g = Graph::FromArcs(3,
                                  {{0, 1, 1.0},
                                   {0, 1, -1.0},
                                   {0, 1, 1e-18},
                                   {1, 0, 1e-18},
                                   {1, 0, -1.0},
                                   {1, 0, 1.0},
                                   {1, 2, 2.0},
                                   {2, 1, 2.0}},
                                  true);
  EXPECT_FALSE(g.HasArc(0, 1));
  EXPECT_FALSE(g.HasArc(1, 0));
  EXPECT_DOUBLE_EQ(g.ArcWeight(1, 2), 2.0);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(GraphTest, FromArcsSymmetrizesUlpWeightDifferences) {
  // Near-equal mirror weights (rounding skew) collapse onto one canonical
  // value so the stored representation is exactly symmetric.
  const double w = 3.0;
  const double w_skewed = w + 1e-12;
  const Graph g =
      Graph::FromArcs(2, {{0, 1, w}, {1, 0, w_skewed}}, true);
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), g.ArcWeight(1, 0));
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), w);
}

TEST(GraphTest, EqualityDetectsWeightAndStructureDifferences) {
  const Graph a = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}}, false);
  const Graph b = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.0}}, false);
  const Graph c = Graph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 2.5}}, false);
  const Graph d = Graph::FromEdges(3, {{0, 1, 1.0}, {0, 2, 2.0}}, false);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(a != c);
  EXPECT_TRUE(a != d);
}

TEST(KarateClubTest, MatchesPaperStats) {
  const Graph g = KarateClub();
  EXPECT_EQ(g.num_nodes(), 34);
  EXPECT_EQ(g.num_edges(), 78);
  EXPECT_TRUE(g.undirected());
  // Leaders: node 1 (id 0) has degree 16, node 34 (id 33) degree 17.
  EXPECT_EQ(g.OutDegree(0), 16);
  EXPECT_EQ(g.OutDegree(33), 17);
}

TEST(Figure5GraphTest, EveryNodeDegreeTwo) {
  const auto ce = Figure5Graph();
  for (NodeId v = 0; v < ce.graph.num_nodes(); ++v) {
    EXPECT_EQ(ce.graph.OutDegree(v), 2);
  }
}

// ---- In-place single-edge mutators (docs/DYNAMIC.md) ----

// The mutator contract: a mutated graph is indistinguishable from
// FromArcs() over its mutated arc list, down to the cached weight
// aggregates (compared with exact equality, not a tolerance).
void ExpectEqualsRebuild(const Graph& g) {
  const Graph rebuilt =
      Graph::FromArcs(g.num_nodes(), g.Arcs(), g.undirected());
  ASSERT_TRUE(g == rebuilt);
  EXPECT_EQ(g.num_edges(), rebuilt.num_edges());
  EXPECT_EQ(g.num_arcs(), rebuilt.num_arcs());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_EQ(g.OutWeight(v), rebuilt.OutWeight(v)) << "node " << v;
    EXPECT_EQ(g.InWeight(v), rebuilt.InWeight(v)) << "node " << v;
    EXPECT_EQ(g.OutDegree(v), rebuilt.OutDegree(v)) << "node " << v;
    EXPECT_EQ(g.InDegree(v), rebuilt.InDegree(v)) << "node " << v;
  }
  EXPECT_EQ(g.TotalWeight(), rebuilt.TotalWeight());
}

TEST(GraphMutatorsTest, AddEdgeDirected) {
  Graph g = Graph::FromEdges(4, {{0, 1, 2.0}, {1, 2, 3.0}}, false);
  ASSERT_TRUE(g.AddEdge(2, 0, 0.5).ok());
  EXPECT_EQ(g.num_arcs(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_DOUBLE_EQ(g.ArcWeight(2, 0), 0.5);
  EXPECT_FALSE(g.HasArc(0, 2));  // directed: no mirror
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, AddEdgeUndirectedMirrorsBothArcs) {
  Graph g = Graph::FromEdges(4, {{0, 1, 2.0}}, true);
  ASSERT_TRUE(g.AddEdge(1, 3, 4.0).ok());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.num_arcs(), 4);
  EXPECT_DOUBLE_EQ(g.ArcWeight(1, 3), 4.0);
  EXPECT_DOUBLE_EQ(g.ArcWeight(3, 1), 4.0);
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, AddSelfLoopUndirectedStoredOnce) {
  Graph g = Graph::FromEdges(3, {{0, 1, 1.0}}, true);
  ASSERT_TRUE(g.AddEdge(2, 2, 5.0).ok());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.num_arcs(), 3);  // loop stored once
  EXPECT_DOUBLE_EQ(g.ArcWeight(2, 2), 5.0);
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, RemoveEdgeDirected) {
  Graph g = Graph::FromEdges(4, {{0, 1, 2.0}, {1, 2, 3.0}, {2, 3, 4.0}},
                             false);
  ASSERT_TRUE(g.RemoveEdge(1, 2).ok());
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_FALSE(g.HasArc(1, 2));
  EXPECT_DOUBLE_EQ(g.OutWeight(1), 0.0);
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, RemoveEdgeUndirectedDropsBothArcs) {
  Graph g = Graph::FromEdges(4, {{0, 1, 2.0}, {1, 2, 3.0}}, true);
  ASSERT_TRUE(g.RemoveEdge(2, 1).ok());  // either endpoint order
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.HasArc(1, 2));
  EXPECT_FALSE(g.HasArc(2, 1));
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, SetWeightUpdatesBothUndirectedArcs) {
  Graph g = Graph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}}, true);
  ASSERT_TRUE(g.SetWeight(1, 0, 7.5).ok());
  EXPECT_DOUBLE_EQ(g.ArcWeight(0, 1), 7.5);
  EXPECT_DOUBLE_EQ(g.ArcWeight(1, 0), 7.5);
  EXPECT_EQ(g.num_edges(), 2);
  ExpectEqualsRebuild(g);
}

TEST(GraphMutatorsTest, MutationSequenceMatchesRebuildAtEveryStep) {
  Graph g = KarateClub();
  ASSERT_TRUE(g.AddEdge(0, 9, 2.0).ok());
  ExpectEqualsRebuild(g);
  ASSERT_TRUE(g.SetWeight(0, 9, 0.25).ok());
  ExpectEqualsRebuild(g);
  ASSERT_TRUE(g.RemoveEdge(33, 32).ok());
  ExpectEqualsRebuild(g);
  ASSERT_TRUE(g.AddEdge(33, 7, 1.0).ok());
  ExpectEqualsRebuild(g);
}

// Boundary rejection table: every invalid call reports the documented
// code with a descriptive message and leaves the graph untouched.
TEST(GraphMutatorsTest, RejectionTable) {
  struct Case {
    const char* name;
    Status (*apply)(Graph& g);
    StatusCode want_code;
    const char* want_substring;
  };
  const Case kCases[] = {
      {"add-src-out-of-range",
       [](Graph& g) { return g.AddEdge(-1, 0, 1.0); },
       StatusCode::kInvalidArgument, "out of range"},
      {"add-dst-out-of-range",
       [](Graph& g) { return g.AddEdge(0, 3, 1.0); },
       StatusCode::kInvalidArgument, "out of range"},
      {"add-nan-weight",
       [](Graph& g) {
         return g.AddEdge(0, 2, std::numeric_limits<double>::quiet_NaN());
       },
       StatusCode::kInvalidArgument, "finite"},
      {"add-inf-weight",
       [](Graph& g) {
         return g.AddEdge(0, 2, std::numeric_limits<double>::infinity());
       },
       StatusCode::kInvalidArgument, "finite"},
      {"add-zero-weight",
       [](Graph& g) { return g.AddEdge(0, 2, 0.0); },
       StatusCode::kInvalidArgument, "nonzero"},
      {"add-present-arc",
       [](Graph& g) { return g.AddEdge(0, 1, 1.0); },
       StatusCode::kInvalidArgument, "use SetWeight"},
      {"remove-src-out-of-range",
       [](Graph& g) { return g.RemoveEdge(3, 0); },
       StatusCode::kInvalidArgument, "out of range"},
      {"remove-absent-arc",
       [](Graph& g) { return g.RemoveEdge(0, 2); },
       StatusCode::kNotFound, "no arc"},
      {"set-weight-absent-arc",
       [](Graph& g) { return g.SetWeight(2, 0, 1.0); },
       StatusCode::kNotFound, "no arc"},
      {"set-weight-zero",
       [](Graph& g) { return g.SetWeight(0, 1, 0.0); },
       StatusCode::kInvalidArgument, "RemoveEdge"},
      {"set-weight-nan",
       [](Graph& g) {
         return g.SetWeight(0, 1, std::numeric_limits<double>::quiet_NaN());
       },
       StatusCode::kInvalidArgument, "finite"},
      {"set-weight-dst-out-of-range",
       [](Graph& g) { return g.SetWeight(0, -2, 1.0); },
       StatusCode::kInvalidArgument, "out of range"},
  };
  for (const bool undirected : {false, true}) {
    for (const Case& c : kCases) {
      Graph g = Graph::FromEdges(3, {{0, 1, 2.0}, {1, 2, 3.0}}, undirected);
      const Graph before = g;
      const Status s = c.apply(g);
      EXPECT_EQ(s.code(), c.want_code)
          << c.name << " (undirected=" << undirected << "): " << s.message();
      EXPECT_NE(s.message().find(c.want_substring), std::string::npos)
          << c.name << ": message was \"" << s.message() << "\"";
      EXPECT_TRUE(g == before) << c.name << " mutated the graph on error";
    }
  }
}

}  // namespace
}  // namespace qsc
