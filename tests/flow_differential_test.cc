// Differential tests for the three exact max-flow solvers: Dinic,
// Edmonds-Karp and push-relabel must agree to 1e-9 on seeded random
// networks, including the representational edge cases an adversarial
// instance can hit — zero-capacity arcs in the residual network, arcs
// whose graph weights coalesce to zero, and source/sink pairs with no
// connecting path.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "qsc/eval/differential.h"
#include "qsc/eval/pipelines.h"
#include "qsc/flow/dinic.h"
#include "qsc/flow/edmonds_karp.h"
#include "qsc/flow/min_cut.h"
#include "qsc/flow/network.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

// Runs all three solvers on fresh copies of `net` and checks pairwise
// agreement; returns the push-relabel value.
double ExpectSolversAgree(const ResidualNetwork& net, NodeId source,
                          NodeId sink) {
  ResidualNetwork for_dinic = net;
  ResidualNetwork for_ek = net;
  ResidualNetwork for_pr = net;
  const double dinic = MaxFlowDinic(for_dinic, source, sink);
  const double ek = MaxFlowEdmondsKarp(for_ek, source, sink);
  const double pr = MaxFlowPushRelabel(for_pr, source, sink);
  const double tol = 1e-9 * std::max(1.0, std::abs(pr));
  EXPECT_NEAR(dinic, ek, tol);
  EXPECT_NEAR(dinic, pr, tol);
  return pr;
}

class FlowDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(FlowDifferentialTest, SolversAgreeOnRandomNetworks) {
  Rng rng(GetParam());
  const FlowInstance inst = GridFlowNetwork(12, 7, 9, 25, rng);
  const double flow =
      ExpectSolversAgree(ResidualNetwork::FromGraph(inst.graph), inst.source,
                         inst.sink);
  EXPECT_GT(flow, 0.0);
  // Strong duality certifies all three.
  EXPECT_NEAR(MinCut(inst.graph, inst.source, inst.sink).value, flow,
              1e-9 * std::max(1.0, flow));
}

TEST_P(FlowDifferentialTest, SolversAgreeWithZeroCapacityArcs) {
  // A random network where ~1/3 of the arcs have capacity exactly zero:
  // present in the residual representation but unusable. The solvers must
  // neither route flow through them nor disagree on the value.
  Rng rng(GetParam() + 1000);
  const NodeId n = 24;
  ResidualNetwork net(n);
  for (int i = 0; i < 140; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    const double cap =
        rng.Bernoulli(1.0 / 3) ? 0.0 : static_cast<double>(rng.UniformInt(1, 9));
    net.AddArc(u, v, cap);
  }
  ExpectSolversAgree(net, 0, n - 1);
}

TEST_P(FlowDifferentialTest, ZeroCoalescedArcsMatchTheirAbsence) {
  // Graph-level zero arcs: duplicate edges canceling to weight zero are
  // dropped by Graph::FromEdges, so the flow must equal the instance
  // without them.
  Rng rng(GetParam() + 2000);
  std::vector<EdgeTriple> edges;
  const NodeId n = 16;
  for (int i = 0; i < 60; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) continue;
    edges.push_back({u, v, static_cast<double>(rng.UniformInt(1, 6))});
  }
  std::vector<EdgeTriple> with_cancelled = edges;
  for (int i = 0; i < 20; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    NodeId v = static_cast<NodeId>(rng.NextBounded(n));
    if (u == v) v = (v + 1) % n;
    with_cancelled.push_back({u, v, 2.5});
    with_cancelled.push_back({u, v, -2.5});
  }
  const Graph plain = Graph::FromEdges(n, edges, /*undirected=*/false);
  const Graph cancelled =
      Graph::FromEdges(n, with_cancelled, /*undirected=*/false);
  EXPECT_TRUE(plain == cancelled);
  const double a = ExpectSolversAgree(ResidualNetwork::FromGraph(plain), 0,
                                      n - 1);
  const double b = ExpectSolversAgree(ResidualNetwork::FromGraph(cancelled),
                                      0, n - 1);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST_P(FlowDifferentialTest, DisconnectedSourceSinkGivesZeroFlow) {
  // Two random components with no arcs between them: every solver must
  // report exactly zero for a cross-component source/sink pair.
  Rng rng(GetParam() + 3000);
  const NodeId half = 10;
  std::vector<EdgeTriple> edges;
  for (int i = 0; i < 40; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(half));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(half));
    if (u != v) edges.push_back({u, v, static_cast<double>(rng.UniformInt(1, 5))});
    const NodeId x = static_cast<NodeId>(half + rng.NextBounded(half));
    const NodeId y = static_cast<NodeId>(half + rng.NextBounded(half));
    if (x != y) edges.push_back({x, y, static_cast<double>(rng.UniformInt(1, 5))});
  }
  const Graph g = Graph::FromEdges(2 * half, edges, /*undirected=*/false);
  const double flow =
      ExpectSolversAgree(ResidualNetwork::FromGraph(g), 0, 2 * half - 1);
  EXPECT_DOUBLE_EQ(flow, 0.0);
}

TEST_P(FlowDifferentialTest, EvalRunnerFindsNoViolations) {
  // The packaged invariant suite over the same seeds (solver agreement,
  // duality, Theorem-6 bound directions, anytime monotonicity).
  eval::EvalOptions options;
  options.seed = GetParam();
  options.compute_flow_lower_bound = true;
  Rng rng(GetParam());
  const FlowInstance inst = SegmentationGridNetwork(20, 12, 2, rng);
  const eval::DifferentialReport report =
      eval::DifferentialRunner(options).CheckMaxFlow(inst, {6, 12, 24});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlowDifferentialTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(FlowDifferentialTest, SinkUnreachableByOrientation) {
  // A path oriented away from the sink: connectivity exists in the
  // undirected sense but no directed s->t path does.
  const Graph g = Graph::FromEdges(
      4, {{3, 2, 5.0}, {2, 1, 5.0}, {1, 0, 5.0}}, false);
  EXPECT_DOUBLE_EQ(ExpectSolversAgree(ResidualNetwork::FromGraph(g), 0, 3),
                   0.0);
}

TEST(FlowDifferentialTest, OnlyZeroCapacityPathToSink) {
  // s -> m -> t exists but the second hop has capacity zero.
  ResidualNetwork net(3);
  net.AddArc(0, 1, 7.0);
  net.AddArc(1, 2, 0.0);
  EXPECT_DOUBLE_EQ(ExpectSolversAgree(net, 0, 2), 0.0);
}

}  // namespace
}  // namespace qsc
