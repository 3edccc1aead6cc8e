// Compressor::FromFile (qsc/api/compressor.h): the zero-copy mmap
// serving path. All five query kinds must answer bit-identically to a
// session built from the materialized graph, graph() must lazily
// materialize without disturbing serving (also when racing queries), and
// ApplyEdits must perform the one-time copy-on-write materialization and
// keep the session serving the mutated graph — or, on a bad batch, the
// unchanged one.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/io.h"
#include "qsc/lp/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Graph DirectedBa(NodeId n, uint64_t seed) {
  Rng rng(seed);
  const Graph ba = BarabasiAlbert(n, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

// Writes `g`, opens a FromFile session on it, and hands both to `fn`.
template <typename Fn>
void WithMappedSession(const Graph& g, const std::string& name, Fn fn) {
  const std::string path = TempPath(name);
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<Compressor> session = Compressor::FromFile(path);
  ASSERT_TRUE(session.ok()) << session.status().message();
  fn(*session);
  std::remove(path.c_str());
}

TEST(ServingMmapTest, FromFileMissingFileFails) {
  const StatusOr<Compressor> session =
      Compressor::FromFile(TempPath("absent.qscbin"));
  EXPECT_FALSE(session.ok());
}

TEST(ServingMmapTest, FromFileHasGraphWithoutMaterializing) {
  const Graph g = DirectedBa(120, 5);
  WithMappedSession(g, "mmap_has_graph.qscbin", [&](Compressor& session) {
    EXPECT_TRUE(session.has_graph());
    EXPECT_EQ(session.graph_version(), 0);
  });
}

// Runs all five query kinds on both sessions and expects bit-identical
// answers.
void ExpectSameAnswers(Compressor& got_session, Compressor& want_session) {
  QueryOptions options;
  options.max_colors = 24;

  const auto want_coloring = want_session.Coloring(options);
  const auto got_coloring = got_session.Coloring(options);
  ASSERT_TRUE(want_coloring.ok());
  ASSERT_TRUE(got_coloring.ok());
  EXPECT_EQ(*got_coloring->coloring, *want_coloring->coloring);
  EXPECT_EQ(got_coloring->max_q, want_coloring->max_q);

  const auto want_flow = want_session.MaxFlow(0, 42, options);
  const auto got_flow = got_session.MaxFlow(0, 42, options);
  ASSERT_TRUE(want_flow.ok());
  ASSERT_TRUE(got_flow.ok());
  EXPECT_EQ(got_flow->upper_bound, want_flow->upper_bound);
  EXPECT_EQ(got_flow->num_colors, want_flow->num_colors);

  const std::vector<std::pair<NodeId, NodeId>> pairs = {{1, 7}, {3, 19}};
  const auto want_batch = want_session.MaxFlowBatch(pairs, options);
  const auto got_batch = got_session.MaxFlowBatch(pairs, options);
  ASSERT_TRUE(want_batch.ok());
  ASSERT_TRUE(got_batch.ok());
  ASSERT_EQ(got_batch->size(), want_batch->size());
  for (size_t i = 0; i < got_batch->size(); ++i) {
    EXPECT_EQ((*got_batch)[i].upper_bound, (*want_batch)[i].upper_bound);
  }

  QueryOptions lp_options;
  lp_options.max_colors = 8;
  const auto want_lp = want_session.SolveLp(Figure3Lp(), lp_options);
  const auto got_lp = got_session.SolveLp(Figure3Lp(), lp_options);
  ASSERT_TRUE(want_lp.ok());
  ASSERT_TRUE(got_lp.ok());
  EXPECT_EQ(got_lp->lifted_x, want_lp->lifted_x);

  const auto want_central = want_session.Centrality(options);
  const auto got_central = got_session.Centrality(options);
  ASSERT_TRUE(want_central.ok());
  ASSERT_TRUE(got_central.ok());
  EXPECT_EQ(got_central->scores, want_central->scores);
}

TEST(ServingMmapTest, AllFiveQueryKindsMatchMaterializedSession) {
  const Graph g = DirectedBa(300, 9);
  Compressor reference(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  WithMappedSession(g, "mmap_identity.qscbin", [&](Compressor& session) {
    ExpectSameAnswers(session, reference);
  });
}

TEST(ServingMmapTest, GraphLazilyMaterializesAndMatchesReadBinary) {
  const Graph g = DirectedBa(150, 13);
  WithMappedSession(g, "mmap_lazy_graph.qscbin", [&](Compressor& session) {
    // graph() materializes an owning copy equal to the serialized graph;
    // queries before and after agree (serving stays on the view).
    QueryOptions options;
    options.max_colors = 16;
    const auto before = session.Coloring(options);
    ASSERT_TRUE(before.ok());
    EXPECT_TRUE(session.graph() == g);
    const auto after = session.Coloring(options);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after->coloring, *before->coloring);
  });
}

TEST(ServingMmapTest, ApplyEditsCopyOnWriteMatchesInMemorySession) {
  const Graph g = DirectedBa(200, 17);
  const StatusOr<std::vector<dynamic::EditOp>> edits =
      dynamic::GenerateEdits(g, dynamic::EditKind::kInsertEdge, 6, 17);
  ASSERT_TRUE(edits.ok());
  Compressor reference(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  WithMappedSession(g, "mmap_cow_edits.qscbin", [&](Compressor& session) {
    QueryOptions options;
    options.max_colors = 24;
    // Warm the caches pre-edit so the repair path runs on both sides.
    ASSERT_TRUE(session.Coloring(options).ok());
    ASSERT_TRUE(reference.Coloring(options).ok());

    const auto got_edit = session.ApplyEdits(*edits);
    const auto want_edit = reference.ApplyEdits(*edits);
    ASSERT_TRUE(got_edit.ok()) << got_edit.status().message();
    ASSERT_TRUE(want_edit.ok());
    EXPECT_EQ(got_edit->edits_applied, want_edit->edits_applied);
    EXPECT_EQ(session.graph_version(), 1);

    const auto got = session.Coloring(options);
    const auto want = reference.Coloring(options);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*got->coloring, *want->coloring);
    EXPECT_EQ(got->max_q, want->max_q);
    // The copy-on-write materialization happened; graph() now returns the
    // mutated owning graph.
    EXPECT_EQ(session.graph().num_edges(), g.num_edges() + 6);
  });
}

TEST(ServingMmapTest, ApplyEditsIsAllOrNothingOnABadEdit) {
  // The mapped counterpart of CompressorTest's in-memory case: the batch
  // materializes the mapping, then fails; the session must keep serving
  // the unedited graph exactly as a session on ReadBinary(path) does.
  const Graph g = DirectedBa(200, 19);
  NodeId v = 1;
  while (g.HasArc(0, v)) ++v;
  ASSERT_LT(v, g.num_nodes());
  const std::vector<dynamic::EditOp> batch = {
      {dynamic::EditKind::kInsertEdge, 0, v, 1.0},
      {dynamic::EditKind::kDeleteEdge, 5, 5, 0.0},  // absent self-loop
  };

  const std::string path = TempPath("mmap_bad_edit.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<Graph> read = ReadBinary(path);
  ASSERT_TRUE(read.ok());
  Compressor reference(std::move(read).value());
  StatusOr<Compressor> session = Compressor::FromFile(path);
  ASSERT_TRUE(session.ok()) << session.status().message();

  const auto applied = session->ApplyEdits(batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session->graph_version(), 0);
  ExpectSameAnswers(*session, reference);
  EXPECT_TRUE(session->graph() == g);
  std::remove(path.c_str());
}

TEST(ServingMmapTest, FileCanBeRemovedWhileSessionServes) {
  // mmap keeps the pages alive after the directory entry is gone — a
  // service can open a snapshot and let the producer rotate the file.
  const Graph g = DirectedBa(100, 21);
  const std::string path = TempPath("mmap_unlinked.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<Compressor> session = Compressor::FromFile(path);
  ASSERT_TRUE(session.ok());
  std::remove(path.c_str());
  QueryOptions options;
  options.max_colors = 8;
  const auto result = session->Coloring(options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->coloring->num_colors(), 0);
}

// graph() racing queries on a FromFile session: the first graph() call
// materializes the mapping while other threads serve queries off the
// mapped view. Every thread must see the one materialization, and every
// answer must match a single-threaded oracle. The TSan leg runs this
// suite (its name matches the concurrency regex).
TEST(ServingMmapConcurrencyTest, GraphRacesQueriesOnOneMaterialization) {
  constexpr int kThreads = 8;
  const Graph g = DirectedBa(200, 47);
  QueryOptions options;
  options.max_colors = 16;
  options.compute_lower_bound = true;
  const auto pair_of = [](int i) {
    return std::pair<NodeId, NodeId>(i, 100 + i);
  };

  std::vector<FlowQueryResult> want_flow;
  CentralityQueryResult want_central;
  {
    Compressor oracle(
        std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
    for (int i = 0; i < kThreads; ++i) {
      const auto [s, t] = pair_of(i);
      StatusOr<FlowQueryResult> flow = oracle.MaxFlow(s, t, options);
      ASSERT_TRUE(flow.ok());
      want_flow.push_back(std::move(flow).value());
    }
    StatusOr<CentralityQueryResult> central = oracle.Centrality(options);
    ASSERT_TRUE(central.ok());
    want_central = std::move(central).value();
  }

  WithMappedSession(g, "mmap_graph_race.qscbin", [&](Compressor& session) {
    std::vector<const Graph*> seen(kThreads, nullptr);
    std::vector<FlowQueryResult> got_flow(kThreads);
    std::vector<std::vector<double>> got_scores(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Half the threads materialize first, half query first.
        if (i % 2 == 0) seen[i] = &session.graph();
        const auto [s, t] = pair_of(i);
        StatusOr<FlowQueryResult> flow = session.MaxFlow(s, t, options);
        StatusOr<CentralityQueryResult> central = session.Centrality(options);
        if (i % 2 == 1) seen[i] = &session.graph();
        if (flow.ok()) got_flow[i] = std::move(flow).value();
        if (central.ok()) got_scores[i] = std::move(central).value().scores;
      });
    }
    for (std::thread& thread : threads) thread.join();

    ASSERT_NE(seen[0], nullptr);
    EXPECT_TRUE(*seen[0] == g);
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[i], seen[0]) << "thread " << i;
      EXPECT_EQ(got_flow[i].upper_bound, want_flow[i].upper_bound) << i;
      EXPECT_EQ(got_flow[i].lower_bound, want_flow[i].lower_bound) << i;
      EXPECT_EQ(got_flow[i].num_colors, want_flow[i].num_colors) << i;
      EXPECT_EQ(got_scores[i], want_central.scores) << "thread " << i;
    }
  });
}

}  // namespace
}  // namespace qsc
