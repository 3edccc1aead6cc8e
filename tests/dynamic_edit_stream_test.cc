#include "qsc/dynamic/edit_stream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/perturb.h"
#include "qsc/util/random.h"

namespace qsc {
namespace dynamic {
namespace {

Graph ErdosRenyiGraph(uint64_t seed, bool undirected) {
  Rng rng(seed);
  const Graph g = ErdosRenyiGnm(40, 100, rng);
  if (undirected) return g;
  // Rebuild the same arc set as a directed graph (both directions kept).
  return Graph::FromArcs(g.num_nodes(), g.Arcs(), /*undirected=*/false);
}

// ---- Generator / perturb equivalence ----

// GenerateEdits draws exactly like graph/perturb, so applying an
// insert-only batch reproduces AddRandomEdges bit for bit.
TEST(EditStreamTest, InsertBatchMatchesAddRandomEdges) {
  for (const bool undirected : {false, true}) {
    for (const uint64_t seed : {3u, 7u, 11u}) {
      const Graph g = ErdosRenyiGraph(seed, undirected);
      const StatusOr<std::vector<EditOp>> edits =
          GenerateEdits(g, EditKind::kInsertEdge, 12, seed * 13);
      ASSERT_TRUE(edits.ok()) << edits.status().ToString();
      const StatusOr<Graph> mutated = ApplyEditBatch(g, *edits);
      ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();

      Rng rng(seed * 13);
      const Graph want = AddRandomEdges(g, 12, rng);
      EXPECT_TRUE(*mutated == want)
          << "undirected=" << undirected << " seed=" << seed;
    }
  }
}

// Same equivalence for deletions against RemoveRandomEdges.
TEST(EditStreamTest, DeleteBatchMatchesRemoveRandomEdges) {
  for (const bool undirected : {false, true}) {
    for (const uint64_t seed : {3u, 7u, 11u}) {
      const Graph g = ErdosRenyiGraph(seed, undirected);
      const StatusOr<std::vector<EditOp>> edits =
          GenerateEdits(g, EditKind::kDeleteEdge, 9, seed * 17);
      ASSERT_TRUE(edits.ok()) << edits.status().ToString();
      const StatusOr<Graph> mutated = ApplyEditBatch(g, *edits);
      ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();

      Rng rng(seed * 17);
      const Graph want = RemoveRandomEdges(g, 9, rng);
      EXPECT_TRUE(*mutated == want)
          << "undirected=" << undirected << " seed=" << seed;
    }
  }
}

TEST(EditStreamTest, UpdateBatchTargetsExistingEdges) {
  const Graph g = KarateClub();
  const StatusOr<std::vector<EditOp>> edits =
      GenerateEdits(g, EditKind::kUpdateWeight, 10, 5);
  ASSERT_TRUE(edits.ok());
  for (const EditOp& e : *edits) {
    EXPECT_EQ(e.kind, EditKind::kUpdateWeight);
    EXPECT_TRUE(g.HasArc(e.src, e.dst));
    EXPECT_GE(e.weight, 1.0);
    EXPECT_LE(e.weight, 8.0);
    EXPECT_EQ(e.weight, static_cast<double>(static_cast<int64_t>(e.weight)));
  }
  const StatusOr<Graph> mutated = ApplyEditBatch(g, *edits);
  ASSERT_TRUE(mutated.ok()) << mutated.status().ToString();
  EXPECT_EQ(mutated->num_edges(), g.num_edges());
}

TEST(EditStreamTest, GenerateEditsIsDeterministic) {
  const Graph g = KarateClub();
  for (const EditKind kind :
       {EditKind::kInsertEdge, EditKind::kDeleteEdge, EditKind::kUpdateWeight}) {
    const StatusOr<std::vector<EditOp>> a = GenerateEdits(g, kind, 6, 99);
    const StatusOr<std::vector<EditOp>> b = GenerateEdits(g, kind, 6, 99);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b);
  }
}

// ---- Batch application ----

TEST(EditStreamTest, ApplyEditBatchIsAllOrNothing) {
  const Graph g = Graph::FromEdges(4, {{0, 1, 1.0}, {1, 2, 2.0}}, false);
  // Second edit deletes an absent arc: the whole batch must fail and the
  // error must name the offending edit.
  const std::vector<EditOp> batch = {
      {EditKind::kInsertEdge, 2, 3, 1.0},
      {EditKind::kDeleteEdge, 0, 3, 0.0},
  };
  const StatusOr<Graph> mutated = ApplyEditBatch(g, batch);
  ASSERT_FALSE(mutated.ok());
  EXPECT_EQ(mutated.status().code(), StatusCode::kNotFound);
  EXPECT_NE(mutated.status().message().find("edit 1"), std::string::npos)
      << mutated.status().message();
}

TEST(EditStreamTest, ApplyEditBatchLeavesInputUntouched) {
  const Graph g = Graph::FromEdges(3, {{0, 1, 1.0}}, true);
  const Graph before = g;
  const std::vector<EditOp> batch = {{EditKind::kInsertEdge, 1, 2, 2.0}};
  const StatusOr<Graph> mutated = ApplyEditBatch(g, batch);
  ASSERT_TRUE(mutated.ok());
  EXPECT_TRUE(g == before);
  EXPECT_FALSE(g.HasArc(1, 2));
  EXPECT_TRUE(mutated->HasArc(1, 2));
}

// ---- Mixed-kind stream ----

TEST(EditStreamTest, GenerateEditBatchesStaysValidAcrossBatches) {
  const Graph g = KarateClub();
  EditStreamOptions options;
  options.seed = 21;
  options.num_batches = 8;
  options.edits_per_batch = 6;
  const StatusOr<std::vector<std::vector<EditOp>>> batches =
      GenerateEditBatches(g, options);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  ASSERT_EQ(batches->size(), 8u);
  Graph current = g;
  for (const std::vector<EditOp>& batch : *batches) {
    EXPECT_EQ(batch.size(), 6u);
    StatusOr<Graph> next = ApplyEditBatch(current, batch);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    current = std::move(next).value();
  }
}

TEST(EditStreamTest, SingleKindStreamsRespectTheWeights) {
  const Graph g = KarateClub();
  EditStreamOptions options;
  options.seed = 5;
  options.num_batches = 3;
  options.edits_per_batch = 5;
  options.insert_weight = 0.0;
  options.delete_weight = 0.0;
  options.update_weight = 1.0;
  const StatusOr<std::vector<std::vector<EditOp>>> batches =
      GenerateEditBatches(g, options);
  ASSERT_TRUE(batches.ok()) << batches.status().ToString();
  for (const std::vector<EditOp>& batch : *batches) {
    for (const EditOp& e : batch) {
      EXPECT_EQ(e.kind, EditKind::kUpdateWeight);
    }
  }
}

// ---- Rejection table ----

TEST(EditStreamTest, RejectionTable) {
  const Graph small = Graph::FromEdges(3, {{0, 1, 1.0}}, false);
  const Graph empty_graph = Graph::FromEdges(3, {}, false);
  const Graph one_node = Graph::FromEdges(1, {}, false);

  struct Case {
    const char* name;
    StatusOr<std::vector<EditOp>> result;
    StatusCode want_code;
    const char* want_substring;
  };
  const Case kCases[] = {
      {"negative-count",
       GenerateEdits(small, EditKind::kInsertEdge, -1, 1),
       StatusCode::kInvalidArgument, "count"},
      {"insert-one-node",
       GenerateEdits(one_node, EditKind::kInsertEdge, 1, 1),
       StatusCode::kInvalidArgument, "2 nodes"},
      {"insert-beyond-capacity",
       GenerateEdits(small, EditKind::kInsertEdge, 100, 1),
       StatusCode::kInvalidArgument, "absent"},
      {"delete-more-than-edges",
       GenerateEdits(small, EditKind::kDeleteEdge, 2, 1),
       StatusCode::kInvalidArgument, "edges"},
      {"update-edgeless",
       GenerateEdits(empty_graph, EditKind::kUpdateWeight, 1, 1),
       StatusCode::kInvalidArgument, "edge"},
  };
  for (const Case& c : kCases) {
    ASSERT_FALSE(c.result.ok()) << c.name;
    EXPECT_EQ(c.result.status().code(), c.want_code) << c.name;
    EXPECT_NE(c.result.status().message().find(c.want_substring),
              std::string::npos)
        << c.name << ": \"" << c.result.status().message() << "\"";
  }

  // Within-batch sequencing: every edit is judged against the graph as
  // edited by the batch's earlier edits, exactly as a sequence of single
  // mutator calls would judge it.
  const Graph directed = Graph::FromEdges(4, {{0, 1, 1.0}}, false);
  const Graph undirected = Graph::FromEdges(4, {{0, 1, 1.0}}, true);

  struct BatchCase {
    const char* name;
    const Graph* graph;
    std::vector<EditOp> batch;
    StatusCode want_code;  // kOk: the batch must succeed
    const char* want_substring;
  };
  const BatchCase kBatchCases[] = {
      {"duplicate-insert",
       &directed,
       {{EditKind::kInsertEdge, 2, 3, 1.0}, {EditKind::kInsertEdge, 2, 3, 2.0}},
       StatusCode::kInvalidArgument,
       "edit 1 (insert 2->3): arc (2, 3) already present"},
      {"delete-then-update",
       &directed,
       {{EditKind::kDeleteEdge, 0, 1, 0.0},
        {EditKind::kUpdateWeight, 0, 1, 3.0}},
       StatusCode::kNotFound, "edit 1 (update 0->1): no arc (0, 1)"},
      {"insert-delete-insert", &directed,
       {{EditKind::kInsertEdge, 2, 3, 1.0},
        {EditKind::kDeleteEdge, 2, 3, 0.0},
        {EditKind::kInsertEdge, 2, 3, 4.0}},
       StatusCode::kOk, ""},
      {"undirected-insert-then-delete-reversed", &undirected,
       {{EditKind::kInsertEdge, 1, 3, 2.0}, {EditKind::kDeleteEdge, 3, 1, 0.0}},
       StatusCode::kOk, ""},
  };
  for (const BatchCase& c : kBatchCases) {
    const StatusOr<Graph> result = ApplyEditBatch(*c.graph, c.batch);
    if (c.want_code == StatusCode::kOk) {
      ASSERT_TRUE(result.ok()) << c.name << ": " << result.status().ToString();
      continue;
    }
    ASSERT_FALSE(result.ok()) << c.name;
    EXPECT_EQ(result.status().code(), c.want_code) << c.name;
    EXPECT_NE(result.status().message().find(c.want_substring),
              std::string::npos)
        << c.name << ": \"" << result.status().message() << "\"";
  }

  const StatusOr<Graph> reinserted =
      ApplyEditBatch(directed, kBatchCases[2].batch);
  ASSERT_TRUE(reinserted.ok());
  EXPECT_EQ(reinserted->ArcWeight(2, 3), 4.0);
  EXPECT_EQ(reinserted->num_edges(), 2);
  const StatusOr<Graph> undone =
      ApplyEditBatch(undirected, kBatchCases[3].batch);
  ASSERT_TRUE(undone.ok());
  EXPECT_TRUE(*undone == undirected);
  EXPECT_EQ(undone->num_edges(), 1);
}

// ---- Seeded batch fuzz against an independent model ----

uint64_t Bits(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// The logical edge set of a graph as a map keyed like the batch overlay:
// (src, dst) when directed, (min, max) when undirected.
using EdgeModel = std::map<std::pair<NodeId, NodeId>, double>;

std::pair<NodeId, NodeId> ModelKey(NodeId u, NodeId v, bool undirected) {
  if (undirected && u > v) std::swap(u, v);
  return {u, v};
}

Graph ModelGraph(NodeId n, const EdgeModel& model, bool undirected) {
  std::vector<EdgeTriple> arcs;
  for (const auto& [key, w] : model) {
    arcs.push_back({key.first, key.second, w});
    if (undirected && key.first != key.second) {
      arcs.push_back({key.second, key.first, w});
    }
  }
  return Graph::FromArcs(n, arcs, undirected);
}

// A nonzero weight that sums inexactly (tenths), of either sign.
double FuzzWeight(Rng& rng) {
  const double w = static_cast<double>(rng.UniformInt(1, 40)) * 0.1;
  return rng.Bernoulli(0.3) ? -w : w;
}

// Expected status code of one edit against the model (kOk when valid).
StatusCode ModelVerdict(const EditOp& op, NodeId n, const EdgeModel& model,
                        bool undirected) {
  if (op.src < 0 || op.src >= n || op.dst < 0 || op.dst >= n) {
    return StatusCode::kInvalidArgument;
  }
  const bool bad_weight = !std::isfinite(op.weight) || op.weight == 0.0;
  const bool present = model.count(ModelKey(op.src, op.dst, undirected)) > 0;
  switch (op.kind) {
    case EditKind::kInsertEdge:
      return bad_weight || present ? StatusCode::kInvalidArgument
                                   : StatusCode::kOk;
    case EditKind::kDeleteEdge:
      return present ? StatusCode::kOk : StatusCode::kNotFound;
    case EditKind::kUpdateWeight:
      if (bad_weight) return StatusCode::kInvalidArgument;
      return present ? StatusCode::kOk : StatusCode::kNotFound;
  }
  return StatusCode::kInvalidArgument;
}

void ApplyToModel(const EditOp& op, bool undirected, EdgeModel* model) {
  const auto key = ModelKey(op.src, op.dst, undirected);
  if (op.kind == EditKind::kDeleteEdge) {
    model->erase(key);
  } else {
    (*model)[key] = op.weight;
  }
}

// One fuzzed edit: mostly aimed at present edges, at pairs an earlier
// edit of the batch touched (repeats, possibly reversed) or at random
// pairs; sometimes deliberately invalid.
EditOp FuzzEdit(Rng& rng, NodeId n, const EdgeModel& model,
                const std::vector<EditOp>& batch) {
  EditOp op;
  op.kind = static_cast<EditKind>(rng.NextBounded(kNumEditKinds));
  const uint64_t target = rng.NextBounded(10);
  if (target < 4 && !model.empty()) {
    auto it = model.begin();
    std::advance(it, rng.NextBounded(model.size()));
    op.src = it->first.first;
    op.dst = it->first.second;
  } else if (target < 7 && !batch.empty()) {
    const EditOp& prev = batch[rng.NextBounded(batch.size())];
    op.src = prev.src;
    op.dst = prev.dst;
  } else {
    op.src = static_cast<NodeId>(rng.NextBounded(n));
    op.dst = static_cast<NodeId>(rng.NextBounded(n));
  }
  if (rng.Bernoulli(0.3)) std::swap(op.src, op.dst);
  op.weight = op.kind == EditKind::kDeleteEdge ? 0.0 : FuzzWeight(rng);
  if (rng.Bernoulli(0.04)) {
    switch (rng.NextBounded(5)) {
      case 0: op.src = -1 - static_cast<NodeId>(rng.NextBounded(3)); break;
      case 1: op.dst = n + static_cast<NodeId>(rng.NextBounded(3)); break;
      case 2: op.weight = 0.0; break;
      case 3: op.weight = std::numeric_limits<double>::quiet_NaN(); break;
      default: op.weight = -std::numeric_limits<double>::infinity(); break;
    }
  }
  return op;
}

void ExpectBitwiseEqual(const Graph& got, const Graph& want,
                        const std::string& where) {
  ASSERT_TRUE(got == want) << where;
  EXPECT_EQ(got.num_arcs(), want.num_arcs()) << where;
  EXPECT_EQ(got.num_edges(), want.num_edges()) << where;
  EXPECT_EQ(got.MemoryBytes(), want.MemoryBytes()) << where;
  EXPECT_EQ(Bits(got.TotalWeight()), Bits(want.TotalWeight())) << where;
  for (NodeId v = 0; v < want.num_nodes(); ++v) {
    EXPECT_EQ(Bits(got.OutWeight(v)), Bits(want.OutWeight(v)))
        << where << " node " << v;
    EXPECT_EQ(Bits(got.InWeight(v)), Bits(want.InWeight(v)))
        << where << " node " << v;
    const NeighborRange a = got.InNeighbors(v);
    const NeighborRange b = want.InNeighbors(v);
    ASSERT_EQ(a.size(), b.size()) << where << " in-row " << v;
    for (int64_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node) << where << " in-row " << v;
      EXPECT_EQ(Bits(a[i].weight), Bits(b[i].weight))
          << where << " in-row " << v;
    }
  }
}

// Mixed batches on small directed and undirected graphs with self-loops
// and negative weights: a valid batch must build exactly the graph
// FromArcs builds from the model's edited edge set, and an invalid one
// must fail with the code and message of its first failing edit.
TEST(EditBatchFuzz, MixedBatchesMatchFromArcsModel) {
  int failed_batches = 0;
  int applied_batches = 0;
  for (const bool undirected : {false, true}) {
    Rng rng(undirected ? 0xed17u : 0xed16u);
    for (int trial = 0; trial < 400; ++trial) {
      const NodeId n = static_cast<NodeId>(1 + rng.NextBounded(9));
      std::vector<EdgeTriple> edges;
      const int64_t num_edges = static_cast<int64_t>(rng.NextBounded(3 * n));
      for (int64_t e = 0; e < num_edges; ++e) {
        edges.push_back({static_cast<NodeId>(rng.NextBounded(n)),
                         static_cast<NodeId>(rng.NextBounded(n)),
                         FuzzWeight(rng)});
      }
      const Graph g = Graph::FromEdges(n, edges, undirected);
      const Graph before = g;
      EdgeModel model;
      for (const EdgeTriple& a : g.Arcs()) {
        if (!undirected || a.src <= a.dst) {
          model[{a.src, a.dst}] = a.weight;
        }
      }

      std::vector<EditOp> batch;
      const int64_t size = static_cast<int64_t>(rng.NextBounded(12));
      for (int64_t i = 0; i < size; ++i) {
        batch.push_back(FuzzEdit(rng, n, model, batch));
      }

      // The model replays the batch; the oracle's message for the first
      // failing edit is the single-edge mutator's on the graph edited so
      // far.
      int64_t first_bad = -1;
      StatusCode want_code = StatusCode::kOk;
      for (size_t i = 0; i < batch.size(); ++i) {
        want_code = ModelVerdict(batch[i], n, model, undirected);
        if (want_code != StatusCode::kOk) {
          first_bad = static_cast<int64_t>(i);
          break;
        }
        ApplyToModel(batch[i], undirected, &model);
      }

      const std::string where = "undirected=" + std::to_string(undirected) +
                                " trial=" + std::to_string(trial);
      const StatusOr<Graph> result = ApplyEditBatch(g, batch);
      EXPECT_TRUE(g == before) << where << ": input mutated";
      if (first_bad >= 0) {
        ++failed_batches;
        ASSERT_FALSE(result.ok()) << where;
        EXPECT_EQ(result.status().code(), want_code) << where;
        Graph edited = ModelGraph(n, model, undirected);
        const EditOp& op = batch[first_bad];
        const Status single =
            op.kind == EditKind::kInsertEdge   ? edited.AddEdge(op.src, op.dst,
                                                                op.weight)
            : op.kind == EditKind::kDeleteEdge ? edited.RemoveEdge(op.src,
                                                                   op.dst)
                                               : edited.SetWeight(
                                                     op.src, op.dst, op.weight);
        EXPECT_EQ(single.code(), want_code) << where;
        const std::string want_message =
            "edit " + std::to_string(first_bad) + " (" +
            EditKindName(op.kind) + " " + std::to_string(op.src) + "->" +
            std::to_string(op.dst) + "): " + single.message();
        EXPECT_EQ(result.status().message(), want_message) << where;
        continue;
      }
      ++applied_batches;
      ASSERT_TRUE(result.ok()) << where << ": " << result.status().ToString();
      ExpectBitwiseEqual(*result, ModelGraph(n, model, undirected), where);
    }
  }
  // Both outcomes are exercised in volume.
  EXPECT_GT(failed_batches, 100);
  EXPECT_GT(applied_batches, 100);
}

TEST(EditStreamTest, BatchOptionsValidation) {
  const Graph g = KarateClub();
  EditStreamOptions bad_batches;
  bad_batches.num_batches = -1;
  EXPECT_EQ(GenerateEditBatches(g, bad_batches).status().code(),
            StatusCode::kInvalidArgument);

  EditStreamOptions bad_weights;
  bad_weights.insert_weight = 0.0;
  bad_weights.delete_weight = 0.0;
  bad_weights.update_weight = 0.0;
  EXPECT_EQ(GenerateEditBatches(g, bad_weights).status().code(),
            StatusCode::kInvalidArgument);

  EditStreamOptions bad_range;
  bad_range.min_weight = 5;
  bad_range.max_weight = 2;
  EXPECT_EQ(GenerateEditBatches(g, bad_range).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EditStreamTest, KindNamesAreTheWireNames) {
  EXPECT_STREQ(EditKindName(EditKind::kInsertEdge), "insert");
  EXPECT_STREQ(EditKindName(EditKind::kDeleteEdge), "delete");
  EXPECT_STREQ(EditKindName(EditKind::kUpdateWeight), "update");
}

}  // namespace
}  // namespace dynamic
}  // namespace qsc
