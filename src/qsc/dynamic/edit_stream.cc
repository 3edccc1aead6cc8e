#include "qsc/dynamic/edit_stream.h"

#include <cmath>
#include <string>
#include <unordered_set>
#include <utility>

#include "qsc/util/random.h"

namespace qsc {
namespace dynamic {
namespace {

uint64_t DirectedKey(NodeId u, NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
}

// The logical edges of `g` in Arcs() order (canonical u <= v arcs for
// undirected graphs) — the same enumeration perturb.cc uses, which the
// perturb-equivalence contract of GenerateEdits depends on.
std::vector<EdgeTriple> LogicalEdges(const Graph& g) {
  std::vector<EdgeTriple> edges;
  if (g.undirected()) {
    for (const EdgeTriple& a : g.Arcs()) {
      if (a.src <= a.dst) edges.push_back(a);
    }
  } else {
    edges = g.Arcs();
  }
  return edges;
}

// Distinct non-loop pairs an insert could still target.
int64_t InsertCapacity(const Graph& g, int64_t non_loop_edges) {
  const int64_t n = g.num_nodes();
  const int64_t pairs = g.undirected() ? n * (n - 1) / 2 : n * (n - 1);
  return pairs - non_loop_edges;
}

std::string DescribeOp(const EditOp& op) {
  return std::string(EditKindName(op.kind)) + " " + std::to_string(op.src) +
         "->" + std::to_string(op.dst);
}

}  // namespace

const char* EditKindName(EditKind kind) {
  switch (kind) {
    case EditKind::kInsertEdge:
      return "insert";
    case EditKind::kDeleteEdge:
      return "delete";
    case EditKind::kUpdateWeight:
      return "update";
  }
  return "unknown";
}

StatusOr<Graph> ApplyEditBatch(const Graph& g,
                               const std::vector<EditOp>& edits) {
  GraphEditor editor(g);
  for (size_t i = 0; i < edits.size(); ++i) {
    const EditOp& op = edits[i];
    Status s;
    switch (op.kind) {
      case EditKind::kInsertEdge:
        s = editor.AddEdge(op.src, op.dst, op.weight);
        break;
      case EditKind::kDeleteEdge:
        s = editor.RemoveEdge(op.src, op.dst);
        break;
      case EditKind::kUpdateWeight:
        s = editor.SetWeight(op.src, op.dst, op.weight);
        break;
      default:
        s = Status::InvalidArgument("unknown edit kind");
        break;
    }
    if (!s.ok()) {
      return Status(s.code(), "edit " + std::to_string(i) + " (" +
                                  DescribeOp(op) + "): " + s.message());
    }
  }
  return editor.Build();
}

StatusOr<std::vector<EditOp>> GenerateEdits(const Graph& g, EditKind kind,
                                            int64_t count, uint64_t seed) {
  if (count < 0) {
    return Status::InvalidArgument("edit count must be >= 0; got " +
                                   std::to_string(count));
  }
  Rng rng(seed);
  std::vector<EditOp> ops;
  ops.reserve(count);
  switch (kind) {
    case EditKind::kInsertEdge: {
      const NodeId n = g.num_nodes();
      if (count > 0 && n < 2) {
        return Status::InvalidArgument(
            "insert stream needs a graph with at least 2 nodes");
      }
      std::unordered_set<uint64_t> present;
      int64_t non_loop = 0;
      for (const EdgeTriple& a : LogicalEdges(g)) {
        present.insert(DirectedKey(a.src, a.dst));
        if (a.src != a.dst) ++non_loop;
      }
      if (count > InsertCapacity(g, non_loop)) {
        return Status::InvalidArgument(
            "cannot insert " + std::to_string(count) + " edges: only " +
            std::to_string(InsertCapacity(g, non_loop)) +
            " absent non-loop pairs remain");
      }
      // Same rejection loop as AddRandomEdges, so an insert-only batch
      // reproduces the perturbed graph.
      int64_t added = 0;
      while (added < count) {
        NodeId u = static_cast<NodeId>(rng.NextBounded(n));
        NodeId v = static_cast<NodeId>(rng.NextBounded(n));
        if (u == v) continue;
        if (g.undirected() && u > v) std::swap(u, v);
        if (!present.insert(DirectedKey(u, v)).second) continue;
        ops.push_back({EditKind::kInsertEdge, u, v, 1.0});
        ++added;
      }
      break;
    }
    case EditKind::kDeleteEdge: {
      std::vector<EdgeTriple> edges = LogicalEdges(g);
      const int64_t m = static_cast<int64_t>(edges.size());
      if (count > m) {
        return Status::InvalidArgument(
            "cannot delete " + std::to_string(count) + " edges from a graph "
            "with " + std::to_string(m) + " edges");
      }
      // Same partial Fisher-Yates as RemoveRandomEdges.
      for (int64_t i = 0; i < count; ++i) {
        const int64_t j = i + static_cast<int64_t>(rng.NextBounded(m - i));
        std::swap(edges[i], edges[j]);
        ops.push_back({EditKind::kDeleteEdge, edges[i].src, edges[i].dst, 0.0});
      }
      break;
    }
    case EditKind::kUpdateWeight: {
      const std::vector<EdgeTriple> edges = LogicalEdges(g);
      if (count > 0 && edges.empty()) {
        return Status::InvalidArgument(
            "update stream needs a graph with at least 1 edge");
      }
      for (int64_t i = 0; i < count; ++i) {
        const EdgeTriple& e = edges[rng.NextBounded(edges.size())];
        ops.push_back({EditKind::kUpdateWeight, e.src, e.dst,
                       static_cast<double>(rng.UniformInt(1, 8))});
      }
      break;
    }
    default:
      return Status::InvalidArgument("unknown edit kind");
  }
  return ops;
}

StatusOr<std::vector<std::vector<EditOp>>> GenerateEditBatches(
    const Graph& g, const EditStreamOptions& options) {
  if (options.num_batches < 0) {
    return Status::InvalidArgument("num_batches must be >= 0; got " +
                                   std::to_string(options.num_batches));
  }
  if (options.num_batches > 0 && options.edits_per_batch < 1) {
    return Status::InvalidArgument("edits_per_batch must be >= 1; got " +
                                   std::to_string(options.edits_per_batch));
  }
  for (const double w : {options.insert_weight, options.delete_weight,
                         options.update_weight}) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument("kind weights must be finite and >= 0");
    }
  }
  const double total_odds = options.insert_weight + options.delete_weight +
                            options.update_weight;
  if (total_odds <= 0.0) {
    return Status::InvalidArgument("at least one kind weight must be > 0");
  }
  if (options.min_weight < 1 || options.min_weight > options.max_weight) {
    return Status::InvalidArgument(
        "edit weights need 1 <= min_weight <= max_weight");
  }

  // Model of the evolving logical edge set; ops are applied to it
  // immediately so every batch is valid against its predecessor's graph.
  Rng rng(options.seed);
  const NodeId n = g.num_nodes();
  std::vector<EdgeTriple> edges = LogicalEdges(g);
  std::unordered_set<uint64_t> present;
  int64_t non_loop = 0;
  for (const EdgeTriple& a : edges) {
    present.insert(DirectedKey(a.src, a.dst));
    if (a.src != a.dst) ++non_loop;
  }

  const auto insert_feasible = [&] {
    return n >= 2 && InsertCapacity(g, non_loop) > 0;
  };
  const auto mutate_feasible = [&] { return !edges.empty(); };

  std::vector<std::vector<EditOp>> batches;
  batches.reserve(options.num_batches);
  for (int64_t b = 0; b < options.num_batches; ++b) {
    std::vector<EditOp> batch;
    batch.reserve(options.edits_per_batch);
    for (int64_t i = 0; i < options.edits_per_batch; ++i) {
      const double x = rng.UniformDouble(0.0, total_odds);
      EditKind kind = x < options.insert_weight ? EditKind::kInsertEdge
                      : x < options.insert_weight + options.delete_weight
                          ? EditKind::kDeleteEdge
                          : EditKind::kUpdateWeight;
      // Fall through to the first feasible kind in insert -> delete ->
      // update order when the drawn kind has no valid target.
      const bool kind_feasible =
          kind == EditKind::kInsertEdge ? insert_feasible() : mutate_feasible();
      if (!kind_feasible) {
        if (insert_feasible()) {
          kind = EditKind::kInsertEdge;
        } else if (mutate_feasible()) {
          kind = EditKind::kDeleteEdge;
        } else {
          return Status::InvalidArgument(
              "graph exhausted at batch " + std::to_string(b) +
              ": no feasible edit kind remains");
        }
      }
      switch (kind) {
        case EditKind::kInsertEdge: {
          NodeId u, v;
          while (true) {
            u = static_cast<NodeId>(rng.NextBounded(n));
            v = static_cast<NodeId>(rng.NextBounded(n));
            if (u == v) continue;
            if (g.undirected() && u > v) std::swap(u, v);
            if (present.insert(DirectedKey(u, v)).second) break;
          }
          const double w = static_cast<double>(
              rng.UniformInt(options.min_weight, options.max_weight));
          edges.push_back({u, v, w});
          ++non_loop;
          batch.push_back({EditKind::kInsertEdge, u, v, w});
          break;
        }
        case EditKind::kDeleteEdge: {
          const int64_t j =
              static_cast<int64_t>(rng.NextBounded(edges.size()));
          const EdgeTriple e = edges[j];
          present.erase(DirectedKey(e.src, e.dst));
          if (e.src != e.dst) --non_loop;
          edges[j] = edges.back();
          edges.pop_back();
          batch.push_back({EditKind::kDeleteEdge, e.src, e.dst, 0.0});
          break;
        }
        case EditKind::kUpdateWeight: {
          const int64_t j =
              static_cast<int64_t>(rng.NextBounded(edges.size()));
          const double w = static_cast<double>(
              rng.UniformInt(options.min_weight, options.max_weight));
          edges[j].weight = w;
          batch.push_back(
              {EditKind::kUpdateWeight, edges[j].src, edges[j].dst, w});
          break;
        }
      }
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace dynamic
}  // namespace qsc
