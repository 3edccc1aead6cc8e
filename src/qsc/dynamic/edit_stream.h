// The edit model for dynamic graphs (ROADMAP item 2, docs/DYNAMIC.md):
// a small vocabulary of single-edge edits, all-or-nothing batch
// application through a GraphEditor (qsc/graph/graph.h), and seeded
// deterministic edit-stream generators.
//
// The generators are the churn counterpart of graph/perturb: the
// single-kind GenerateEdits draws exactly like AddRandomEdges /
// RemoveRandomEdges (same present-set rejection loop, same partial
// Fisher-Yates), so applying an insert-only or delete-only batch
// reproduces the perturbed graph bit for bit. GenerateEditBatches adds a
// mixed-kind stream whose batches stay valid against the evolving graph.
// Everything is a pure function of (graph, options/seed).

#ifndef QSC_DYNAMIC_EDIT_STREAM_H_
#define QSC_DYNAMIC_EDIT_STREAM_H_

#include <cstdint>
#include <vector>

#include "qsc/graph/graph.h"
#include "qsc/util/status.h"

namespace qsc {
namespace dynamic {

enum class EditKind {
  kInsertEdge = 0,
  kDeleteEdge = 1,
  kUpdateWeight = 2,
};
inline constexpr int kNumEditKinds = 3;

// "insert" | "delete" | "update" (also the qsc-trace v2 wire names).
const char* EditKindName(EditKind kind);

// One edit. On an undirected graph (src, dst) addresses the logical edge
// {src, dst}. `weight` is the new arc weight for inserts and updates and
// is ignored (conventionally 0) for deletes.
struct EditOp {
  EditKind kind = EditKind::kInsertEdge;
  NodeId src = 0;
  NodeId dst = 0;
  double weight = 0.0;

  friend bool operator==(const EditOp& a, const EditOp& b) {
    return a.kind == b.kind && a.src == b.src && a.dst == b.dst &&
           a.weight == b.weight;
  }
  friend bool operator!=(const EditOp& a, const EditOp& b) { return !(a == b); }
};

// Applies `edits` in order and returns the mutated graph; `g` itself is
// never modified. All-or-nothing: the first invalid edit (per the Graph
// mutator contracts — duplicate insert, absent delete/update, bad
// endpoint or weight, judged against `g` as edited by the batch's earlier
// edits) fails the whole batch with the mutator's status code and a
// message "edit i (kind u->v): <mutator message>". The edits are staged
// in a GraphEditor and the result built in one merge pass,
// O(num_nodes + num_arcs + b log b) for a batch of b edits.
StatusOr<Graph> ApplyEditBatch(const Graph& g, const std::vector<EditOp>& edits);

// One seeded batch of `count` edits of a single kind, valid against `g`
// when applied in order: inserts are distinct absent non-loop pairs
// (weight 1, drawn exactly like AddRandomEdges), deletes are distinct
// existing edges (drawn exactly like RemoveRandomEdges), updates
// re-weight existing edges with integer weights in [1, 8]. Rejects
// counts the graph cannot satisfy (more deletes than edges, more inserts
// than absent pairs, updates on an edgeless graph).
StatusOr<std::vector<EditOp>> GenerateEdits(const Graph& g, EditKind kind,
                                            int64_t count, uint64_t seed);

// A seeded mixed-kind stream: `num_batches` batches of `edits_per_batch`
// edits, each batch valid against the graph produced by applying the
// previous batches. Kinds are drawn per edit from the relative weights;
// a kind that is infeasible in the current state (delete/update with no
// edges, insert with every pair present) falls through to the first
// feasible kind in insert -> delete -> update order.
struct EditStreamOptions {
  uint64_t seed = 1;
  int64_t num_batches = 4;
  int64_t edits_per_batch = 8;

  // Relative kind odds; each must be >= 0 and they must not all be 0.
  double insert_weight = 1.0;
  double delete_weight = 1.0;
  double update_weight = 1.0;

  // Inserted / updated weights are integers drawn from this range
  // (1 <= min <= max keeps them valid arc weights).
  int64_t min_weight = 1;
  int64_t max_weight = 8;
};

StatusOr<std::vector<std::vector<EditOp>>> GenerateEditBatches(
    const Graph& g, const EditStreamOptions& options);

}  // namespace dynamic
}  // namespace qsc

#endif  // QSC_DYNAMIC_EDIT_STREAM_H_
