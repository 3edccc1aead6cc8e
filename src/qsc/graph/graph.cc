#include "qsc/graph/graph.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <utility>

namespace qsc {
namespace {

// (src, dst) in one word, so one compare orders by both (node ids are
// non-negative).
uint64_t ArcKey(const EdgeTriple& a) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(a.src)) << 32) |
         static_cast<uint32_t>(a.dst);
}

uint64_t WeightBits(double weight) {
  uint64_t bits;
  std::memcpy(&bits, &weight, sizeof(bits));
  return bits;
}

// Sorts arcs by (src, dst), sums duplicates, drops zero-weight aggregates.
// The weight's bit pattern is the last sort key (a total order, NaN
// included), so each duplicate group is summed in an order set by its
// values alone: the two mirrored arcs of an undirected edge, whose groups
// hold the same weights, get bitwise the same sum.
std::vector<EdgeTriple> Coalesce(std::vector<EdgeTriple> arcs) {
  std::sort(arcs.begin(), arcs.end(), [](const EdgeTriple& a,
                                         const EdgeTriple& b) {
    const uint64_t ka = ArcKey(a);
    const uint64_t kb = ArcKey(b);
    if (ka != kb) return ka < kb;
    return WeightBits(a.weight) < WeightBits(b.weight);
  });
  std::vector<EdgeTriple> out;
  out.reserve(arcs.size());
  for (const EdgeTriple& arc : arcs) {
    if (!out.empty() && out.back().src == arc.src &&
        out.back().dst == arc.dst) {
      out.back().weight += arc.weight;
    } else {
      out.push_back(arc);
    }
  }
  out.erase(std::remove_if(out.begin(), out.end(),
                           [](const EdgeTriple& a) { return a.weight == 0.0; }),
            out.end());
  return out;
}

}  // namespace

Graph Graph::FromEdges(NodeId num_nodes, const std::vector<EdgeTriple>& edges,
                       bool undirected) {
  QSC_CHECK_GE(num_nodes, 0);
  std::vector<EdgeTriple> arcs;
  arcs.reserve(undirected ? 2 * edges.size() : edges.size());
  for (const EdgeTriple& e : edges) {
    QSC_CHECK(e.src >= 0 && e.src < num_nodes);
    QSC_CHECK(e.dst >= 0 && e.dst < num_nodes);
    arcs.push_back(e);
    if (undirected && e.src != e.dst) {
      arcs.push_back({e.dst, e.src, e.weight});
    }
  }
  return FromCoalescedArcs(num_nodes, Coalesce(std::move(arcs)), undirected);
}

Graph Graph::FromArcs(NodeId num_nodes, const std::vector<EdgeTriple>& arcs,
                      bool undirected) {
  QSC_CHECK_GE(num_nodes, 0);
  for (const EdgeTriple& a : arcs) {
    QSC_CHECK(a.src >= 0 && a.src < num_nodes);
    QSC_CHECK(a.dst >= 0 && a.dst < num_nodes);
  }
  std::vector<EdgeTriple> coalesced = Coalesce(arcs);
  if (undirected) {
    // The stored representation of an undirected graph is a symmetric arc
    // set, which summing duplicates in unspecified order can miss by a
    // rounding residue (or drop one direction entirely when it cancels to
    // exactly zero while its mirror keeps an ulp). Symmetrize by
    // construction: both directions take the (min,max)-direction sum;
    // genuinely one-sided arcs — no mirror and a weight too large to be
    // rounding residue — are rejected.
    const auto mirror_of = [&coalesced](const EdgeTriple& a) {
      const auto it = std::lower_bound(
          coalesced.begin(), coalesced.end(), EdgeTriple{a.dst, a.src, 0.0},
          [](const EdgeTriple& x, const EdgeTriple& y) {
            if (x.src != y.src) return x.src < y.src;
            return x.dst < y.dst;
          });
      return it != coalesced.end() && it->src == a.dst && it->dst == a.src
                 ? &*it
                 : nullptr;
    };
    std::vector<EdgeTriple> symmetric;
    symmetric.reserve(coalesced.size());
    for (const EdgeTriple& a : coalesced) {
      if (a.src == a.dst) {
        symmetric.push_back(a);
        continue;
      }
      if (const EdgeTriple* m = mirror_of(a)) {
        QSC_CHECK(std::abs(m->weight - a.weight) <=
                  1e-9 * std::max(1.0, std::abs(a.weight)));
        symmetric.push_back(
            {a.src, a.dst, a.src < a.dst ? a.weight : m->weight});
      } else {
        QSC_CHECK(std::abs(a.weight) <= 1e-9);  // residue of a cancelled edge
      }
    }
    coalesced = std::move(symmetric);
  }
  return FromCoalescedArcs(num_nodes, std::move(coalesced), undirected);
}

Graph Graph::FromCoalescedArcs(NodeId num_nodes, std::vector<EdgeTriple> arcs,
                               bool undirected) {
  Graph g;
  g.num_nodes_ = num_nodes;
  g.undirected_ = undirected;

  g.out_offsets_.assign(num_nodes + 1, 0);
  g.in_offsets_.assign(num_nodes + 1, 0);
  for (const EdgeTriple& a : arcs) {
    ++g.out_offsets_[a.src + 1];
    ++g.in_offsets_[a.dst + 1];
  }
  for (NodeId v = 0; v < num_nodes; ++v) {
    g.out_offsets_[v + 1] += g.out_offsets_[v];
    g.in_offsets_[v + 1] += g.in_offsets_[v];
  }

  g.out_dst_.resize(arcs.size());
  g.out_w_.resize(arcs.size());
  g.in_src_.resize(arcs.size());
  g.in_w_.resize(arcs.size());
  g.out_weight_.assign(num_nodes, 0.0);
  g.in_weight_.assign(num_nodes, 0.0);

  std::vector<int64_t> out_pos(g.out_offsets_.begin(),
                               g.out_offsets_.end() - 1);
  std::vector<int64_t> in_pos(g.in_offsets_.begin(), g.in_offsets_.end() - 1);
  for (const EdgeTriple& a : arcs) {
    g.out_dst_[out_pos[a.src]] = a.dst;
    g.out_w_[out_pos[a.src]] = a.weight;
    ++out_pos[a.src];
    g.in_src_[in_pos[a.dst]] = a.src;
    g.in_w_[in_pos[a.dst]] = a.weight;
    ++in_pos[a.dst];
    g.out_weight_[a.src] += a.weight;
    g.in_weight_[a.dst] += a.weight;
    g.total_weight_ += a.weight;
  }
  // Arcs were globally sorted by (src, dst), so out-adjacency is sorted; the
  // in-adjacency inherits sortedness by src because insertion order is by
  // src within each dst bucket.

  int64_t loops = 0;
  for (const EdgeTriple& a : arcs) {
    if (a.src == a.dst) ++loops;
  }
  g.num_edges_ = undirected
                     ? (static_cast<int64_t>(arcs.size()) - loops) / 2 + loops
                     : static_cast<int64_t>(arcs.size());
  return g;
}

int64_t Graph::num_edges() const { return num_edges_; }

bool operator==(const Graph& a, const Graph& b) {
  return a.num_nodes_ == b.num_nodes_ && a.undirected_ == b.undirected_ &&
         a.out_offsets_ == b.out_offsets_ && a.out_dst_ == b.out_dst_ &&
         a.out_w_ == b.out_w_;
}

bool Graph::HasArc(NodeId u, NodeId v) const {
  QSC_DCHECK(u >= 0 && u < num_nodes_);
  return std::binary_search(out_dst_.begin() + out_offsets_[u],
                            out_dst_.begin() + out_offsets_[u + 1], v);
}

double Graph::ArcWeight(NodeId u, NodeId v) const {
  QSC_DCHECK(u >= 0 && u < num_nodes_);
  const auto row_begin = out_dst_.begin() + out_offsets_[u];
  const auto row_end = out_dst_.begin() + out_offsets_[u + 1];
  const auto it = std::lower_bound(row_begin, row_end, v);
  if (it != row_end && *it == v) return out_w_[it - out_dst_.begin()];
  return 0.0;
}

namespace {

std::string ArcName(NodeId u, NodeId v) {
  return "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
}

Status CheckEndpoints(NodeId u, NodeId v, NodeId num_nodes) {
  if (u < 0 || u >= num_nodes) {
    return Status::InvalidArgument(
        "source node " + std::to_string(u) + " out of range [0, " +
        std::to_string(num_nodes) + ")");
  }
  if (v < 0 || v >= num_nodes) {
    return Status::InvalidArgument(
        "destination node " + std::to_string(v) + " out of range [0, " +
        std::to_string(num_nodes) + ")");
  }
  return Status::Ok();
}

Status CheckWeight(double weight) {
  if (!std::isfinite(weight)) {
    return Status::InvalidArgument("edge weight must be finite; got " +
                                   std::to_string(weight));
  }
  if (weight == 0.0) {
    return Status::InvalidArgument(
        "edge weight must be nonzero (an arc exists iff its weight is "
        "nonzero); use RemoveEdge to delete an edge");
  }
  return Status::Ok();
}

}  // namespace

Status Graph::AddEdge(NodeId u, NodeId v, double weight) {
  GraphEditor editor(*this);
  QSC_RETURN_IF_ERROR(editor.AddEdge(u, v, weight));
  *this = editor.Build();
  return Status::Ok();
}

Status Graph::RemoveEdge(NodeId u, NodeId v) {
  GraphEditor editor(*this);
  QSC_RETURN_IF_ERROR(editor.RemoveEdge(u, v));
  *this = editor.Build();
  return Status::Ok();
}

Status Graph::SetWeight(NodeId u, NodeId v, double weight) {
  GraphEditor editor(*this);
  QSC_RETURN_IF_ERROR(editor.SetWeight(u, v, weight));
  *this = editor.Build();
  return Status::Ok();
}

uint64_t GraphEditor::Key(NodeId u, NodeId v) const {
  if (base_.undirected() && u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
}

double GraphEditor::CurrentWeight(NodeId u, NodeId v) const {
  const auto it = staged_.find(Key(u, v));
  return it != staged_.end() ? it->second : base_.ArcWeight(u, v);
}

Status GraphEditor::AddEdge(NodeId u, NodeId v, double weight) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, base_.num_nodes()));
  QSC_RETURN_IF_ERROR(CheckWeight(weight));
  if (CurrentWeight(u, v) != 0.0) {
    return Status::InvalidArgument("arc " + ArcName(u, v) +
                                   " already present; use SetWeight");
  }
  staged_[Key(u, v)] = weight;
  return Status::Ok();
}

Status GraphEditor::RemoveEdge(NodeId u, NodeId v) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, base_.num_nodes()));
  if (CurrentWeight(u, v) == 0.0) {
    return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
  }
  staged_[Key(u, v)] = 0.0;
  return Status::Ok();
}

Status GraphEditor::SetWeight(NodeId u, NodeId v, double weight) {
  QSC_RETURN_IF_ERROR(CheckEndpoints(u, v, base_.num_nodes()));
  QSC_RETURN_IF_ERROR(CheckWeight(weight));
  if (CurrentWeight(u, v) == 0.0) {
    return Status::NotFound("no arc " + ArcName(u, v) + " in the graph");
  }
  staged_[Key(u, v)] = weight;
  return Status::Ok();
}

namespace {

// One stored-arc change for a CSR merge, addressed by (row, id) of that
// CSR: (src, dst) for the out-CSR, (dst, src) for the in-CSR.
struct ArcChange {
  NodeId row;
  NodeId id;
  double weight;  // the arc's new weight; 0 removes it
  int delta;      // stored-arc count change: +1 insert, -1 remove, 0 update
};

// Merges `changes` (sorted by (row, id)) into one CSR direction of `n`
// rows, appending to the empty `new_*` arrays at their exact final size.
// Runs of rows without changes are bulk-copied; each changed row is merged
// entry by entry and its sum in `row_sums` (a copy of the base's cache)
// re-accumulated in row order, as FromCoalescedArcs accumulates it.
void MergeCsr(NodeId n, const std::vector<int64_t>& offsets,
              const std::vector<NodeId>& ids,
              const std::vector<double>& weights,
              const std::vector<ArcChange>& changes,
              std::vector<int64_t>* new_offsets, std::vector<NodeId>* new_ids,
              std::vector<double>* new_weights, std::vector<double>* row_sums) {
  new_offsets->resize(static_cast<size_t>(n) + 1);
  int64_t shift = 0;
  size_t k = 0;
  for (NodeId r = 0; r < n; ++r) {
    for (; k < changes.size() && changes[k].row == r; ++k) {
      shift += changes[k].delta;
    }
    (*new_offsets)[r + 1] = offsets[r + 1] + shift;
  }
  new_ids->reserve((*new_offsets)[n]);
  new_weights->reserve((*new_offsets)[n]);

  int64_t copied = 0;  // old entries [0, copied) are in the new arrays
  const auto copy_upto = [&](int64_t end) {
    new_ids->insert(new_ids->end(), ids.begin() + copied, ids.begin() + end);
    new_weights->insert(new_weights->end(), weights.begin() + copied,
                        weights.begin() + end);
    copied = end;
  };
  const auto append = [&](NodeId id, double weight) {
    new_ids->push_back(id);
    new_weights->push_back(weight);
  };
  for (k = 0; k < changes.size();) {
    const NodeId r = changes[k].row;
    copy_upto(offsets[r]);
    const size_t row_begin = new_weights->size();
    int64_t i = offsets[r];
    const int64_t end = offsets[r + 1];
    for (; k < changes.size() && changes[k].row == r; ++k) {
      const ArcChange& c = changes[k];
      for (; i < end && ids[i] < c.id; ++i) append(ids[i], weights[i]);
      if (i < end && ids[i] == c.id) ++i;  // replaced or removed
      if (c.weight != 0.0) append(c.id, c.weight);
    }
    for (; i < end; ++i) append(ids[i], weights[i]);
    copied = end;
    (*row_sums)[r] = std::accumulate(new_weights->begin() + row_begin,
                                     new_weights->end(), 0.0);
  }
  copy_upto(static_cast<int64_t>(ids.size()));
  QSC_DCHECK(static_cast<int64_t>(new_ids->size()) == (*new_offsets)[n]);
}

}  // namespace

Graph GraphEditor::Build() const {
  std::vector<ArcChange> changes;
  changes.reserve(2 * staged_.size());
  int64_t edge_delta = 0;
  for (const auto& [key, weight] : staged_) {
    const NodeId u = static_cast<NodeId>(key >> 32);
    const NodeId v = static_cast<NodeId>(key & 0xffffffffu);
    const double before = base_.ArcWeight(u, v);
    if (weight == before) continue;  // e.g. inserted, then removed again
    const int delta = (weight != 0.0) - (before != 0.0);
    edge_delta += delta;
    changes.push_back({u, v, weight, delta});
    if (base_.undirected() && u != v) changes.push_back({v, u, weight, delta});
  }
  if (changes.empty()) return base_;
  const auto by_row = [](const ArcChange& a, const ArcChange& b) {
    if (a.row != b.row) return a.row < b.row;
    return a.id < b.id;
  };

  Graph g;
  g.num_nodes_ = base_.num_nodes_;
  g.undirected_ = base_.undirected_;
  g.num_edges_ = base_.num_edges_ + edge_delta;
  g.out_weight_ = base_.out_weight_;
  g.in_weight_ = base_.in_weight_;

  std::sort(changes.begin(), changes.end(), by_row);
  MergeCsr(g.num_nodes_, base_.out_offsets_, base_.out_dst_, base_.out_w_,
           changes, &g.out_offsets_, &g.out_dst_, &g.out_w_, &g.out_weight_);
  for (ArcChange& c : changes) std::swap(c.row, c.id);
  std::sort(changes.begin(), changes.end(), by_row);
  MergeCsr(g.num_nodes_, base_.in_offsets_, base_.in_src_, base_.in_w_,
           changes, &g.in_offsets_, &g.in_src_, &g.in_w_, &g.in_weight_);

  // The total in global (src, dst) order, as FromCoalescedArcs sums it.
  g.total_weight_ = std::accumulate(g.out_w_.begin(), g.out_w_.end(), 0.0);
  return g;
}

std::vector<EdgeTriple> Graph::Arcs() const {
  std::vector<EdgeTriple> arcs;
  arcs.reserve(num_arcs());
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (const NeighborEntry e : OutNeighbors(u)) {
      arcs.push_back({u, e.node, e.weight});
    }
  }
  return arcs;
}

int64_t Graph::MemoryBytes() const {
  return static_cast<int64_t>(
      (out_offsets_.capacity() + in_offsets_.capacity()) * sizeof(int64_t) +
      (out_dst_.capacity() + in_src_.capacity()) * sizeof(NodeId) +
      (out_w_.capacity() + in_w_.capacity() + out_weight_.capacity() +
       in_weight_.capacity()) *
          sizeof(double));
}

}  // namespace qsc
