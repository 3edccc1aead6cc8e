// The one graph handle (docs/ARCHITECTURE.md): Compressor, ColoringCache
// and IncrementalRecolorer each hold a GraphStore, never a raw Graph,
// MappedGraph or GraphView. A store is a cheap-to-copy immutable handle
// over an owning Graph or a mapped qsc-bin file (docs/FORMATS.md):
//
//   * view() is the GraphView kernels run over, built once when the store
//     is made and shared by every copy;
//   * graph() is an owning Graph. A mapped store materializes it on first
//     call — once, thread-safely — and every copy shares that Graph.
//     Serving stays on view(), so this changes footprint, never results.
//
// Lifetime: a store owns everything its view aliases, so a copy of the
// store keeps view() (and every NeighborRange it hands out) valid.

#ifndef QSC_GRAPH_GRAPH_STORE_H_
#define QSC_GRAPH_GRAPH_STORE_H_

#include <memory>
#include <string>

#include "qsc/graph/graph.h"
#include "qsc/graph/graph_view.h"
#include "qsc/util/status.h"

namespace qsc {

class GraphStore {
 public:
  // An empty store: no graph (an LP-only Compressor session). view() is
  // the empty view; graph() aborts.
  GraphStore() = default;

  // Shares ownership of an owning graph; null yields an empty store.
  // Implicit on purpose, like GraphView's conversion from `const Graph&`:
  // a shared_ptr<const Graph> argument keeps compiling.
  // NOLINTNEXTLINE(google-explicit-constructor)
  GraphStore(std::shared_ptr<const Graph> graph);

  // MapBinary(path), held in a store. Fails with the MapBinary status on a
  // missing or malformed file.
  static StatusOr<GraphStore> Map(const std::string& path);

  bool empty() const { return rep_ == nullptr; }
  const GraphView& view() const { return view_; }
  const Graph& graph() const;

 private:
  struct Rep;
  GraphView view_;
  std::shared_ptr<const Rep> rep_;  // owns what view_ aliases
};

}  // namespace qsc

#endif  // QSC_GRAPH_GRAPH_STORE_H_
