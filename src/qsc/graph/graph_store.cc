#include "qsc/graph/graph_store.h"

#include <mutex>
#include <optional>
#include <utility>

#include "qsc/graph/io.h"
#include "qsc/util/check.h"

namespace qsc {

struct GraphStore::Rep {
  // Set at construction for an owning store, by the first graph() call for
  // a mapped one.
  mutable std::shared_ptr<const Graph> graph;
  mutable std::once_flag materialize_once;
  std::optional<MappedGraph> mapped;  // mapped stores only
};

GraphStore::GraphStore(std::shared_ptr<const Graph> graph) {
  if (graph == nullptr) return;
  view_ = GraphView(*graph);
  auto rep = std::make_shared<Rep>();
  rep->graph = std::move(graph);
  rep_ = std::move(rep);
}

StatusOr<GraphStore> GraphStore::Map(const std::string& path) {
  StatusOr<MappedGraph> mapped = MapBinary(path);
  if (!mapped.ok()) return mapped.status();
  auto rep = std::make_shared<Rep>();
  rep->mapped.emplace(std::move(mapped).value());
  GraphStore store;
  store.view_ = GraphView::Of(*rep->mapped);
  store.rep_ = std::move(rep);
  return store;
}

const Graph& GraphStore::graph() const {
  QSC_CHECK(rep_ != nullptr);
  std::call_once(rep_->materialize_once, [this] {
    if (rep_->graph == nullptr) {
      rep_->graph = std::make_shared<const Graph>(rep_->mapped->Materialize());
    }
  });
  return *rep_->graph;
}

}  // namespace qsc
