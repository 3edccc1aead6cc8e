// GraphView (qsc/graph/graph_view.h): the zero-copy serving substrate.
// Covers surface equality against the owning Graph, bit-identity of a
// mapped view against MappedGraph::Materialize() (the invariant the
// serving/mmap-* bench scenarios gate), and the lifetime contract — a
// view outliving its Materialize() call, and the rejection table for
// views over moved-from MappedGraphs. Also covers GraphStore
// (qsc/graph/graph_store.h), the handle that owns what a view aliases:
// owning and mapped stores serve identical views, copies share one
// materialization, and a store outlives its file's directory entry. The
// ASan leg runs this binary, so every read through a view here is a
// use-after-free probe.

#include "qsc/graph/graph_view.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/graph/graph_store.h"
#include "qsc/graph/io.h"
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

Graph UndirectedBa(NodeId n, uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(n, 3, rng);
}

void ExpectSameArcs(const std::vector<EdgeTriple>& got,
                    const std::vector<EdgeTriple>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].src, want[i].src);
    EXPECT_EQ(got[i].dst, want[i].dst);
    EXPECT_EQ(got[i].weight, want[i].weight);
  }
}

// Every accessor of `view` must agree bitwise with `g` — the view
// surface is a drop-in replacement for the owning graph's read surface.
void ExpectSameSurface(const Graph& g, const GraphView& view) {
  ASSERT_EQ(view.num_nodes(), g.num_nodes());
  EXPECT_EQ(view.num_arcs(), g.num_arcs());
  EXPECT_EQ(view.num_edges(), g.num_edges());
  EXPECT_EQ(view.undirected(), g.undirected());
  EXPECT_EQ(view.TotalWeight(), g.TotalWeight());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(view.OutDegree(u), g.OutDegree(u));
    EXPECT_EQ(view.InDegree(u), g.InDegree(u));
    EXPECT_EQ(view.OutWeight(u), g.OutWeight(u));
    EXPECT_EQ(view.InWeight(u), g.InWeight(u));
    auto vit = view.OutNeighbors(u).begin();
    for (const NeighborEntry e : g.OutNeighbors(u)) {
      EXPECT_EQ((*vit).node, e.node);
      EXPECT_EQ((*vit).weight, e.weight);
      ++vit;
    }
    auto iit = view.InNeighbors(u).begin();
    for (const NeighborEntry e : g.InNeighbors(u)) {
      EXPECT_EQ((*iit).node, e.node);
      EXPECT_EQ((*iit).weight, e.weight);
      ++iit;
    }
  }
  ExpectSameArcs(view.Arcs(), g.Arcs());
}

TEST(GraphViewTest, DefaultConstructedIsEmpty) {
  const GraphView view;
  EXPECT_EQ(view.num_nodes(), 0);
  EXPECT_EQ(view.num_arcs(), 0);
  EXPECT_EQ(view.num_edges(), 0);
  EXPECT_FALSE(view.undirected());
  EXPECT_EQ(view.TotalWeight(), 0.0);
  EXPECT_TRUE(view.Arcs().empty());
}

TEST(GraphViewTest, AliasesOwningDirectedGraph) {
  const Graph g = DirectedBa(200, 7);
  const GraphView view(g);
  ExpectSameSurface(g, view);
  EXPECT_TRUE(view.HasArc(g.Arcs()[0].src, g.Arcs()[0].dst));
  EXPECT_EQ(view.ArcWeight(g.Arcs()[0].src, g.Arcs()[0].dst),
            g.ArcWeight(g.Arcs()[0].src, g.Arcs()[0].dst));
  EXPECT_FALSE(view.HasArc(0, 0));
  EXPECT_EQ(view.ArcWeight(0, 0), 0.0);
}

TEST(GraphViewTest, AliasesOwningUndirectedGraph) {
  const Graph g = UndirectedBa(200, 11);
  ExpectSameSurface(g, GraphView(g));
}

TEST(GraphViewTest, ImplicitConversionFromGraph) {
  const Graph g = DirectedBa(50, 3);
  // Kernels flipped from `const Graph&` to `GraphView` parameters rely on
  // this conversion to keep existing call sites compiling.
  const auto takes_view = [](const GraphView& v) { return v.num_arcs(); };
  EXPECT_EQ(takes_view(g), g.num_arcs());
}

TEST(GraphViewTest, MappedDirectedViewMatchesMaterialize) {
  const Graph g = DirectedBa(300, 19);
  const std::string path = TempPath("view_directed.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  const GraphView view = GraphView::Of(*mapped);
  // Bit-identity with the materialized Graph: same accumulation order for
  // every derived quantity (weight caches, in-CSR, edge count).
  ExpectSameSurface(mapped->Materialize(), view);
  std::remove(path.c_str());
}

TEST(GraphViewTest, MappedUndirectedViewMatchesMaterialize) {
  const Graph g = UndirectedBa(300, 23);
  const std::string path = TempPath("view_undirected.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  const GraphView view = GraphView::Of(*mapped);
  ExpectSameSurface(mapped->Materialize(), view);
  std::remove(path.c_str());
}

TEST(GraphViewTest, ViewStaysValidAfterMaterialize) {
  // Materialize() copies out of the mapping; it must not disturb it. A
  // view built before the call reads identically after (ASan would flag
  // any invalidated page).
  const Graph g = DirectedBa(150, 29);
  const std::string path = TempPath("view_after_materialize.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  const GraphView view = GraphView::Of(*mapped);
  const std::vector<EdgeTriple> before = view.Arcs();
  const Graph materialized = mapped->Materialize();
  ExpectSameArcs(view.Arcs(), before);
  ExpectSameArcs(materialized.Arcs(), before);
  std::remove(path.c_str());
}

TEST(GraphViewTest, ViewCopiesShareDerivedArrays) {
  const Graph g = DirectedBa(100, 31);
  const std::string path = TempPath("view_copies.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  GraphView original = GraphView::Of(*mapped);
  const GraphView copy = original;  // cheap: pointers + one shared_ptr
  const std::vector<EdgeTriple> arcs = copy.Arcs();
  original = GraphView();  // the copy keeps the derived arrays alive
  ExpectSameArcs(copy.Arcs(), arcs);
  EXPECT_EQ(copy.InDegree(0), mapped->Materialize().InDegree(0));
  std::remove(path.c_str());
}

TEST(GraphStoreTest, OwningAndMappedStoresServeIdenticalViews) {
  for (const bool undirected : {false, true}) {
    const Graph g = undirected ? UndirectedBa(200, 43) : DirectedBa(200, 43);
    const std::string path = TempPath("store_identity.qscbin");
    ASSERT_TRUE(WriteBinary(g, path).ok());
    const GraphStore owned(std::make_shared<const Graph>(g));
    const StatusOr<GraphStore> mapped = GraphStore::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().message();
    EXPECT_FALSE(owned.empty());
    EXPECT_FALSE(mapped->empty());
    ExpectSameSurface(g, owned.view());
    ExpectSameSurface(g, mapped->view());
    ExpectSameArcs(mapped->view().Arcs(), owned.view().Arcs());
    std::remove(path.c_str());
  }
}

TEST(GraphStoreTest, CopiesShareOneMaterialization) {
  const Graph g = DirectedBa(120, 47);
  const std::string path = TempPath("store_copies.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<GraphStore> mapped = GraphStore::Map(path);
  ASSERT_TRUE(mapped.ok());
  const GraphStore copy = *mapped;
  const Graph& first = copy.graph();
  EXPECT_EQ(&mapped->graph(), &first);
  EXPECT_TRUE(first == g);
  // Copies share the view's derived arrays (the directed in-CSR) too.
  EXPECT_EQ(copy.view().InNeighbors(0).nodes(),
            mapped->view().InNeighbors(0).nodes());

  // An owning store hands back the graph it was given.
  const auto shared = std::make_shared<const Graph>(g);
  const GraphStore owned = shared;
  EXPECT_EQ(&owned.graph(), shared.get());
  std::remove(path.c_str());
}

TEST(GraphStoreTest, KeepsServingAfterItsFileIsUnlinked) {
  const Graph g = UndirectedBa(150, 53);
  const std::string path = TempPath("store_unlinked.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<GraphStore> mapped = GraphStore::Map(path);
  ASSERT_TRUE(mapped.ok());
  std::remove(path.c_str());
  // The last copy of the store alone keeps the mapping alive.
  const GraphStore survivor = *mapped;
  *mapped = GraphStore();
  ExpectSameSurface(g, survivor.view());
  EXPECT_TRUE(survivor.graph() == g);
}

TEST(GraphStoreTest, EmptyStores) {
  const GraphStore none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.view().num_nodes(), 0);
  EXPECT_TRUE(GraphStore(std::shared_ptr<const Graph>()).empty());
  EXPECT_EQ(GraphStore::Map(TempPath("store_absent.qscbin")).status().code(),
            StatusCode::kNotFound);
}

TEST(GraphStoreDeathTest, GraphOfAnEmptyStoreAborts) {
  const GraphStore none;
  EXPECT_DEATH(none.graph(), "QSC_CHECK");
}

// The rejection table for moved-from MappedGraphs: every way of reaching
// GraphView::Of with a hollowed-out mapping must trip the contract check
// instead of dereferencing null CSR pointers.
TEST(GraphViewDeathTest, RejectsMoveConstructedFromMapped) {
  const Graph g = DirectedBa(50, 37);
  const std::string path = TempPath("view_moved_from1.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  const MappedGraph stolen = std::move(*mapped);
  EXPECT_EQ(GraphView::Of(stolen).num_arcs(), g.num_arcs());  // alive: fine
  EXPECT_DEATH(GraphView::Of(*mapped), "QSC_CHECK");
  std::remove(path.c_str());
}

TEST(GraphViewDeathTest, RejectsMoveAssignedFromMapped) {
  const Graph g = DirectedBa(50, 41);
  const std::string path = TempPath("view_moved_from2.qscbin");
  ASSERT_TRUE(WriteBinary(g, path).ok());
  StatusOr<MappedGraph> a = MapBinary(path);
  StatusOr<MappedGraph> b = MapBinary(path);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  *a = std::move(*b);
  EXPECT_EQ(GraphView::Of(*a).num_arcs(), g.num_arcs());
  EXPECT_DEATH(GraphView::Of(*b), "QSC_CHECK");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace qsc
