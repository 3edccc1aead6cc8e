#include "qsc/coloring/reduced_graph.h"

#include <cmath>
#include <vector>

#include "qsc/coloring/color_pair_sums.h"

namespace qsc {

Graph BuildReducedGraph(const GraphView& g, const Partition& p,
                        ReducedWeight weight) {
  QSC_CHECK_EQ(g.num_nodes(), p.num_nodes());
  const ColorId k = p.num_colors();
  // Aggregate arc weights between ordered color pairs.
  std::vector<EdgeTriple> arcs;
  SumColorPairs(
      g.num_nodes(), k, k, g.num_arcs(),
      [&p](int64_t u) { return p.ColorOf(static_cast<NodeId>(u)); },
      [&g, &p](int64_t u, auto add) {
        for (const NeighborEntry& e : g.OutNeighbors(static_cast<NodeId>(u))) {
          add(p.ColorOf(e.node), e.weight);
        }
      },
      [&](ColorId i, ColorId j, double total) {
        // For undirected graphs both arc directions were aggregated; emit
        // only the canonical one and let FromEdges mirror it.
        if (g.undirected() && i > j) return;
        double w = total;
        const double si = static_cast<double>(p.ColorSize(i));
        const double sj = static_cast<double>(p.ColorSize(j));
        switch (weight) {
          case ReducedWeight::kSum:
            break;
          case ReducedWeight::kMean:
            w /= si * sj;
            break;
          case ReducedWeight::kSqrtNormalized:
            w /= std::sqrt(si * sj);
            break;
        }
        arcs.push_back({i, j, w});
      });
  return Graph::FromEdges(k, arcs, g.undirected());
}

}  // namespace qsc
