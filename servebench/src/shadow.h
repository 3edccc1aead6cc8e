// The traced run's layer-by-layer reproduction of qsc::Compressor calls.
//
// Before each Compressor call the traced run asks the Shadow for the same
// answer, computed by calling the public layer functions directly, each
// inside its own span:
//
//   coloring.build_rows    RothkoRefiner over InitialPartition(spec, n)
//                          (an IncrementalRecolorer on edit-churn, which
//                          wraps the same kernel and adds the repair verb)
//   coloring.split_loop    Step() up to the budget, as ColoringCache does
//   reduce.reduced_graph   BuildReducedGraph(kSum)
//   flow.push_relabel      MaxFlowPushRelabel on the reduced graph
//   centrality.pivot_scores ColorPivotScores
//   lp.refiner_build       LpColoringRefiner constructor
//   lp.reduce_to / lp.simplex / lp.lift
//   dynamic.apply_batch    ApplyEditBatch on the shadow's own graph copy
//   dynamic.repair         IncrementalRecolorer::ApplyGraph, per spec
//
// The Shadow keeps its own refiners, keyed like the session cache, so a
// spec the session serves from its cache costs the Shadow no coloring
// work either. Its answers must match the Compressor's bit for bit.

#ifndef SERVEBENCH_SHADOW_H_
#define SERVEBENCH_SHADOW_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "qsc/api/coloring_cache.h"
#include "qsc/api/compressor.h"
#include "qsc/coloring/backend.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph_view.h"
#include "qsc/lp/reduce.h"
#include "tracer.h"

namespace servebench {

class Shadow {
 public:
  // Counters of the layers' work, summed over the Shadow's lifetime.
  struct Counts {
    int64_t splits = 0;
    int64_t reduced_arcs = 0;
    int64_t pivots = 0;
    int64_t repairs = 0;
    int64_t fallbacks = 0;
    int64_t repair_splits = 0;
    int64_t dirty_colors = 0;
  };

  struct LpAnswer {
    qsc::ReducedLp reduced;
    qsc::LpResult solution;
    std::vector<double> lifted_x;
  };

  // Serves over `view`, whose storage `keepalive` pins. `owned` (may be
  // null) is an owning graph equal to `view`; ApplyEdits needs it, and
  // with it the refiners are IncrementalRecolorers so they can repair.
  Shadow(qsc::GraphView view, std::shared_ptr<const qsc::Graph> owned,
         std::shared_ptr<const void> keepalive, qsc::ThreadPool* pool,
         Tracer* tracer);
  ~Shadow();

  // The spec's refiner, stepped to `budget` colors. The reference stays
  // valid until the next Color() call for another spec.
  const qsc::ColoringBackend& Color(const qsc::ColoringSpec& spec,
                                    qsc::ColorId budget);
  // The Theorem-6 upper bound of MaxFlow(s, t) on `p`.
  double FlowUpperBound(qsc::NodeId s, qsc::NodeId t, const qsc::Partition& p);
  std::vector<double> PivotScores(const qsc::Partition& p,
                                  int32_t pivots_per_color, uint64_t seed);
  LpAnswer SolveLp(const std::shared_ptr<const qsc::LpProblem>& lp,
                   const qsc::QueryOptions& options);
  qsc::EditApplyResult ApplyEdits(
      const std::vector<qsc::dynamic::EditOp>& edits);

  const Counts& counts() const { return counts_; }

 private:
  struct Entry {
    std::unique_ptr<qsc::ColoringBackend> refiner;
    qsc::ColorId initial_colors = 0;
    bool converged = false;
  };

  qsc::GraphView view_;
  std::shared_ptr<const qsc::Graph> owned_;  // null unless editable
  std::shared_ptr<const void> keepalive_;
  qsc::ThreadPool* pool_;
  Tracer* tracer_;
  std::unordered_map<qsc::ColoringSpec, Entry, qsc::ColoringSpecHash>
      entries_;
  // Most recently used specs first; the Shadow keeps a bounded number of
  // refiners (cold-compress draws a new spec per query).
  std::list<qsc::ColoringSpec> lru_;
  std::map<const qsc::LpProblem*,
           std::pair<std::shared_ptr<const qsc::LpProblem>,
                     std::unique_ptr<qsc::LpColoringRefiner>>>
      lps_;
  std::list<const qsc::LpProblem*> lp_lru_;
  Counts counts_;
};

}  // namespace servebench

#endif  // SERVEBENCH_SHADOW_H_
