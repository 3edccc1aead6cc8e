// Incremental recoloring under graph edits (ROADMAP item 2; Slim Graph's
// evolving-analytics case for lossy compression, PAPERS.md).
//
// An IncrementalRecolorer wraps any registered ColoringBackend and is
// itself a ColoringBackend, so the session-level ColoringCache can hold
// one per cached spec and keep its anytime-resume guarantee untouched:
// while the graph is frozen every call delegates to the wrapped kernel,
// bit-identical to using the kernel directly.
//
// ApplyGraph is the new verb. An edit batch changes only the degree-row
// entries of the edited arcs' endpoints toward each other's colors, so
// instead of discarding the partition the recolorer patches the wrapped
// kernel in place (ColoringBackend::PatchGraph, backend.h contract item
// 5): the kernel rebinds to the mutated graph, recomputes those entries,
// and updates the pair aggregates holding them from the changed values
// alone. The result is bit for bit the kernel a fresh build over (mutated
// graph, current partition) would be, at a cost proportional to the
// edited rows. The recolorer then re-splits until the spec's q-tolerance
// is restored, under a repair split budget. Splits concentrate where the
// edits raised the error — that is the locality of the repair path.
//
// Repair/fallback contract (docs/DYNAMIC.md; the differential oracle in
// eval/differential.h gates it at zero tolerance):
//
//   - A spec is repairable iff q_tolerance > 0: the tolerance is the
//     certificate a local repair can restore. A repaired coloring
//     satisfies CurrentMaxError() <= q_tolerance on the mutated graph, so
//     every budget served from it meets the same q-error bound a
//     from-scratch coloring meets.
//   - q_tolerance == 0 specs ("refine to the color budget") and repairs
//     that exceed the split budget or stall fall back: the recolorer
//     resets to the spec's initial partition on the mutated graph, and
//     subsequent refinement is bit-identical to a from-scratch run (the
//     backend determinism contract).
//
// Either way the monotone q-error contract holds between edits, and the
// served coloring is never worse than max(q_tolerance, scratch error).

#ifndef QSC_DYNAMIC_INCREMENTAL_H_
#define QSC_DYNAMIC_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/graph_store.h"

namespace qsc {
namespace dynamic {

struct RepairOptions {
  // Maximum splits one repair may spend before the edit batch is declared
  // too disruptive and the recolorer falls back to scratch. The budget is
  // checked between backend steps, so the final step may overshoot by its
  // own error-recovery splits. 0 means "no repair work": any batch that
  // leaves the error above tolerance falls back.
  int64_t max_repair_splits = 256;
};

struct RepairOutcome {
  // True when the partition was repaired in place (error back under the
  // spec tolerance); false when the recolorer fell back to the initial
  // partition for a from-scratch recoloring.
  bool repaired = false;
  // Splits the repair spent (0 on fallback).
  int64_t splits = 0;
  // Distinct colors of the pre-edit partition containing an edited
  // endpoint: the aggregate rows the patch revisits (every degree-row
  // entry an edit changes belongs to an endpoint).
  int64_t dirty_colors = 0;
  // True when the wrapped kernel reported convergence during the repair
  // (a converged entry stays converged until the next edit).
  bool converged = false;
  double max_error = 0.0;
  ColorId num_colors = 0;
};

class IncrementalRecolorer final : public ColoringBackend {
 public:
  // `backend` must be a canonical registered name (the Compressor
  // boundary validates); `initial` is the spec's initial partition (the
  // pin structure), which fallbacks reset to. The wrapped kernel is built
  // eagerly over `graph.view()`; `graph` must not be empty. Holding the
  // store keeps the viewed arrays alive, owned or mapped.
  IncrementalRecolorer(GraphStore graph, std::string backend,
                       Partition initial, const ColoringParams& params);

  // ColoringBackend: pure delegation to the wrapped kernel.
  bool Step(ColorId color_cap = 0) override;
  const Partition& partition() const override;
  double CurrentMaxError() const override;
  int64_t MemoryBytes() const override;

  // Swaps in the already-mutated graph (`edits` is the batch that
  // produced it: its arcs are the ones the wrapped kernel patches) and
  // repairs or falls back per the contract above. Not safe concurrently
  // with Step; the ColoringCache serializes per entry.
  RepairOutcome ApplyGraph(GraphStore graph, const std::vector<EditOp>& edits,
                           const RepairOptions& options);

 private:
  GraphStore graph_;
  std::string backend_;
  Partition initial_;
  ColoringParams params_;
  std::unique_ptr<ColoringBackend> impl_;
};

}  // namespace dynamic
}  // namespace qsc

#endif  // QSC_DYNAMIC_INCREMENTAL_H_
