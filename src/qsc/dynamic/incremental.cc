#include "qsc/dynamic/incremental.h"

#include <unordered_set>
#include <utility>
#include <vector>

#include "qsc/util/check.h"

namespace qsc {
namespace dynamic {
IncrementalRecolorer::IncrementalRecolorer(GraphStore graph,
                                           std::string backend,
                                           Partition initial,
                                           const ColoringParams& params)
    : graph_(std::move(graph)),
      backend_(std::move(backend)),
      initial_(std::move(initial)),
      params_(params) {
  QSC_CHECK(!graph_.empty());
  impl_ = ColoringBackendRegistry::Global().Create(backend_, graph_.view(),
                                                   initial_, params_);
}

bool IncrementalRecolorer::Step(ColorId color_cap) {
  return impl_->Step(color_cap);
}

const Partition& IncrementalRecolorer::partition() const {
  return impl_->partition();
}

double IncrementalRecolorer::CurrentMaxError() const {
  return impl_->CurrentMaxError();
}

int64_t IncrementalRecolorer::MemoryBytes() const {
  return static_cast<int64_t>(sizeof(*this)) + initial_.MemoryBytes() +
         impl_->MemoryBytes();
}

RepairOutcome IncrementalRecolorer::ApplyGraph(
    GraphStore graph, const std::vector<EditOp>& edits,
    const RepairOptions& options) {
  QSC_CHECK(!graph.empty());
  RepairOutcome out;

  // The colors whose aggregate rows the patch revisits: distinct pre-edit
  // colors with an edited endpoint (every patched degree-row entry belongs
  // to an endpoint's row).
  {
    const Partition& p = impl_->partition();
    std::unordered_set<ColorId> dirty;
    for (const EditOp& op : edits) {
      for (const NodeId v : {op.src, op.dst}) {
        if (v >= 0 && v < p.num_nodes()) dirty.insert(p.ColorOf(v));
      }
    }
    out.dirty_colors = static_cast<int64_t>(dirty.size());
  }

  graph_ = std::move(graph);
  const double tolerance = params_.q_tolerance;
  std::vector<EditedArc> arcs;
  arcs.reserve(edits.size());
  for (const EditOp& op : edits) arcs.push_back({op.src, op.dst});
  if (tolerance > 0.0 && impl_->PatchGraph(graph_.view(), arcs)) {
    // Repair path: the kernel, patched in place, now holds the pre-edit
    // partition on the mutated graph; re-split until the spec's tolerance
    // certificate is restored or the budget says the batch was too
    // disruptive.
    bool kernel_converged = false;
    while (impl_->CurrentMaxError() > tolerance) {
      if (out.splits >= options.max_repair_splits) break;
      const ColorId before = impl_->partition().num_colors();
      if (!impl_->Step(/*color_cap=*/0)) {
        // Converged by the kernel's own rule; with no splittable color
        // left the error cannot be above a positive tolerance, but guard
        // against kernels that disagree.
        kernel_converged = true;
        break;
      }
      out.splits += impl_->partition().num_colors() - before;
    }
    if (impl_->CurrentMaxError() <= tolerance || kernel_converged) {
      out.repaired = true;
      // Error at or under tolerance means any further Step would refuse
      // to split; record convergence so cache budget loops skip it.
      out.converged = true;
      out.max_error = impl_->CurrentMaxError();
      out.num_colors = impl_->partition().num_colors();
      return out;
    }
    out.splits = 0;  // fallback: repair work is discarded
  }

  // Fallback (and the only path for q_tolerance == 0 specs and for
  // kernels that cannot patch): reset to the spec's initial partition on
  // the mutated graph. Refinement from here is bit-identical to a
  // from-scratch run.
  impl_.reset();  // never two refiners of this spec at once
  impl_ = ColoringBackendRegistry::Global().Create(backend_, graph_.view(),
                                                   initial_, params_);
  out.repaired = false;
  out.converged = false;
  out.max_error = impl_->CurrentMaxError();
  out.num_colors = impl_->partition().num_colors();
  return out;
}

}  // namespace dynamic
}  // namespace qsc
