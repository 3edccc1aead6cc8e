// The compression-backend registry (ROADMAP item 4; Slim Graph's "menu of
// lossy compression kernels behind one interface").
//
// A ColoringBackend is a live anytime refiner: the exact contract the
// session-level ColoringCache depends on. Any kernel that honors it can be
// registered under a name and served through qsc::Compressor — specs name
// their backend, cache keys and byte budgets account per backend, and the
// eval harness scores every registered kernel on the same
// accuracy-vs-compression axes (qsc_eval --backend).
//
// Contract (what the cache relies on; see docs/API.md "Backends"):
//
//   1. Monotone anytime Step(): each call performs at least one witness
//      split and CurrentMaxError() never increases across uncapped calls;
//      Step returns false (leaving the partition unchanged) only when the
//      coloring converged (max error <= q_tolerance, or no splittable
//      color remains).
//   2. Determinism: the split sequence is a function of (graph, current
//      partition, params) only — independent of wall clock, thread pool
//      size, and of how Step() calls were batched. This is what makes a
//      budget-B continuation of a cached instance bit-identical to a
//      fresh run at budget B, the ColoringCache resume guarantee.
//   3. partition() snapshots are valid partitions of the graph's node set
//      and refine monotonically (colors only split, never merge), so
//      pinned singletons stay pinned.
//   4. MemoryBytes() approximates the live heap footprint for the
//      byte-budgeted cache's eviction accounting.
//   5. In-place edits: PatchGraph(g, arcs) rebinds a live instance to the
//      edited graph and updates only the state the edited arcs touch. On
//      graphs whose weights sum exactly in double precision (integer
//      weights, which every generator and edit stream in the tree draws)
//      the patched instance equals the registry's factory over
//      (g, partition()) bit for bit: same CurrentMaxError(), same later
//      Step() sequence, same partitions. With other weights it agrees up
//      to the rounding of the changed sums. A kernel that cannot patch
//      keeps the default, which returns false; the IncrementalRecolorer
//      then resets it to the spec's initial partition.
//
// Builtin backends (registered on first Global() use). All three are one
// engine, the incremental RothkoRefiner (paper Algorithm 1: size-weighted
// worst-witness selection and the monotone step), and differ only in the
// SplitRule (coloring/rothko.h) that cuts the witness's color:
//
//   rothko      - the default rule: split at the witness mean (or
//                 geometric mean, per ColoringParams::split_mean).
//   lp-rounding - the members' witness weights are split by a small
//                 assignment LP solved with the in-tree simplex, then
//                 rounded to a midrange cut (coloring/lp_rounding.h).
//   bucket      - degree bucketing: the color is split at the median rank
//                 of total weighted degree, ignoring the witness weights
//                 — the cheap structure-oblivious baseline (backend.cc).

#ifndef QSC_COLORING_BACKEND_H_
#define QSC_COLORING_BACKEND_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"
#include "qsc/util/status.h"

namespace qsc {

// One arc whose weight an edit batch changed: inserted, deleted or
// re-weighted. On an undirected graph it names the logical edge
// {src, dst}, both of whose arcs changed.
struct EditedArc {
  NodeId src = 0;
  NodeId dst = 0;
};

// The refiner contract shared by all compression kernels.
class ColoringBackend {
 public:
  virtual ~ColoringBackend() = default;

  // One monotone refinement step (>= 1 split, possibly more to restore
  // the pre-step maximum error). `color_cap` (0 = unlimited) bounds the
  // monotone continuation: once the partition reaches `color_cap` colors
  // the step stops even if the error has not yet recovered. Returns false
  // (partition unchanged) when converged.
  virtual bool Step(ColorId color_cap = 0) = 0;

  virtual const Partition& partition() const = 0;

  // Maximum unweighted q-error of the current coloring, both directions.
  virtual double CurrentMaxError() const = 0;

  // Approximate heap footprint of the live instance, in bytes (the
  // byte-budgeted ColoringCache's eviction accounting).
  virtual int64_t MemoryBytes() const = 0;

  // Rebinds the instance to `g`, the graph it was built over after an
  // edit batch that changed exactly `arcs` (same node set, same
  // directedness), keeping the current partition (contract item 5). `g`
  // must outlive the instance. Returns false when the kernel cannot
  // patch; the instance must then be discarded.
  virtual bool PatchGraph(const GraphView& /*g*/,
                          const std::vector<EditedArc>& /*arcs*/) {
    return false;
  }
};

// The canonical name of the default backend; ColoringSpec treats the
// empty string as this name (pre-registry specs keep their meaning, hash,
// and cache identity).
inline constexpr const char* kDefaultColoringBackend = "rothko";

// Canonicalizes a user-supplied backend name: ASCII whitespace trimmed,
// ASCII letters lowercased, "" mapped to kDefaultColoringBackend.
// Returns InvalidArgument for malformed names — after canonicalization a
// name must match [a-z0-9][a-z0-9_-]* (<= 64 chars). Whether the name is
// *registered* is a separate question (Registry::Contains); the
// Compressor boundary maps well-formed-but-unknown to NotFound.
StatusOr<std::string> CanonicalBackendName(const std::string& name);

// Builds a live refiner over `g` starting from `initial`.
using ColoringBackendFactory = std::function<std::unique_ptr<ColoringBackend>(
    const GraphView& g, Partition initial, const ColoringParams& params)>;

// Process-wide name -> factory map. Global() registers the three builtin
// backends on first use; user kernels may be added with Register (names
// must be canonical, unique, and well formed). All methods are safe for
// concurrent use.
class ColoringBackendRegistry {
 public:
  static ColoringBackendRegistry& Global();

  // `name` must already be canonical (CanonicalBackendName fixpoint) and
  // unregistered; violations abort (registration is programmer-owned,
  // not data-dependent).
  void Register(std::string name, std::string description,
                ColoringBackendFactory factory);

  bool Contains(const std::string& canonical_name) const;

  // Creates a refiner; aborts on unknown names (the Compressor boundary
  // validates first — see CanonicalBackendName).
  std::unique_ptr<ColoringBackend> Create(const std::string& canonical_name,
                                          const GraphView& g, Partition initial,
                                          const ColoringParams& params) const;

  // Registered canonical names, sorted; the "registered: ..." list in
  // boundary error messages.
  std::vector<std::string> Names() const;

  // One-line description of a registered backend ("" when absent).
  std::string Description(const std::string& canonical_name) const;

 private:
  ColoringBackendRegistry() = default;

  class Impl;
  Impl* impl() const;
};

}  // namespace qsc

#endif  // QSC_COLORING_BACKEND_H_
