// The Rothko algorithm (paper Algorithm 1): heuristic computation of a
// quasi-stable coloring by iterated witness splits.
//
// Starting from a coarse partition, each step finds the witness — the
// ordered color pair (P_i, P_j) and direction with the largest
// size-weighted degree spread — and splits the offending color at the mean
// degree. The process is *anytime*: it can be stopped after any step and
// still yields a valid coloring whose q-error only improves with more
// steps.
//
// Directed graphs consider both directions of Definition 1: an
// out-direction witness splits the source color by out-weight toward the
// target; an in-direction witness splits the target color by in-weight from
// the source. For undirected graphs the two coincide and only the
// out-direction is tracked.
//
// The implementation is incremental: per-node degree rows (the weight
// toward each neighboring color, one arena per direction; see
// coloring/flat_rows.h) and per-pair max/min aggregates are updated on each
// split, and witnesses are found through lazy max-heaps, so building a
// k-color refinement does not rescan the graph k times. Every aggregate
// counts the members holding its max and its min, so it updates from its
// members' (old, new) values alone:
//   - a split moves the ejected nodes' arc weights inside their neighbors'
//     rows, and records each touched row's value toward the split color
//     before the moves and its values toward both halves after them. Each
//     neighboring color's aggregate toward the split color drops its
//     touched members' old values, then takes their new ones; its
//     aggregate toward the new color is built from those members alone.
//     Only the two halves are rebuilt from all their members, so a split
//     costs the volume of the ejected nodes plus that of the halves;
//   - an aggregate whose extreme lost its last holder, with no new value
//     reaching it, is *loose*: its stale extreme bounds the true one, so
//     its witness priority is an upper bound. It is rescanned from its
//     members only when it reaches the top of a witness heap, then pushed
//     again at the size factor of its last push. Max, min and count are
//     exact selections and a bound never ranks below its exact value, so
//     each heap's first exact top is the witness an eager rescan would
//     pick, ties included. After every public call the top of the raw
//     heap (CurrentMaxError) is exact;
//   - graph edits are absorbed in place (PatchGraph): an edited arc
//     changes one entry of each endpoint's row, and each changed entry
//     moves one member's value inside one pair aggregate, which is
//     rescanned at once if it turns loose.
//
// The cut itself is pluggable: a SplitRule decides which members of the
// chosen color move into the new color. The default (null) rule is the
// paper's mean / geometric-mean threshold; the `lp-rounding` and `bucket`
// compression backends (coloring/backend.cc) are this same engine with a
// different rule, so every backend shares witness selection, the
// monotone step and the incremental bookkeeping.

#ifndef QSC_COLORING_ROTHKO_H_
#define QSC_COLORING_ROTHKO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/flat_rows.h"
#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/graph/graph_view.h"

namespace qsc {

class ThreadPool;

// The shared knobs (alpha, beta, q_tolerance, split_mean, pool) live in
// ColoringParams (coloring/params.h) so every backend consumes the same
// struct; RothkoOptions adds only the Rothko-specific stopping rule.
//
// Pool semantics for Rothko specifically: the degree rows build and a
// large split color's witness values are gathered over the pool, each
// through a reduction whose result does not depend on the chunking, so the
// split sequence — and therefore every partition and q-error this refiner
// produces — is bit-identical for any pool size, including none
// (tests/coloring_rothko_equivalence_test.cc checks threads 1/2/8 against
// the frozen reference). The pool does NOT make the refiner itself
// thread-safe: concurrent Step() calls still require external
// serialization.
struct RothkoOptions : ColoringParams {
  // Pre-registry spelling of the split-threshold rule; the enumerators are
  // the namespace-scope qsc::SplitMean ones.
  using SplitMean = qsc::SplitMean;

  // Stop once the partition reaches this many colors (n in Algorithm 1).
  ColorId max_colors = 64;
};

// Telemetry for one split, recorded for the responsiveness study (paper
// Table 6).
struct RothkoStep {
  ColorId split_color;     // color that was split
  ColorId new_color;       // id of the newly created color
  double witness_error;    // unweighted q-error of the chosen witness
  ColorId num_colors;      // colors after the split
  double elapsed_seconds;  // since refiner construction
};

// Telemetry of the last PatchGraph call.
struct RothkoPatchStats {
  int64_t changed_entries = 0;    // degree-row entries whose value changed
  int64_t pairs = 0;              // pair aggregates updated
  int64_t rescans = 0;            // pairs whose members were rescanned
  int64_t rescanned_members = 0;  // members visited by those rescans
  bool heaps_rebuilt = false;     // witness heaps rebuilt from the pairs
  int64_t heap_entries = 0;       // entries of the larger heap afterwards
  int64_t live_pairs = 0;         // live pair aggregates afterwards
};

// Split-loop telemetry, summed since the refiner was built.
struct RothkoSplitStats {
  int64_t touched_rows = 0;       // degree rows the splits' moves changed
  int64_t loose_pairs = 0;        // pair aggregates a split left loose
  int64_t rescans = 0;            // loose pairs rescanned at a heap top
  int64_t rescanned_members = 0;  // members visited by those rescans
};

// A witness-split rule. `members` is Members(split_color) and `values[i]`
// is the witness weight of members[i] (0 when it has no edge toward the
// witness's other color); the spread max - min is positive. The rule
// appends to the empty `eject` the members to peel into the new color.
// If the answer is empty or takes every member, the engine instead ejects
// the members strictly above the minimum weight. Rules must be
// deterministic and are always called from the refiner's own thread.
using SplitRule = void (*)(const GraphView& g,
                           const std::vector<NodeId>& members,
                           const std::vector<double>& values,
                           std::vector<NodeId>* eject);

// Incremental refiner; use RothkoColoring() unless you need the anytime /
// co-routine interface. Every builtin compression backend is this refiner
// with its own SplitRule (coloring/backend.h).
class RothkoRefiner : public ColoringBackend {
 public:
  // `rule` (null = the mean / geometric-mean threshold of
  // options.split_mean) chooses how the worst witness's color is cut.
  RothkoRefiner(const GraphView& g, Partition initial, RothkoOptions options,
                SplitRule rule = nullptr);
  ~RothkoRefiner() override;

  RothkoRefiner(const RothkoRefiner&) = delete;
  RothkoRefiner& operator=(const RothkoRefiner&) = delete;

  // Performs one *monotone* refinement step. Returns false (and leaves the
  // partition unchanged) when converged: the maximum q-error is <=
  // q_tolerance, or no splittable color remains.
  //
  // A step begins with the witness split of Algorithm 1. A single split can
  // transiently *raise* the maximum q-error — splitting a color P_k also
  // splits every neighbor's witness weight w(v, P_k) into two components
  // whose spreads are not bounded by the old spread — so the step keeps
  // splitting the new worst witness until the maximum q-error is back at or
  // below its pre-step value. This makes the anytime guarantee exact:
  // CurrentMaxError() never increases across Step() calls.
  //
  // `color_cap` (0 = unlimited) bounds the monotone continuation: once the
  // partition reaches `color_cap` colors the step stops even if the error
  // has not yet recovered. At least one split is always performed. Ignores
  // options.max_colors; the caller owns that stopping rule.
  bool Step(ColorId color_cap = 0) override;

  // Runs Step() until convergence or options.max_colors colors.
  void Run();

  const Partition& partition() const override;

  // Maximum unweighted q-error of the current coloring, both directions.
  double CurrentMaxError() const override;

  const std::vector<RothkoStep>& history() const;

  // Approximate heap footprint of the live refiner (degree rows, pair
  // aggregates, witness heaps, scratch, history), in bytes. Capacities are
  // counted where accessible, element counts where not (the heaps), so the
  // number is a close lower bound on the allocator's view. Used by the
  // byte-budgeted ColoringCache to decide eviction.
  int64_t MemoryBytes() const override;

  // Arena accounting of the degree rows, both directions summed.
  FlatRowStats DegreeRowStats() const;

  // Rebinds to the edited graph `g` and patches the state the edited arcs
  // touch (backend.h contract item 5), in four steps:
  //   1. the refiner's GraphView becomes `g`;
  //   2. for each arc (u, v) the entries out_deg[u][color(v)] and, on
  //      directed graphs, in_deg[v][color(u)] (undirected:
  //      out_deg[v][color(u)]) are recomputed from g's adjacency, summed
  //      in adjacency order exactly as a fresh build sums them;
  //   3. each pair aggregate holding a changed entry is updated from the
  //      members' (old, new) values, rescanning its members only when an
  //      extreme lost its last holder and no new value reached it;
  //   4. fresh witness entries are pushed. Both witness heaps are rebuilt
  //      from the live aggregates when stale entries outnumber live ones,
  //      and on every patch under a size-weighted witness rule (alpha or
  //      beta nonzero), whose priorities a fresh build prices with the
  //      current color sizes.
  // Cost: the adjacency of the edited endpoints plus the touched pairs
  // (and the aggregate count when the heaps are rebuilt). A degree-row
  // arena that splits left above 5/4 of its live entries is first
  // repacked, as a fresh build would lay it out. Always returns true.
  bool PatchGraph(const GraphView& g,
                  const std::vector<EditedArc>& arcs) override;

  const RothkoPatchStats& last_patch() const;

  const RothkoSplitStats& split_stats() const;

  // Test-only self-check of the lazy pair aggregates. While on, every
  // split checks each live aggregate against a scan of its members (same
  // count; a held extreme equal to the scan's, with as many holders; a
  // loose extreme strictly beyond it) and that no pair whose entries all
  // came from the split's new values is left loose; the first violation
  // is kept in audit_failure() (empty while none). Costs a pass over
  // every degree row per split.
  void set_audit(bool on);
  const std::string& audit_failure() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Convenience wrappers: refine from `initial` (or the trivial partition)
// until max_colors / q_tolerance.
Partition RothkoColoring(const GraphView& g, Partition initial,
                         const RothkoOptions& options);
Partition RothkoColoring(const GraphView& g, const RothkoOptions& options);

}  // namespace qsc

#endif  // QSC_COLORING_ROTHKO_H_
