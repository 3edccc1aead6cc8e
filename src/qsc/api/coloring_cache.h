// The session-level coloring cache behind qsc::Compressor (paper Sec 5.2:
// Rothko as an anytime co-routine, amortized across queries).
//
// A cache entry is keyed by a ColoringSpec — everything that determines
// the Rothko split sequence except the color budget — and holds a *live*
// RothkoRefiner. Because each witness split is a deterministic function of
// the current partition only, a request for a larger budget continues the
// cached refinement and yields a partition bit-identical to a fresh run at
// that budget (tests/api_cache_resume_test.cc proves this over the shared
// 56-graph corpus). Partitions are handed out as shared snapshots, so
// serving a query never copies the coloring; repeated requests at one
// budget share one snapshot.
//
// Budgets below the cached refiner's current color count cannot be rolled
// back (splits are not invertible), so such requests recompute from
// scratch once and memoize the result per budget ("recoloring" in the
// stats). Sessions that sweep budgets in ascending order — the anytime
// direction, and what NormalizeBudgets produces — never pay this.
//
// Thread-safety: Refine() may be called concurrently from any number of
// threads. The spec map is guarded by a shared_mutex and each entry owns
// a mutex that serializes refinement of that spec, so queries against
// distinct specs refine concurrently while queries against one spec
// queue. The partition served for (spec, budget) is bit-identical no
// matter how calls interleave — an up-budget continuation equals a fresh
// run and a down-budget recompute starts from scratch — so only the
// *stats attribution* (hit vs recoloring for racing down-budget queries)
// depends on arrival order; totals still satisfy
// hits + misses + recolorings == lookups.
//
// The graph is one GraphStore (graph/graph_store.h), owned or mapped;
// every graph-spec refiner runs over its view and holds a copy of the
// store.
//
// An LP spec (ColoringSpec::lp; paper Sec 4.1) colors its LP's matrix
// graph instead, which its entry builds and owns. LP entries share
// everything above with graph entries but their stats row; edits leave
// them alone.
//
// Derived artifacts: everything a query computes from a served coloring
// and nothing else — a reduced graph, a pivot-score vector, a reduced LP —
// is a pure function of that snapshot. Refine() therefore takes an
// optional (key, builder) pair and memoizes the builder's type-erased
// result on the snapshot it serves, so each (snapshot, key) is built at
// most once and a warm query pays only for its answer. Artifacts live and
// die with their snapshot (a new head, eviction, ApplyGraph's reset), so
// none outlives the graph it was built from. The cache never looks inside
// one; qsc::Compressor supplies the builders.
//
// Byte budget (ColoringCacheOptions): a long-lived server cannot let the
// entry map grow without bound, so the cache tracks the footprint of every
// entry (live refiner + distinct served snapshots and their artifacts)
// and, when a budget is configured, evicts least-recently-used idle
// entries after each request until the total is back within the budget. Eviction never changes a
// result: a re-queried evicted spec recomputes from scratch — a miss in
// the stats — and the anytime determinism makes the recomputed partition
// bitwise equal to the evicted one (tests/api_cache_eviction_test.cc
// proves this over the shared 56-graph corpus). Entries pinned by
// in-flight requests are not evictable, so under concurrency the budget
// is enforced whenever no request is mid-flight.

#ifndef QSC_API_COLORING_CACHE_H_
#define QSC_API_COLORING_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/dynamic/incremental.h"
#include "qsc/graph/graph_store.h"
#include "qsc/lp/model.h"

namespace qsc {

class ThreadPool;

// Cache key: the parameters that determine the backend's split sequence
// from a given graph. The color budget is deliberately absent — one entry
// serves every budget via the anytime property.
struct ColoringSpec {
  // Witness weighting C_ij = |P_i|^alpha * |P_j|^beta (paper Sec 5.2).
  double alpha = 0.0;
  double beta = 0.0;

  // Refinement stops once the max q-error drops to this bound.
  double q_tolerance = 0.0;

  RothkoOptions::SplitMean split_mean = RothkoOptions::SplitMean::kArithmetic;

  // Canonical name of the compression backend (coloring/backend.h); ""
  // means kDefaultColoringBackend and compares/hashes identically to it,
  // so pre-registry specs keep their cache identity. The cache requires
  // the name be a CanonicalBackendName fixpoint of a registered backend;
  // qsc::Compressor validates and canonicalizes at the API boundary.
  std::string backend;

  // Nodes seeded into their own singleton colors: pinned[i] is labeled i
  // and every other node shares label pinned.size(); the labels are then
  // renumbered to dense color ids in first-appearance node order by
  // Partition::FromColorIds (so pin order affects the split sequence, but
  // a pin's color id must be looked up via ColorOf, not assumed to be i).
  // The max-flow terminal pinning of Theorem 6 is pinned = {s, t}.
  std::vector<NodeId> pinned;

  // Null: color the cache's graph, seeded by `pinned`. Otherwise color
  // this LP's matrix graph (lp/reduce.h), seeded by MatrixGraphSeed, with
  // `pinned` empty. Compared by content; may be a non-owning (aliasing)
  // pointer, since the cache copies the LP when it inserts the spec.
  std::shared_ptr<const LpProblem> lp;
  // FingerprintLp(*lp), the only part of the LP the hash mixes; ignored
  // while `lp` is null, so graph specs keep their hashes.
  uint64_t lp_fingerprint = 0;

  // Equality folds "" onto the default backend; defined in
  // coloring_cache.cc next to ColoringSpecHash so the two stay in sync.
  friend bool operator==(const ColoringSpec& a, const ColoringSpec& b);
  friend bool operator!=(const ColoringSpec& a, const ColoringSpec& b) {
    return !(a == b);
  }
};

struct ColoringSpecHash {
  size_t operator()(const ColoringSpec& spec) const;
};

// Content hash of an LP, one mixing step per 64-bit word; equal problems
// (-0.0 == 0.0) hash equally. Not collision-resistant: hits are confirmed
// by content.
uint64_t FingerprintLp(const LpProblem& lp);

// The initial partition a graph spec induces: each pinned node in its own
// singleton color, the rest in one shared color (color ids assigned in
// first-appearance node order — see ColoringSpec::pinned). Matches
// Partition::Trivial for an empty pin set and ApproximateMaxFlow's
// historical terminal pinning for {s, t}. An LP spec induces
// MatrixGraphSeed(*spec.lp) and ignores `num_nodes`.
Partition InitialPartition(const ColoringSpec& spec, NodeId num_nodes);

// Session-lifetime amortization counters.
//
// Graph-spec lookups feed the totals and per_backend, LP-spec lookups only
// the `lp` row; evictions, bytes_in_use and peak_bytes cover both.
//
// Reconciliation invariant: every lookup is attributed to exactly one of
// {hit, miss, recoloring}, so hits + misses + recolorings == lookups — in
// the totals AND within every per_backend row and the lp row. Which
// bucket a racing down-budget pair lands in is arrival-order-dependent
// (documented in the file comment), but the invariant holds under any
// interleaving: a miss is attributed once, when the lookup is counted,
// even if a racing request refined its entry first
// (tests/api_compressor_test.cc and the concurrency suite assert it).
struct CacheStats {
  // One backend's share of the traffic, keyed by canonical backend name
  // in per_backend (a "" spec is accounted under kDefaultColoringBackend).
  struct BackendStats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t recolorings = 0;
    int64_t refine_splits = 0;
    int64_t repairs = 0;    // entries repaired in place across edit batches
    int64_t fallbacks = 0;  // entries reset for from-scratch recoloring
  };

  int64_t lookups = 0;       // coloring requests served
  int64_t hits = 0;          // served from a cached refiner (possibly after
                             // continuing its refinement)
  int64_t misses = 0;        // new spec: refiner built and run from scratch
  int64_t recolorings = 0;   // down-budget recomputes within a cached spec
  int64_t refine_splits = 0; // total witness splits performed
  int64_t evictions = 0;     // entries evicted to satisfy the byte budget
  int64_t derived_builds = 0;  // derived artifacts built (graph and LP
                               // specs together)
  int64_t derived_hits = 0;    // requests served a memoized artifact
  int64_t bytes_in_use = 0;  // tracked footprint of all current entries
  int64_t peak_bytes = 0;    // high-water mark of bytes_in_use

  // Dynamic-graph telemetry (ApplyGraph; docs/DYNAMIC.md). Every live
  // entry of an edit batch is attributed to exactly one of
  // {repair, fallback}, so repairs + fallbacks counts entry-batch pairs.
  int64_t edit_batches = 0;   // ApplyGraph calls
  int64_t edits_applied = 0;  // single-edge edits across all batches
  int64_t repairs = 0;        // entries repaired in place
  int64_t fallbacks = 0;      // entries reset for from-scratch recoloring
  int64_t repair_splits = 0;  // witness splits spent by successful repairs

  // Per-backend breakdown of the five attribution counters above; the
  // column sums over all rows equal the totals.
  std::map<std::string, BackendStats> per_backend;

  // LP-spec lookups, all backends together (repairs/fallbacks stay 0).
  BackendStats lp;
};

// Session-construction knobs for the cache.
struct ColoringCacheOptions {
  // Maximum total entry footprint in bytes; 0 = unlimited (never evict).
  // An entry's footprint is its live refiner (RothkoRefiner::MemoryBytes)
  // plus every distinct partition snapshot it serves and the derived
  // artifacts memoized on those snapshots (at the byte size their
  // builders report); an LP entry also counts its matrix graph and its
  // copy of the LP. When a request leaves the total above the budget,
  // least-recently-used idle entries are evicted — possibly including the
  // entry the request itself used — until the total is back within the
  // budget, so with no concurrent requests in flight, bytes_in_use <=
  // byte_budget after every Refine().
  // Eviction is invisible to results: a re-queried evicted spec
  // recomputes bit-identically (and counts as a miss).
  int64_t byte_budget = 0;
};

// Spec-keyed store of live anytime refiners over one graph (and LP matrix
// graphs). Safe for concurrent Refine() calls (see the file comment for
// the locking granularity and the determinism guarantee).
class ColoringCache {
 public:
  // Identifies one derived artifact of a snapshot. `kind` names the
  // artifact and `a`, `b` its parameters; the caller assigns all three.
  struct DerivedKey {
    int32_t kind = 0;
    uint64_t a = 0;
    uint64_t b = 0;

    friend bool operator==(const DerivedKey& x, const DerivedKey& y) {
      return x.kind == y.kind && x.a == y.a && x.b == y.b;
    }
  };

  // A built artifact: an immutable, type-erased value and the heap bytes
  // it holds (counted in the entry footprint).
  struct Derived {
    std::shared_ptr<const void> value;
    int64_t bytes = 0;
  };

  // The optional (key, builder) pair of a Refine() call. `build` receives
  // the served partition and must be a pure function of it and of the
  // key, so a memoized value and a rebuilt one are interchangeable. It
  // runs under the entry's lock.
  struct DerivedRequest {
    DerivedKey key;
    std::function<Derived(const Partition&)> build;
  };

  // One served coloring. `partition` is a shared immutable snapshot —
  // callers must not assume it tracks later refinement.
  struct Handle {
    std::shared_ptr<const Partition> partition;
    double max_error = 0.0;  // max unweighted q-error of `partition`
    bool cache_hit = false;  // an existing entry served this request
    int64_t splits = 0;      // witness splits this request performed
    double seconds = 0.0;    // wall-clock cost of the coloring (excludes
                             // derived_seconds)
    // The requested artifact of `partition` (null without a request) and
    // the time this request spent building it (0 when it was memoized).
    std::shared_ptr<const void> derived;
    double derived_seconds = 0.0;
  };

  // Graph specs run over `graph.view()` (owned or mapped; empty serves LP
  // specs only). `pool` (not owned, may be null) speeds up split scoring
  // without changing any partition (RothkoOptions::pool). `options`
  // configures the byte budget.
  explicit ColoringCache(GraphStore graph, ThreadPool* pool = nullptr,
                         const ColoringCacheOptions& options = {});
  ~ColoringCache();

  ColoringCache(const ColoringCache&) = delete;
  ColoringCache& operator=(const ColoringCache&) = delete;

  // Serves the spec's coloring refined to `budget` colors (or to
  // convergence, whichever comes first; budgets below the spec's initial
  // color count serve the initial partition, like RothkoRefiner::Run()).
  // Contract violations (unvalidated pins or LP, non-positive budget, an
  // unregistered or non-canonical spec.backend) abort; qsc::Compressor
  // validates at the API boundary. The result is bit-identical to a fresh
  // run of the spec's backend from InitialPartition(spec, n) stepped to
  // `budget` colors — over BuildMatrixGraph(*spec.lp) for an LP spec, and
  // for a graph spec of the default backend equal to
  //   RothkoColoring(graph, InitialPartition(spec, n),
  //                  {budget, spec.q_tolerance, spec.alpha, spec.beta,
  //                   spec.split_mean})
  // — regardless of which budgets were served before and of concurrent
  // callers (every backend honors the determinism contract of
  // coloring/backend.h).
  //
  // With a non-null `derived`, the handle also carries that artifact of
  // the served snapshot: memoized if this (snapshot, key) was built
  // before, otherwise built now — under the entry lock, so concurrent
  // requests for one spec build it once — and counted in the footprint
  // before the budget is enforced.
  Handle Refine(const ColoringSpec& spec, ColorId budget,
                const DerivedRequest* derived = nullptr);

  // Aggregate outcome of one ApplyGraph call.
  struct EditApplyStats {
    int64_t entries = 0;  // live entries visited (repairs + fallbacks)
    int64_t repairs = 0;
    int64_t fallbacks = 0;
    int64_t repair_splits = 0;
  };

  // Dynamic serving (docs/DYNAMIC.md): swaps in the already-mutated graph
  // (`edits` is the batch that produced it) and repairs every live graph
  // entry in place via IncrementalRecolorer::ApplyGraph — tolerance-bounded
  // specs are re-split locally under `options.max_repair_splits`,
  // everything else resets for a from-scratch recoloring that later
  // Refine() calls perform lazily and bit-identically to a fresh cache
  // over the new graph. Served snapshots of the old graph are dropped.
  // LP entries color their own matrix graphs and are left as they are.
  //
  // Takes the cache-wide unique lock for the whole call, so it serializes
  // against every Refine(); qsc::Compressor additionally guarantees no
  // query is mid-flight (its session lock), which keeps a query's
  // coloring and solve on one graph version.
  EditApplyStats ApplyGraph(GraphStore new_graph,
                            const std::vector<dynamic::EditOp>& edits,
                            const dynamic::RepairOptions& options);

  // Snapshot of the amortization counters (consistent under concurrency).
  CacheStats stats() const;
  int64_t num_entries() const;

 private:
  struct Entry;
  struct Snapshot;

  // Footprint accounting + unpin + budget enforcement after one Refine():
  // folds `new_bytes` into the total, releases the caller's pin, and
  // evicts LRU idle entries while the total exceeds the budget.
  void FinishUse(const std::shared_ptr<Entry>& entry, int64_t new_bytes);

  // The serving substrate: every refiner is built over graph_.view().
  // ApplyGraph swaps in the mutated graph; guarded by mutex_.
  GraphStore graph_;
  ThreadPool* pool_;
  ColoringCacheOptions options_;

  mutable std::shared_mutex mutex_;  // guards entries_ and the byte
                                     // accounting (total_bytes_,
                                     // peak_bytes_, Entry::bytes); each
                                     // Entry serializes itself
  std::unordered_map<ColoringSpec, std::shared_ptr<Entry>, ColoringSpecHash>
      entries_;
  int64_t total_bytes_ = 0;
  int64_t peak_bytes_ = 0;

  // LRU clock: each Refine() stamps its entry with the next tick.
  std::atomic<uint64_t> use_clock_{0};

  mutable std::mutex stats_mutex_;
  CacheStats stats_;
};

}  // namespace qsc

#endif  // QSC_API_COLORING_CACHE_H_
