#include "qsc/api/coloring_cache.h"

#include <algorithm>
#include <utility>

#include "qsc/api/hashing.h"
#include "qsc/lp/reduce.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

ColoringParams ToColoringParams(const ColoringSpec& spec, ThreadPool* pool) {
  ColoringParams params;
  // The color budget is owned by the Refine() loop, not the backend.
  params.q_tolerance = spec.q_tolerance;
  params.alpha = spec.alpha;
  params.beta = spec.beta;
  params.split_mean = spec.split_mean;
  params.pool = pool;  // speeds up internal scans; never changes a split
  return params;
}

// Builds the spec's live backend, wrapped in an IncrementalRecolorer so
// edit batches can repair it in place (ApplyGraph). While the graph is
// frozen the wrapper is pure delegation — bit-identical to the raw
// backend. Aborts on unregistered names (the Compressor boundary
// validates before a spec reaches the cache).
std::unique_ptr<dynamic::IncrementalRecolorer> MakeBackend(
    const GraphStore& graph, const ColoringSpec& spec, ThreadPool* pool) {
  return std::make_unique<dynamic::IncrementalRecolorer>(
      graph, api_internal::BackendOrDefault(spec.backend),
      InitialPartition(spec, graph.view().num_nodes()),
      ToColoringParams(spec, pool));
}

// Heap an LP entry owns besides its refiner and snapshots: the matrix
// graph and the map key's copy of the LP.
int64_t LpEntryBytes(const LpProblem& lp, const Graph& matrix) {
  return matrix.MemoryBytes() +
         static_cast<int64_t>(lp.entries.size() * sizeof(LpEntry) +
                              (lp.b.size() + lp.c.size()) * sizeof(double));
}

// Content equality of two specs' LPs (both null for graph specs). The
// fingerprints reject most unequal pairs before the full comparison.
bool SameLp(const ColoringSpec& a, const ColoringSpec& b) {
  if (a.lp == b.lp) return true;
  if (a.lp == nullptr || b.lp == nullptr) return false;
  if (a.lp_fingerprint != b.lp_fingerprint) return false;
  const LpProblem& x = *a.lp;
  const LpProblem& y = *b.lp;
  if (x.num_rows != y.num_rows || x.num_cols != y.num_cols ||
      x.entries.size() != y.entries.size() || x.b != y.b || x.c != y.c) {
    return false;
  }
  for (size_t i = 0; i < x.entries.size(); ++i) {
    if (x.entries[i].row != y.entries[i].row ||
        x.entries[i].col != y.entries[i].col ||
        x.entries[i].value != y.entries[i].value) {
      return false;
    }
  }
  return true;
}

uint64_t PackPair(int32_t hi, int32_t lo) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(hi)) << 32) |
         static_cast<uint32_t>(lo);
}

}  // namespace

bool operator==(const ColoringSpec& a, const ColoringSpec& b) {
  return a.alpha == b.alpha && a.beta == b.beta &&
         a.q_tolerance == b.q_tolerance && a.split_mean == b.split_mean &&
         api_internal::BackendOrDefault(a.backend) ==
             api_internal::BackendOrDefault(b.backend) &&
         a.pinned == b.pinned && SameLp(a, b);
}

size_t ColoringSpecHash::operator()(const ColoringSpec& spec) const {
  using api_internal::HashMixDouble;
  using api_internal::HashMixWord;
  uint64_t h = api_internal::kFnvOffsetBasis;
  h = HashMixDouble(h, spec.alpha);
  h = HashMixDouble(h, spec.beta);
  h = HashMixDouble(h, spec.q_tolerance);
  h = HashMixWord(h, static_cast<uint64_t>(spec.split_mean));
  // The default backend mixes nothing (HashMixBackendName), keeping
  // default-constructed specs' hashes bit-identical to pre-registry ones.
  h = api_internal::HashMixBackendName(h, spec.backend);
  for (const NodeId pin : spec.pinned) {
    h = HashMixWord(h, static_cast<uint64_t>(pin));
  }
  if (spec.lp != nullptr) h = HashMixWord(h, spec.lp_fingerprint);
  return static_cast<size_t>(h);
}

uint64_t FingerprintLp(const LpProblem& lp) {
  using api_internal::DoubleBits;
  using api_internal::HashMixWideWord;
  uint64_t h = api_internal::kFnvOffsetBasis;
  h = HashMixWideWord(h, PackPair(lp.num_rows, lp.num_cols));
  for (const LpEntry& e : lp.entries) {
    h = HashMixWideWord(h, PackPair(e.row, e.col));
    h = HashMixWideWord(h, DoubleBits(e.value));
  }
  for (const double v : lp.b) h = HashMixWideWord(h, DoubleBits(v));
  for (const double v : lp.c) h = HashMixWideWord(h, DoubleBits(v));
  return h;
}

Partition InitialPartition(const ColoringSpec& spec, NodeId num_nodes) {
  if (spec.lp != nullptr) return MatrixGraphSeed(*spec.lp);
  std::vector<int32_t> labels(num_nodes,
                              static_cast<int32_t>(spec.pinned.size()));
  for (size_t i = 0; i < spec.pinned.size(); ++i) {
    const NodeId pin = spec.pinned[i];
    QSC_CHECK(pin >= 0 && pin < num_nodes);
    labels[pin] = static_cast<int32_t>(i);
  }
  return Partition::FromColorIds(labels);
}

// One served coloring and what has been derived from it. Owned by its
// entry (head and/or served) and touched only under the entry mutex.
struct ColoringCache::Snapshot {
  std::shared_ptr<const Partition> partition;
  double max_error = 0.0;
  // Memoized artifacts of `partition`, one per key (few per snapshot, so
  // a linear scan).
  std::vector<std::pair<DerivedKey, Derived>> derived;

  int64_t DerivedBytes() const {
    int64_t total = 0;
    for (const auto& [key, artifact] : derived) {
      total += static_cast<int64_t>(sizeof(key) + sizeof(artifact)) +
               artifact.bytes;
    }
    return total;
  }
};

struct ColoringCache::Entry {
  // Serializes every read and write of the refinement fields below. Held
  // for the whole refinement of one request, so concurrent requests
  // against one spec queue behind each other while distinct specs proceed
  // in parallel.
  std::mutex mutex;

  // Built lazily under `mutex` on first use, so inserting the map slot
  // (under the cache-wide unique lock) stays O(1) and never blocks other
  // specs behind a graph scan. The wrapper holds the spec's backend and
  // gives ApplyGraph its repair verb.
  std::unique_ptr<dynamic::IncrementalRecolorer> refiner;
  // refiner->MemoryBytes(), refreshed whenever the refiner is built,
  // stepped or repaired; the walk over its degree rows is too slow to
  // repeat on every hit.
  int64_t refiner_bytes = 0;
  // An LP entry's matrix graph, built with its refiner; empty for a graph
  // spec, whose refiner runs over the cache's graph.
  GraphStore matrix_graph;
  // LpEntryBytes of an LP entry; 0 for a graph spec.
  int64_t lp_bytes = 0;

  // Colors of the spec's initial partition (pins + 1); no budget can go
  // below this, exactly as in RothkoRefiner::Run().
  ColorId initial_colors = 0;
  // Step() returned false: the coloring converged (q <= tolerance or no
  // splittable color); larger budgets cannot advance it.
  bool converged = false;
  // Snapshot of the refiner's current partition; reset on refinement.
  std::shared_ptr<Snapshot> head;
  // Snapshots previously served, keyed by requested budget. Serves
  // down-budget requests without rerunning (splits are not invertible).
  std::map<ColorId, std::shared_ptr<Snapshot>> served;

  // Pin count of in-flight Refine() calls. Increments happen under the
  // cache map lock (shared or unique) and the eviction scan runs under
  // the unique lock, so a scan that observes 0 cannot race a new pin;
  // only entries with active == 0 are evictable.
  std::atomic<int32_t> active{0};
  // LRU stamp from the cache-wide use clock, set at acquisition.
  std::atomic<uint64_t> last_used{0};
  // Footprint last folded into the cache total; guarded by the cache
  // map's unique lock.
  int64_t bytes = 0;

  // Snapshots the refiner's current partition as the new head. Reads the
  // error first: CurrentMaxError() may pop stale heap entries, which the
  // refiner's footprint counts, so the byte memo is taken after it.
  void NewHead() {
    head = std::make_shared<Snapshot>();
    head->partition = std::make_shared<const Partition>(refiner->partition());
    head->max_error = refiner->CurrentMaxError();
    refiner_bytes = refiner->MemoryBytes();
  }

  // Footprint of this entry: the live refiner, an LP entry's own data,
  // and every distinct served snapshot with its artifacts (down-budget
  // memoizations often alias the head or each other; each snapshot is
  // counted once). Caller holds `mutex`.
  int64_t MemoryBytes() const {
    QSC_DCHECK(refiner == nullptr || refiner_bytes == refiner->MemoryBytes());
    int64_t total = static_cast<int64_t>(sizeof(Entry)) + lp_bytes;
    if (refiner != nullptr) total += refiner_bytes;
    std::vector<const Snapshot*> counted;
    const auto count = [&](const std::shared_ptr<Snapshot>& s) {
      if (s == nullptr) return;
      if (std::find(counted.begin(), counted.end(), s.get()) !=
          counted.end()) {
        return;
      }
      counted.push_back(s.get());
      total += s->partition->MemoryBytes() + s->DerivedBytes();
    };
    count(head);
    for (const auto& [budget, snapshot] : served) {
      total += static_cast<int64_t>(sizeof(ColorId) + sizeof(snapshot));
      count(snapshot);
    }
    return total;
  }
};

ColoringCache::ColoringCache(GraphStore graph, ThreadPool* pool,
                             const ColoringCacheOptions& options)
    : graph_(std::move(graph)), pool_(pool), options_(options) {
  QSC_CHECK_GE(options_.byte_budget, 0);
}

ColoringCache::~ColoringCache() = default;

CacheStats ColoringCache::stats() const {
  CacheStats snapshot;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    snapshot = stats_;
  }
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    snapshot.bytes_in_use = total_bytes_;
    snapshot.peak_bytes = peak_bytes_;
  }
  return snapshot;
}

int64_t ColoringCache::num_entries() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return static_cast<int64_t>(entries_.size());
}

ColoringCache::Handle ColoringCache::Refine(const ColoringSpec& spec,
                                            ColorId budget,
                                            const DerivedRequest* derived) {
  QSC_CHECK_GT(budget, 0);
  WallTimer timer;
  Handle handle;
  // Canonical accounting key; also the registry key MakeBackend uses, so
  // a lookup and its backend row can never disagree.
  const std::string& backend_name =
      api_internal::BackendOrDefault(spec.backend);
  // Applies `count` to every stats row this lookup is attributed to: the
  // lp row for an LP spec, the totals and the backend's row otherwise.
  const auto attribute = [&](auto count) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (spec.lp != nullptr) {
      count(stats_.lp);
    } else {
      count(stats_);
      count(stats_.per_backend[backend_name]);
    }
  };

  // Find-or-insert the spec's entry: optimistic shared lock first, then
  // the unique lock only on the insert path (double-checked via
  // try_emplace, so two racing first queries create one entry and the
  // loser counts as a hit — the same totals a serialized pair produces).
  // The entry is pinned (active++) under the map lock, which keeps the
  // eviction scan — it runs under the unique lock and skips active
  // entries — from dropping an entry a request is about to refine.
  std::shared_ptr<Entry> entry;
  // The graph this request refines against, snapshotted under the map
  // lock (never under an entry mutex — ApplyGraph holds the map lock while
  // acquiring entry mutexes, so the reverse order would deadlock).
  GraphStore graph;
  bool found = true;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    graph = graph_;
    const auto it = entries_.find(spec);
    if (it != entries_.end()) {
      entry = it->second;
      entry->active.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (entry == nullptr) {
    // The map keeps its own copy of an LP spec's problem (the caller may
    // have lent it), made before the unique lock is taken.
    ColoringSpec key = spec;
    if (key.lp != nullptr) key.lp = std::make_shared<const LpProblem>(*key.lp);
    std::unique_lock<std::shared_mutex> lock(mutex_);
    graph = graph_;
    const auto [it, inserted] = entries_.try_emplace(std::move(key), nullptr);
    if (inserted) it->second = std::make_shared<Entry>();
    found = !inserted;
    entry = it->second;
    entry->active.fetch_add(1, std::memory_order_relaxed);
  }
  entry->last_used.store(
      1 + use_clock_.fetch_add(1, std::memory_order_relaxed),
      std::memory_order_relaxed);
  attribute([&](auto& row) {
    ++row.lookups;
    if (!found) ++row.misses;
  });

  int64_t entry_bytes = 0;
  {
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    if (spec.lp != nullptr) {
      // An LP spec colors its entry's own matrix graph, built on first use
      // under the entry mutex so that distinct LPs build concurrently.
      if (entry->matrix_graph.empty()) {
        entry->matrix_graph = GraphStore(
            std::make_shared<const Graph>(BuildMatrixGraph(*spec.lp)));
        entry->lp_bytes = LpEntryBytes(*spec.lp, entry->matrix_graph.graph());
      }
      graph = entry->matrix_graph;
    }
    if (entry->refiner == nullptr) {
      entry->refiner = MakeBackend(graph, spec, pool_);
      entry->initial_colors = entry->refiner->partition().num_colors();
    }

    // A budget below the initial color count cannot be met (pins are never
    // merged); Run() serves the initial partition there, and so do we —
    // without taking the down-budget recompute path.
    budget = std::max(budget, entry->initial_colors);

    // The snapshot this request serves.
    std::shared_ptr<Snapshot> snapshot;
    if (entry->refiner->partition().num_colors() > budget) {
      // Down-budget request on a refiner that has already split past
      // `budget`: serve the memoized snapshot, or recompute this budget
      // once. A miss landing here (a racing request refined its new
      // entry first) is already attributed.
      const auto served = entry->served.find(budget);
      if (served != entry->served.end()) {
        if (found) attribute([](auto& row) { ++row.hits; });
        handle.cache_hit = true;
        snapshot = served->second;
      } else {
        std::unique_ptr<dynamic::IncrementalRecolorer> fresh =
            MakeBackend(graph, spec, pool_);
        const ColorId initial = fresh->partition().num_colors();
        while (fresh->partition().num_colors() < budget &&
               fresh->Step(budget)) {
        }
        handle.splits = fresh->partition().num_colors() - initial;
        attribute([&](auto& row) {
          row.refine_splits += handle.splits;
          if (found) ++row.recolorings;
        });
        snapshot = std::make_shared<Snapshot>();
        snapshot->partition =
            std::make_shared<const Partition>(fresh->partition());
        snapshot->max_error = fresh->CurrentMaxError();
        entry->served[budget] = snapshot;
      }
    } else {
      // Continue the cached refinement — the same loop as
      // RothkoRefiner::Run(), so the result is bit-identical to a fresh
      // run at `budget`.
      handle.cache_hit = found;
      const ColorId before = entry->refiner->partition().num_colors();
      bool stepped = false;
      while (!entry->converged &&
             entry->refiner->partition().num_colors() < budget) {
        stepped = true;
        if (!entry->refiner->Step(budget)) {
          entry->converged = true;
        }
      }
      handle.splits = entry->refiner->partition().num_colors() - before;
      attribute([&](auto& row) {
        row.refine_splits += handle.splits;
        if (found) ++row.hits;
      });
      if (handle.splits > 0 || entry->head == nullptr) {
        entry->NewHead();
      } else if (stepped) {
        // A Step that found nothing to split may still have popped stale
        // heap entries.
        entry->refiner_bytes = entry->refiner->MemoryBytes();
      }
      snapshot = entry->head;
      entry->served[budget] = snapshot;
    }
    handle.partition = snapshot->partition;
    handle.max_error = snapshot->max_error;

    if (derived != nullptr) {
      const auto memo = std::find_if(
          snapshot->derived.begin(), snapshot->derived.end(),
          [&](const auto& artifact) { return artifact.first == derived->key; });
      const bool hit = memo != snapshot->derived.end();
      if (hit) {
        handle.derived = memo->second.value;
      } else {
        WallTimer build_timer;
        Derived artifact = derived->build(*snapshot->partition);
        QSC_CHECK(artifact.value != nullptr);
        QSC_CHECK_GE(artifact.bytes, 0);
        handle.derived = artifact.value;
        snapshot->derived.emplace_back(derived->key, std::move(artifact));
        handle.derived_seconds = build_timer.ElapsedSeconds();
      }
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++(hit ? stats_.derived_hits : stats_.derived_builds);
    }
    entry_bytes = entry->MemoryBytes();
  }

  FinishUse(entry, entry_bytes);
  handle.seconds = timer.ElapsedSeconds() - handle.derived_seconds;
  return handle;
}

ColoringCache::EditApplyStats ColoringCache::ApplyGraph(
    GraphStore new_graph, const std::vector<dynamic::EditOp>& edits,
    const dynamic::RepairOptions& options) {
  QSC_CHECK(!new_graph.empty());
  QSC_CHECK_EQ(new_graph.view().num_nodes(), graph_.view().num_nodes());
  EditApplyStats result;
  // (backend row, repaired?) per visited entry, applied to the stats
  // after the map lock drops.
  std::vector<std::pair<std::string, bool>> attributions;
  {
    // The unique map lock serializes against every Refine(); entry
    // mutexes are acquired inside it, which is safe because Refine never
    // waits on the map lock while holding an entry mutex.
    std::unique_lock<std::shared_mutex> lock(mutex_);
    graph_ = std::move(new_graph);
    for (auto& [spec, entry] : entries_) {
      if (spec.lp != nullptr) continue;  // colors its own matrix graph
      std::lock_guard<std::mutex> entry_lock(entry->mutex);
      if (entry->refiner == nullptr) {
        // Never refined: nothing to repair. The next Refine() builds it
        // over the new graph.
        continue;
      }
      const dynamic::RepairOutcome outcome =
          entry->refiner->ApplyGraph(graph_, edits, options);
      entry->converged = outcome.converged;
      // Snapshots of the old graph's colorings must not be served again.
      // Their artifacts go with them.
      entry->head = nullptr;
      entry->served.clear();
      entry->refiner_bytes = entry->refiner->MemoryBytes();
      ++result.entries;
      if (outcome.repaired) {
        ++result.repairs;
        result.repair_splits += outcome.splits;
      } else {
        ++result.fallbacks;
      }
      attributions.emplace_back(api_internal::BackendOrDefault(spec.backend),
                                outcome.repaired);
      const int64_t new_bytes = entry->MemoryBytes();
      total_bytes_ += new_bytes - entry->bytes;
      entry->bytes = new_bytes;
      if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.edit_batches;
    stats_.edits_applied += static_cast<int64_t>(edits.size());
    stats_.repairs += result.repairs;
    stats_.fallbacks += result.fallbacks;
    stats_.repair_splits += result.repair_splits;
    for (const auto& [backend_name, repaired] : attributions) {
      CacheStats::BackendStats& row = stats_.per_backend[backend_name];
      if (repaired) {
        ++row.repairs;
      } else {
        ++row.fallbacks;
      }
    }
  }
  return result;
}

void ColoringCache::FinishUse(const std::shared_ptr<Entry>& entry,
                              int64_t new_bytes) {
  int64_t evicted = 0;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    total_bytes_ += new_bytes - entry->bytes;
    entry->bytes = new_bytes;
    if (total_bytes_ > peak_bytes_) peak_bytes_ = total_bytes_;
    // Unpin before evicting so the budget can be enforced even when this
    // request's own entry is the only candidate (a single entry larger
    // than the budget must not park the cache above it).
    entry->active.fetch_sub(1, std::memory_order_relaxed);
    if (options_.byte_budget > 0) {
      while (total_bytes_ > options_.byte_budget) {
        auto victim = entries_.end();
        uint64_t oldest = 0;
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          const Entry& candidate = *it->second;
          if (candidate.active.load(std::memory_order_relaxed) != 0) continue;
          const uint64_t stamp =
              candidate.last_used.load(std::memory_order_relaxed);
          if (victim == entries_.end() || stamp < oldest) {
            victim = it;
            oldest = stamp;
          }
        }
        if (victim == entries_.end()) break;  // everything pinned
        total_bytes_ -= victim->second->bytes;
        entries_.erase(victim);
        ++evicted;
      }
    }
  }
  if (evicted > 0) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.evictions += evicted;
  }
}

}  // namespace qsc
