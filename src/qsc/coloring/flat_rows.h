// Cache-friendly sparse-row containers for the Rothko hot path.
//
// The refiner keeps, per node, the aggregated edge weight toward every
// color ("degree rows"), and per color pair a max/min aggregate. Profiling
// the refinement scenarios (docs/BENCHMARKING.md) showed the former
// dominating, first as one hash map per node and then, on the directed
// serving graph, as one heap-allocated vector per node. This header
// provides the flat replacements:
//
//  - FlatWeightRows: every row of one direction lives in a single arena —
//    parallel keys[]/weights[] arrays — as a slot found through a per-node
//    header (offset, size, capacity). A row's keys are sorted, so lookups
//    binary-search the keys alone; a row that outgrows its slot moves to
//    the arena's tail, and the abandoned slots are compacted in place once
//    they exceed the live entries. There is no per-row allocation.
//  - EpochScratch<T>: a dense ColorId-indexed accumulator reused across
//    splits without clearing — a slot is "absent" unless its stamp equals
//    the current epoch. NewEpoch() is O(1), so per-split scratch work is
//    proportional to the keys actually touched, and the backing storage is
//    allocated once per capacity growth instead of once per split.
//
// Numeric behavior is bit-identical to the map-based code by construction:
// every key accumulates its weights in the same arithmetic order and the
// same zero tolerance drops residue entries (see rothko.cc; equivalence is
// enforced by coloring_rothko_equivalence_test.cc).

#ifndef QSC_COLORING_FLAT_ROWS_H_
#define QSC_COLORING_FLAT_ROWS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "qsc/coloring/partition.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/parallel_for.h"
#include "qsc/util/check.h"

#if defined(__GNUC__) || defined(__clang__)
#define QSC_PREFETCH(addr) __builtin_prefetch(addr)
#else
#define QSC_PREFETCH(addr) ((void)(addr))
#endif

namespace qsc {

// Aggregated weights below this magnitude are treated as "no edge"; it
// absorbs floating-point residue from incremental subtraction.
constexpr double kZeroWeightTolerance = 1e-12;

// One (color, weight) entry of a sparse degree row.
struct RowEntry {
  ColorId key;
  double weight;
};

// Arena accounting of one FlatWeightRows, for tests and memory reports.
struct FlatRowStats {
  int64_t live = 0;             // entries in rows
  int64_t dead = 0;             // arena entries in abandoned slots
  int64_t used = 0;             // arena entries handed out: slots + dead
  int64_t arena_capacity = 0;   // arena entries allocated
  int64_t header_capacity = 0;  // row headers allocated
  int64_t relocations = 0;      // rows moved to the tail since Reset/Build
  int64_t compactions = 0;      // in-place compactions since Reset/Build
};

// Per-node sparse weight rows, each sorted by key, in one arena.
class FlatWeightRows {
 public:
  // Read-only view of one row. Valid until the next mutation of the rows
  // (Add, Subtract, Move, Assign, Repack, Build, Reset): a mutation may
  // move any row.
  class RowView {
   public:
    size_t size() const { return static_cast<size_t>(size_); }
    bool empty() const { return size_ == 0; }
    ColorId key(size_t i) const { return keys_[i]; }
    double weight(size_t i) const { return weights_[i]; }
    RowEntry operator[](size_t i) const { return {keys_[i], weights_[i]}; }

    // Pointer to the weight for `key`; nullptr when absent.
    const double* Find(ColorId key) const {
      const ColorId* it = std::lower_bound(keys_, keys_ + size_, key);
      if (it == keys_ + size_ || *it != key) return nullptr;
      return weights_ + (it - keys_);
    }

   private:
    friend class FlatWeightRows;
    RowView(const ColorId* keys, const double* weights, int32_t size)
        : keys_(keys), weights_(weights), size_(size) {}

    const ColorId* keys_;
    const double* weights_;
    int32_t size_;
  };

  // One key's sum, replayed contribution by contribution in emission order
  // under the zero tolerance: exactly what Build keeps for that key (the
  // first sub-tolerance weight is skipped, and a sum that falls inside the
  // tolerance is absent until the next contribution restarts it).
  class KeySum {
   public:
    void Add(double w) {
      if (present_) {
        present_ = Accumulate(&sum_, w);
      } else if (!Dropped(w)) {
        sum_ = w;
        present_ = true;
      }
    }
    bool present() const { return present_; }
    double sum() const { return sum_; }

   private:
    bool present_ = false;
    double sum_ = 0.0;
  };

  // Bytes per row header and per arena entry (MemoryBytes' units).
  static constexpr int64_t kHeaderBytes = 12;
  static constexpr int64_t kEntryBytes = sizeof(ColorId) + sizeof(double);

  // num_rows empty rows (no arena storage).
  void Reset(NodeId num_rows) {
    slots_.assign(static_cast<size_t>(num_rows), Slot{});
    keys_.clear();
    weights_.clear();
    stats_ = FlatRowStats{};
  }

  // Rebuilds num_rows rows at exact size. `gather(v, emit)` calls
  // emit(key, weight) for row v's contributions; per key the result equals
  // Add()ing them in emission order onto an empty row, tolerance drops
  // included. Rows build independently (a count pass, a prefix sum, then a
  // fill pass), so both passes fan out over `pool`; `gather` must be safe
  // to call concurrently for distinct rows and must emit the same sequence
  // in both passes.
  template <typename Gather>
  void Build(NodeId num_rows, ThreadPool* pool, const Gather& gather) {
    Reset(num_rows);
    const int64_t n = num_rows;
    const int64_t num_blocks = (n + kBuildBlock - 1) / kBuildBlock;
    // Pass 1: each row's final size, written to its own header.
    ParallelFor(pool, num_blocks, 1, [&](int64_t b) {
      std::vector<Pending> pending;
      const int64_t end = std::min(n, (b + 1) * kBuildBlock);
      for (int64_t v = b * kBuildBlock; v < end; ++v) {
        slots_[v].size = ReplayRow(static_cast<NodeId>(v), gather, &pending,
                                   nullptr, nullptr);
      }
    });
    int64_t offset = 0;
    for (Slot& s : slots_) {
      s.offset = static_cast<uint32_t>(offset);
      s.capacity = s.size;
      offset += s.size;
    }
    QSC_CHECK_LE(offset, int64_t{std::numeric_limits<uint32_t>::max()});
    keys_.resize(static_cast<size_t>(offset));
    weights_.resize(static_cast<size_t>(offset));
    stats_.live = offset;
    // Pass 2: fill each row's exact slot.
    ParallelFor(pool, num_blocks, 1, [&](int64_t b) {
      std::vector<Pending> pending;
      const int64_t end = std::min(n, (b + 1) * kBuildBlock);
      for (int64_t v = b * kBuildBlock; v < end; ++v) {
        const Slot& s = slots_[v];
        const int32_t size =
            ReplayRow(static_cast<NodeId>(v), gather, &pending,
                      keys_.data() + s.offset, weights_.data() + s.offset);
        QSC_CHECK_EQ(size, s.size);  // gather emitted a different sequence
      }
    });
  }

  bool empty() const { return slots_.empty(); }

  RowView RowOf(NodeId v) const {
    QSC_DCHECK(v >= 0 && static_cast<size_t>(v) < slots_.size());
    const Slot& s = slots_[v];
    return RowView(keys_.data() + s.offset, weights_.data() + s.offset,
                   s.size);
  }

  // Pointer to the weight for `key` in row `v` (valid until the next
  // mutation); nullptr when absent.
  const double* Find(NodeId v, ColorId key) const {
    return RowOf(v).Find(key);
  }

  // Weight for `key` in row `v`, 0.0 when absent (the sparse convention).
  double WeightOrZero(NodeId v, ColorId key) const {
    const double* w = Find(v, key);
    return w == nullptr ? 0.0 : *w;
  }

  // Cache hints for a coming access of row v: its header, or (reading
  // the header) its entries. No effect on any value.
  void PrefetchHeader(NodeId v) const { QSC_PREFETCH(&slots_[v]); }
  void PrefetchRow(NodeId v) const {
    const Slot& s = slots_[v];
    QSC_PREFETCH(keys_.data() + s.offset);
    QSC_PREFETCH(weights_.data() + s.offset);
  }

  // Accumulates `w` onto the entry (inserting it when absent) and drops the
  // entry if the result lies within the zero tolerance.
  void Add(NodeId v, ColorId key, double w) {
    const Slot& s = slots_[v];
    const ColorId* keys = keys_.data() + s.offset;
    const int32_t i =
        static_cast<int32_t>(std::lower_bound(keys, keys + s.size, key) - keys);
    if (i < s.size && keys[i] == key) {
      double& sum = weights_[s.offset + i];
      if (!Accumulate(&sum, w)) EraseAt(v, i);
      return;
    }
    if (Dropped(w)) return;  // would erase at once
    InsertAt(v, i, key, w);
  }

  // Sets row v's entry for `key` to `sum`: overwritten, inserted, or
  // erased when the sum is absent. The edit patch of rothko.cc writes a
  // recomputed key through this.
  void Assign(NodeId v, ColorId key, const KeySum& sum) {
    const Slot& s = slots_[v];
    const ColorId* keys = keys_.data() + s.offset;
    const int32_t i =
        static_cast<int32_t>(std::lower_bound(keys, keys + s.size, key) - keys);
    const bool has = i < s.size && keys[i] == key;
    if (!sum.present()) {
      if (has) EraseAt(v, i);
    } else if (has) {
      weights_[s.offset + i] = sum.sum();
    } else {
      InsertAt(v, i, key, sum.sum());
    }
  }

  // Subtracts `w`, treating an absent entry as an implicit 0. Absence is
  // legitimate even mid-update: positive and negative arc weights toward
  // `key` can cancel within the zero tolerance and drop the entry, after
  // which a neighbor move must re-materialize it with the remainder (the
  // map-based predecessor dereferenced end() here — silent UB in release
  // builds). Exactly Add with the sign flipped, so the tolerance policy
  // lives in one place.
  void Subtract(NodeId v, ColorId key, double w) { Add(v, key, -w); }

  // One entry of a row around a mutation: whether it was present before
  // (`had`) and after (`has`), and its weight then (0.0 when absent).
  struct EntryChange {
    bool had = false;
    bool has = false;
    double before = 0.0;
    double after = 0.0;
  };
  // What a Move did to the row's `from` and `to` entries.
  struct MoveResult {
    EntryChange from;
    EntryChange to;
  };

  // Moves weight `w` of row `v` from key `from` to key `to`: bit for bit
  // Subtract(v, from, w) then Add(v, to, w), tolerance drops included.
  // `to` must be at least every key of the row (the refiner's newest
  // color), so its entry can only be the row's tail: one header read, one
  // binary search for `from`, and an O(1) tail check for `to`. Both sums
  // are evaluated before the row's layout changes (they touch distinct
  // entries, so the order of the two steps does not matter to them), and
  // the row relocates only when its final size outgrows its slot. Returns
  // both entries before and after the move (what Find reports then), from
  // which the refiner updates its pair aggregates.
  MoveResult Move(NodeId v, ColorId from, ColorId to, double w) {
    QSC_DCHECK(from < to);
    const Slot& s = slots_[v];
    const int32_t size = s.size;
    const ColorId* keys = keys_.data() + s.offset;
    const double* weights = weights_.data() + s.offset;
    QSC_DCHECK(size == 0 || keys[size - 1] <= to);
    const bool has_to = size > 0 && keys[size - 1] == to;
    const int32_t below_to = size - (has_to ? 1 : 0);
    const int32_t i = static_cast<int32_t>(
        std::lower_bound(keys, keys + below_to, from) - keys);
    const bool has_from = i < below_to && keys[i] == from;
    // Add(v, from, -w) and Add(v, to, w); |-w| == |w|.
    double from_w = -w;
    double to_w = w;
    bool keep_from = !Dropped(w);
    bool keep_to = keep_from;
    if (has_from) {
      from_w = weights[i] + -w;
      keep_from = !Dropped(from_w);
    }
    if (has_to) {
      to_w = weights[size - 1] + w;
      keep_to = !Dropped(to_w);
    }
    MoveResult result;
    result.from = {has_from, keep_from, has_from ? weights[i] : 0.0,
                   keep_from ? from_w : 0.0};
    result.to = {has_to, keep_to, has_to ? weights[size - 1] : 0.0,
                 keep_to ? to_w : 0.0};
    const int32_t new_below =
        below_to + (keep_from ? 1 : 0) - (has_from ? 1 : 0);
    const int32_t new_size = new_below + (keep_to ? 1 : 0);
    if (new_size > s.capacity) Relocate(v, new_size);
    ColorId* k = keys_.data() + slots_[v].offset;
    double* wt = weights_.data() + slots_[v].offset;
    if (has_from && keep_from) {
      wt[i] = from_w;
    } else if (has_from) {
      std::memmove(k + i, k + i + 1, sizeof(ColorId) * (below_to - i - 1));
      std::memmove(wt + i, wt + i + 1, sizeof(double) * (below_to - i - 1));
    } else if (keep_from) {
      std::memmove(k + i + 1, k + i, sizeof(ColorId) * (below_to - i));
      std::memmove(wt + i + 1, wt + i, sizeof(double) * (below_to - i));
      k[i] = from;
      wt[i] = from_w;
    }
    if (keep_to) {
      k[new_below] = to;
      wt[new_below] = to_w;
    }
    stats_.live += new_size - size;
    slots_[v].size = new_size;
    return result;
  }

  // Repacks every row into a fresh arena in row order, as Build lays
  // them out (each slot's capacity becomes its size, abandoned slots are
  // dropped), with room for 1/64 of the live entries to grow into before
  // a relocation grows the arena again. O(rows + live entries).
  void Repack() {
    const int64_t live = stats_.live;
    std::vector<ColorId> keys;
    std::vector<double> weights;
    keys.reserve(static_cast<size_t>(live + live / 64));
    weights.reserve(static_cast<size_t>(live + live / 64));
    keys.resize(static_cast<size_t>(live));
    weights.resize(static_cast<size_t>(live));
    uint32_t offset = 0;
    for (Slot& s : slots_) {
      if (s.size > 0) {
        std::memcpy(keys.data() + offset, keys_.data() + s.offset,
                    sizeof(ColorId) * s.size);
        std::memcpy(weights.data() + offset, weights_.data() + s.offset,
                    sizeof(double) * s.size);
      }
      s.offset = offset;
      s.capacity = s.size;
      offset += static_cast<uint32_t>(s.size);
    }
    keys_.swap(keys);
    weights_.swap(weights);
    stats_.dead = 0;
  }

  // Heap footprint (header and arena capacities) for the byte-budgeted
  // cache. O(1).
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity()) * kHeaderBytes +
           static_cast<int64_t>(keys_.capacity()) * kEntryBytes;
  }

  FlatRowStats stats() const {
    FlatRowStats s = stats_;
    s.used = static_cast<int64_t>(keys_.size());
    s.arena_capacity = static_cast<int64_t>(keys_.capacity());
    s.header_capacity = static_cast<int64_t>(slots_.capacity());
    return s;
  }

  // Entries row v can hold before it relocates.
  int64_t SlotCapacity(NodeId v) const { return slots_[v].capacity; }

 private:
  struct Slot {
    uint32_t offset = 0;
    int32_t size = 0;
    int32_t capacity = 0;
  };
  static_assert(sizeof(Slot) == kHeaderBytes, "header size");

  // One emitted contribution while a row is built; `seq` keeps the
  // emission order among equal keys.
  struct Pending {
    ColorId key;
    int32_t seq;
    double weight;
  };

  static constexpr int64_t kBuildBlock = 1024;
  static constexpr NodeId kCompactLead = 16;
  // Marks the first key of an abandoned slot; its weight holds the slot's
  // capacity so compaction can step over it.
  static constexpr ColorId kDeadKey = std::numeric_limits<ColorId>::min();

  static bool Dropped(double w) { return std::abs(w) < kZeroWeightTolerance; }

  // One Add step onto a present entry; false when the sum falls inside
  // the zero tolerance (the entry becomes absent).
  static bool Accumulate(double* sum, double w) {
    *sum += w;
    return !Dropped(*sum);
  }

  // Replays row v's contributions key by key in emission order and
  // returns the number of surviving entries, writing them (sorted) to
  // `keys`/`weights` when those are non-null.
  template <typename Gather>
  static int32_t ReplayRow(NodeId v, const Gather& gather,
                           std::vector<Pending>* pending, ColorId* keys,
                           double* weights) {
    pending->clear();
    gather(v, [pending](ColorId key, double w) {
      pending->push_back(
          {key, static_cast<int32_t>(pending->size()), w});
    });
    const auto by_key_then_seq = [](const Pending& a, const Pending& b) {
      return a.key != b.key ? a.key < b.key : a.seq < b.seq;
    };
    if (!std::is_sorted(pending->begin(), pending->end(), by_key_then_seq)) {
      std::sort(pending->begin(), pending->end(), by_key_then_seq);
    }
    int32_t size = 0;
    for (size_t i = 0; i < pending->size();) {
      const ColorId key = (*pending)[i].key;
      KeySum sum;
      for (; i < pending->size() && (*pending)[i].key == key; ++i) {
        sum.Add((*pending)[i].weight);
      }
      if (!sum.present()) continue;
      if (keys != nullptr) {
        keys[size] = key;
        weights[size] = sum.sum();
      }
      ++size;
    }
    return size;
  }

  void EraseAt(NodeId v, int32_t i) {
    Slot& s = slots_[v];
    ColorId* k = keys_.data() + s.offset;
    double* wt = weights_.data() + s.offset;
    std::memmove(k + i, k + i + 1, sizeof(ColorId) * (s.size - i - 1));
    std::memmove(wt + i, wt + i + 1, sizeof(double) * (s.size - i - 1));
    --s.size;
    --stats_.live;
  }

  void InsertAt(NodeId v, int32_t i, ColorId key, double w) {
    if (slots_[v].size == slots_[v].capacity) {
      Relocate(v, slots_[v].size + 1);
    }
    Slot& s = slots_[v];
    ColorId* k = keys_.data() + s.offset;
    double* wt = weights_.data() + s.offset;
    std::memmove(k + i + 1, k + i, sizeof(ColorId) * (s.size - i));
    std::memmove(wt + i + 1, wt + i, sizeof(double) * (s.size - i));
    k[i] = key;
    wt[i] = w;
    ++s.size;
    ++stats_.live;
  }

  // Moves row v to a fresh slot at the arena's tail, with room for `need`
  // entries and at least twice its old capacity, and abandons the old
  // slot. A full arena is compacted when its dead space is at least half
  // the live entries (any arena, once the dead space exceeds them);
  // otherwise it grows by a quarter of the live entries. Both thresholds
  // scale with the live size, so each doubling of the live entries costs
  // a bounded number of compactions and growths (on the directed BA-100k
  // refined to 32-128 colors: 4 compactions per run, and an arena of
  // 1.55-1.8x the live entries).
  void Relocate(NodeId v, int32_t need) {
    const int64_t live = stats_.live;
    const int64_t dead = stats_.dead;
    const int32_t capacity = std::max(need, 2 * slots_[v].capacity);
    const bool full = static_cast<int64_t>(keys_.size()) + capacity >
                      static_cast<int64_t>(keys_.capacity());
    if (dead > live || (full && 2 * dead >= live)) Compact();
    Slot& s = slots_[v];
    const int64_t offset = static_cast<int64_t>(keys_.size());
    const int64_t end = offset + capacity;
    if (end > static_cast<int64_t>(keys_.capacity())) {
      const int64_t grown = std::max(end, offset + live / 4);
      QSC_CHECK_LE(grown, int64_t{std::numeric_limits<uint32_t>::max()});
      keys_.reserve(static_cast<size_t>(grown));
      weights_.reserve(static_cast<size_t>(grown));
    }
    keys_.resize(static_cast<size_t>(end));
    weights_.resize(static_cast<size_t>(end));
    std::memcpy(keys_.data() + offset, keys_.data() + s.offset,
                sizeof(ColorId) * s.size);
    std::memcpy(weights_.data() + offset, weights_.data() + s.offset,
                sizeof(double) * s.size);
    if (s.capacity > 0) {
      keys_[s.offset] = kDeadKey;
      weights_[s.offset] = static_cast<double>(s.capacity);
      stats_.dead += s.capacity;
    }
    s.offset = static_cast<uint32_t>(offset);
    s.capacity = capacity;
    ++stats_.relocations;
  }

  // Slides every live slot down over the abandoned ones, in arena order,
  // keeping each slot's capacity. In place: a live slot's first
  // key is parked in its header and replaced by the owner's id (encoded
  // negative, distinct from kDeadKey), so one walk of the arena finds
  // every slot's owner.
  void Compact() {
    const NodeId n = static_cast<NodeId>(slots_.size());
    for (NodeId v = 0; v < n; ++v) {
      if (v + kCompactLead < n) PrefetchRow(v + kCompactLead);
      Slot& s = slots_[v];
      if (s.capacity == 0) continue;
      const ColorId first = keys_[s.offset];
      keys_[s.offset] = -(v + 1);
      s.offset = static_cast<uint32_t>(first);
    }
    const int64_t used = static_cast<int64_t>(keys_.size());
    int64_t write = 0;
    for (int64_t pos = 0; pos < used;) {
      const ColorId marker = keys_[pos];
      if (marker == kDeadKey) {
        pos += static_cast<int64_t>(weights_[pos]);
        continue;
      }
      QSC_DCHECK(marker < 0);
      Slot& s = slots_[-marker - 1];
      const ColorId first = static_cast<ColorId>(s.offset);
      for (int32_t i = 0; i < s.size; ++i) {
        keys_[write + i] = keys_[pos + i];
        weights_[write + i] = weights_[pos + i];
      }
      keys_[write] = first;
      pos += s.capacity;
      s.offset = static_cast<uint32_t>(write);
      write += s.capacity;
    }
    keys_.resize(static_cast<size_t>(write));
    weights_.resize(static_cast<size_t>(write));
    stats_.dead = 0;
    ++stats_.compactions;
  }

  std::vector<Slot> slots_;
  std::vector<ColorId> keys_;
  std::vector<double> weights_;
  FlatRowStats stats_;
};

// Dense ColorId-indexed scratch map with O(1) reuse. Values persist only
// within one epoch; Slot() reports through `fresh` whether the slot is
// first touched this epoch (its value then is a default-constructed T).
// touched() lists this epoch's keys in first-touch order.
template <typename T>
class EpochScratch {
 public:
  // Ensures keys in [0, num_keys) are addressable.
  void Grow(ColorId num_keys) {
    if (static_cast<size_t>(num_keys) > slots_.size()) {
      slots_.resize(num_keys);
      stamps_.resize(num_keys, 0);
    }
  }

  void NewEpoch() {
    ++epoch_;
    touched_.clear();
  }

  T& Slot(ColorId key, bool* fresh) {
    QSC_DCHECK(key >= 0 && static_cast<size_t>(key) < slots_.size());
    if (stamps_[key] != epoch_) {
      stamps_[key] = epoch_;
      slots_[key] = T{};
      touched_.push_back(key);
      *fresh = true;
    } else {
      *fresh = false;
    }
    return slots_[key];
  }

  // Marks `key` as touched (default value on first touch).
  void Touch(ColorId key) {
    bool fresh;
    Slot(key, &fresh);
  }

  bool Contains(ColorId key) const {
    return key >= 0 && static_cast<size_t>(key) < slots_.size() &&
           stamps_[key] == epoch_;
  }

  const T& At(ColorId key) const {
    QSC_DCHECK(Contains(key));
    return slots_[key];
  }
  T& At(ColorId key) {
    QSC_DCHECK(Contains(key));
    return slots_[key];
  }

  const std::vector<ColorId>& touched() const { return touched_; }

  // Heap footprint (backing-store capacities) for the byte-budgeted cache.
  int64_t MemoryBytes() const {
    return static_cast<int64_t>(slots_.capacity() * sizeof(T) +
                                stamps_.capacity() * sizeof(uint64_t) +
                                touched_.capacity() * sizeof(ColorId));
  }

 private:
  std::vector<T> slots_;
  std::vector<uint64_t> stamps_;
  std::vector<ColorId> touched_;
  // Starts above the zero-initialized stamps so no slot is "current"
  // before its first touch, even before the first NewEpoch().
  uint64_t epoch_ = 1;
};

}  // namespace qsc

#endif  // QSC_COLORING_FLAT_ROWS_H_
