#include "qsc/coloring/rothko.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <queue>
#include <string>
#include <tuple>
#include <vector>

#include "qsc/coloring/flat_rows.h"
#include "qsc/parallel/parallel_for.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

// Members below these sizes are cheaper to scan inline than to dispatch;
// both thresholds only gate the dispatch, never the result (the parallel
// and sequential paths are bit-identical by construction).
constexpr int64_t kMinParallelMembers = 4096;
constexpr int64_t kMemberGrain = 2048;

// Row moves per prefetch chunk, and how many moves ahead a row's entries
// are prefetched (MoveEjectedRows).
constexpr size_t kMoveChunk = 256;
constexpr size_t kRowLead = 16;

}  // namespace

class RothkoRefiner::Impl {
 public:
  Impl(const GraphView& g, Partition initial, RothkoOptions options,
       SplitRule rule)
      : graph_(g),
        options_(options),
        split_rule_(rule),
        partition_(std::move(initial)),
        directed_(!g.undirected()) {
    QSC_CHECK_EQ(g.num_nodes(), partition_.num_nodes());
    BuildDegreeRows();
    touch_slot_.assign(static_cast<size_t>(g.num_nodes()), -1);
    out_agg_.resize(partition_.num_colors());
    if (directed_) in_agg_.resize(partition_.num_colors());
    GrowScratch();
    for (ColorId c = 0; c < partition_.num_colors(); ++c) {
      RebuildSourceAggregates(c);
      if (directed_) RebuildTargetInAggregates(c);
    }
  }

  bool Step(ColorId color_cap) {
    HeapEntry raw_top;
    if (!PeekValid(raw_heap_, &raw_top)) return false;
    if (raw_top.priority <= options_.q_tolerance) return false;

    // Monotone step (see header): split, then keep splitting while the max
    // q-error sits strictly above its pre-step value. Terminates because
    // refinement reaches a stable coloring (error 0) in at most n-1 splits.
    const double pre_step_error = raw_top.priority;
    for (;;) {
      HeapEntry witness;
      QSC_CHECK(PeekValid(weighted_heap_, &witness));
      ApplySplit(witness);
      if (color_cap > 0 && partition_.num_colors() >= color_cap) break;
      if (!PeekValid(raw_heap_, &raw_top)) break;
      if (raw_top.priority <= pre_step_error) break;
    }
    SettleRawTop();
    return true;
  }

  void Run() {
    while (partition_.num_colors() < options_.max_colors &&
           Step(options_.max_colors)) {
    }
    ReleaseTouchList();
  }

  // The touch list holds one entry per row a split touched; it is freed
  // at the end of each public Step() and Run(), so a cached refiner does
  // not keep it.
  void ReleaseTouchList() { std::vector<TouchedRow>().swap(touched_); }

  const Partition& partition() const { return partition_; }

  // Every public mutating call ends with SettleRawTop(), so the raw heap's
  // first current entry is exact and this only pops stale entries.
  double CurrentMaxError() const {
    while (!raw_heap_.empty()) {
      const PairAgg* agg = CurrentAgg(raw_heap_.top());
      if (agg != nullptr) {
        QSC_DCHECK(!IsLoose(*agg));
        return raw_heap_.top().priority;
      }
      raw_heap_.pop();
    }
    return 0.0;
  }

  const std::vector<RothkoStep>& history() const { return history_; }

  const RothkoPatchStats& last_patch() const { return patch_; }

  const RothkoSplitStats& split_stats() const { return split_stats_; }

  void set_audit(bool on) { audit_ = on; }
  const std::string& audit_failure() const { return audit_failure_; }

  bool PatchGraph(const GraphView& g, const std::vector<EditedArc>& arcs) {
    QSC_CHECK_EQ(g.num_nodes(), partition_.num_nodes());
    QSC_CHECK_EQ(g.undirected(), !directed_);
    graph_ = g;
    patch_ = RothkoPatchStats{};
    // Splits leave arena room a fresh build would not have: relocated
    // rows' doubled slots, abandoned slots, growth room (after a long
    // refinement, ~1.6x the live entries). A patched refiner stays cached
    // across edit batches, so an arena above 5/4 of its live entries is
    // repacked. Only relocations grow an arena past its repack room, so a
    // repack costs no more than the relocations that preceded it.
    for (FlatWeightRows* deg : {&out_deg_, &in_deg_}) {
      const FlatRowStats rows = deg->stats();
      if (4 * rows.arena_capacity > 5 * rows.live) deg->Repack();
    }
    // Likewise the split scratch, sized by the largest color ever split
    // (the first split's whole initial color); repair splits regrow it.
    std::vector<double>().swap(split_values_);
    std::vector<NodeId>().swap(eject_);
    PatchRowEntries(arcs);
    PatchPairAggregates();
    // A fresh build prices every witness with the current color sizes,
    // while an entry of a pair no split touched keeps the sizes of its
    // push; under a size-weighted rule the heaps are therefore repriced.
    if (options_.alpha != 0.0 || options_.beta != 0.0 ||
        HeapEntries() > 2 * live_aggs_) {
      RebuildHeaps();
      patch_.heaps_rebuilt = true;
    }
    patch_.heap_entries = HeapEntries();
    patch_.live_pairs = live_aggs_;
    SettleRawTop();
    return true;
  }

  FlatRowStats DegreeRowStats() const {
    FlatRowStats total = out_deg_.stats();
    if (!directed_) return total;
    const FlatRowStats in = in_deg_.stats();
    total.live += in.live;
    total.dead += in.dead;
    total.used += in.used;
    total.arena_capacity += in.arena_capacity;
    total.header_capacity += in.header_capacity;
    total.relocations += in.relocations;
    total.compactions += in.compactions;
    return total;
  }

  int64_t MemoryBytes() const {
    int64_t bytes = static_cast<int64_t>(sizeof(Impl));
    bytes += partition_.MemoryBytes();
    bytes += out_deg_.MemoryBytes() + in_deg_.MemoryBytes();
    bytes += static_cast<int64_t>(out_agg_.capacity() * sizeof(AggRow));
    for (const AggRow& row : out_agg_) {
      bytes += static_cast<int64_t>(row.capacity() * sizeof(AggEntry));
    }
    bytes += static_cast<int64_t>(in_agg_.capacity() * sizeof(AggRow));
    for (const AggRow& row : in_agg_) {
      bytes += static_cast<int64_t>(row.capacity() * sizeof(AggEntry));
    }
    bytes += static_cast<int64_t>(
        (weighted_heap_.size() + raw_heap_.size()) * sizeof(HeapEntry));
    bytes += static_cast<int64_t>(row_keys_.capacity() * sizeof(RowKey) +
                                  changes_.capacity() * sizeof(MemberChange));
    bytes += agg_scratch_.MemoryBytes() + pair_updates_.MemoryBytes();
    bytes += static_cast<int64_t>(
        sorted_keys_.capacity() * sizeof(ColorId) +
        split_values_.capacity() * sizeof(double) +
        eject_.capacity() * sizeof(NodeId) +
        touch_slot_.capacity() * sizeof(int32_t) +
        touched_.capacity() * sizeof(TouchedRow) +
        moves_.capacity() * sizeof(NeighborEntry) +
        history_.capacity() * sizeof(RothkoStep));
    return bytes;
  }

 private:
  // Max/min/presence-count of the witness degrees for one ordered color
  // pair in one direction, with the number of members holding each
  // extreme (what lets a split or a patch drop a member's old value
  // without a rescan). An extreme with no holder is stale: it still bounds
  // the members' values, and the aggregate is loose (IsLoose). `factor`
  // is the size weight the last push priced the pair with. `version`
  // identifies the generation; heap entries carrying an older version are
  // stale.
  struct PairAgg {
    double max_w = 0.0;
    double min_w = 0.0;
    double factor = 1.0;
    int64_t count = 0;
    int32_t max_count = 0;
    int32_t min_count = 0;
    uint64_t version = 0;
  };

  // One aggregate row: the pair aggregates of a fixed color, sorted by the
  // other color's id (same flat layout as the degree rows).
  struct AggEntry {
    ColorId key;
    PairAgg agg;
  };
  using AggRow = std::vector<AggEntry>;

  struct HeapEntry {
    double priority;
    ColorId src;
    ColorId dst;
    uint8_t direction;  // 0: split src by out-weight; 1: split dst by
                        // in-weight.
    uint64_t version;

    bool operator<(const HeapEntry& o) const {
      if (priority != o.priority) return priority < o.priority;
      if (src != o.src) return src > o.src;  // deterministic tie-breaks
      if (dst != o.dst) return dst > o.dst;
      return direction > o.direction;
    }
  };

  static AggRow::iterator AggLowerBound(AggRow& row, ColorId key) {
    return std::lower_bound(
        row.begin(), row.end(), key,
        [](const AggEntry& e, ColorId k) { return e.key < k; });
  }

  static const PairAgg* FindAgg(const AggRow& row, ColorId key) {
    const auto it = std::lower_bound(
        row.begin(), row.end(), key,
        [](const AggEntry& e, ColorId k) { return e.key < k; });
    if (it == row.end() || it->key != key) return nullptr;
    return &it->agg;
  }

  static bool IsLoose(const PairAgg& agg) {
    return agg.count > 0 && (agg.max_count == 0 || agg.min_count == 0);
  }

  // The fixed color of a heap entry's aggregate row (the color whose
  // members it aggregates), and the other color, its key in that row.
  static ColorId RowColor(const HeapEntry& e) {
    return e.direction == 0 ? e.src : e.dst;
  }
  static ColorId RowKeyOf(const HeapEntry& e) {
    return e.direction == 0 ? e.dst : e.src;
  }

  // The aggregate `e` was pushed for, or nullptr if `e` is stale.
  const PairAgg* CurrentAgg(const HeapEntry& e) const {
    const AggRow& row =
        e.direction == 0 ? out_agg_[RowColor(e)] : in_agg_[RowColor(e)];
    const PairAgg* agg = FindAgg(row, RowKeyOf(e));
    return agg != nullptr && agg->version == e.version ? agg : nullptr;
  }

  // Row u of out_deg_ receives u's out-arcs in CSR order, and row v of
  // in_deg_ receives its in-arcs in the order of the reference's single
  // pass over the out-CSR: ascending source, then arc order. Both
  // GraphView constructions list InNeighbors(v) in exactly that order (an
  // owning Graph sorts arcs by (src, dst) and edits insert in place; a
  // mapped view counting-sorts the out-CSR), so every row builds on its
  // own and each direction's build fans out over the pool.
  void BuildDegreeRows() {
    const NodeId n = graph_.num_nodes();
    out_deg_.Build(n, options_.pool, [this](NodeId u, auto emit) {
      for (const NeighborEntry& e : graph_.OutNeighbors(u)) {
        emit(partition_.ColorOf(e.node), e.weight);
      }
    });
    if (!directed_) return;
    in_deg_.Build(n, options_.pool, [this](NodeId v, auto emit) {
      [[maybe_unused]] NodeId prev = 0;
      for (const NeighborEntry& e : graph_.InNeighbors(v)) {
        QSC_DCHECK(e.node >= prev);
        prev = e.node;
        emit(partition_.ColorOf(e.node), e.weight);
      }
    });
  }

  void GrowScratch() {
    agg_scratch_.Grow(partition_.num_colors());
    pair_updates_.Grow(partition_.num_colors());
  }

  // Spread of witness degrees, extending absent members as weight 0.
  double EffectiveError(const PairAgg& agg, int64_t color_size) const {
    double hi = agg.max_w;
    double lo = agg.min_w;
    if (agg.count < color_size) {
      hi = std::max(hi, 0.0);
      lo = std::min(lo, 0.0);
    }
    return hi - lo;
  }

  // |P_src|^alpha |P_dst|^beta at the current color sizes.
  double SizeFactor(ColorId src, ColorId dst) const {
    double c = 1.0;
    if (options_.alpha != 0.0) {
      c *= std::pow(static_cast<double>(partition_.ColorSize(src)),
                    options_.alpha);
    }
    if (options_.beta != 0.0) {
      c *= std::pow(static_cast<double>(partition_.ColorSize(dst)),
                    options_.beta);
    }
    return c;
  }

  // Pushes the pair's witness entries, weighted by `agg.factor`.
  void PushPriced(ColorId src, ColorId dst, uint8_t direction,
                  const PairAgg& agg) {
    const ColorId stats_color = direction == 0 ? src : dst;
    const double err = EffectiveError(agg, partition_.ColorSize(stats_color));
    if (err <= 0.0) return;
    weighted_heap_.push({err * agg.factor, src, dst, direction, agg.version});
    raw_heap_.push({err, src, dst, direction, agg.version});
  }

  // Prices the pair with the current color sizes, records that factor in
  // `agg` and pushes its entries.
  void PushEntries(ColorId src, ColorId dst, uint8_t direction,
                   PairAgg& agg) {
    agg.factor = SizeFactor(src, dst);
    PushPriced(src, dst, direction, agg);
  }

  // Accumulates the members' rows of `deg` into agg_scratch_ and rebuilds
  // `aggs` as a sorted row. Shared tail of the two Rebuild* methods; the
  // scratch is epoch-reset, not cleared, so rebuild cost tracks the number
  // of touched pairs, not the historical maximum.
  void RebuildAggRow(ColorId c, const FlatWeightRows& deg, AggRow& aggs,
                     bool source_side, uint8_t direction) {
    agg_scratch_.NewEpoch();
    for (NodeId v : partition_.Members(c)) {
      const FlatWeightRows::RowView row = deg.RowOf(v);
      for (size_t i = 0; i < row.size(); ++i) {
        bool fresh;
        // A fresh slot is value-initialized (count 0), which MergeWeight
        // treats as the first sample.
        MergeWeight(agg_scratch_.Slot(row.key(i), &fresh), row.weight(i));
      }
    }
    sorted_keys_.assign(agg_scratch_.touched().begin(),
                        agg_scratch_.touched().end());
    std::sort(sorted_keys_.begin(), sorted_keys_.end());
    live_aggs_ += static_cast<int64_t>(sorted_keys_.size()) -
                  static_cast<int64_t>(aggs.size());
    aggs.clear();
    aggs.reserve(sorted_keys_.size());
    for (const ColorId other : sorted_keys_) {
      PairAgg agg = agg_scratch_.At(other);
      agg.version = ++version_counter_;
      const ColorId src = source_side ? c : other;
      const ColorId dst = source_side ? other : c;
      PushEntries(src, dst, direction, agg);
      aggs.push_back({other, agg});
    }
  }

  // Rebuilds all out-direction aggregates with source color `c` (stats over
  // members of c of their out-weight per target color).
  void RebuildSourceAggregates(ColorId c) {
    RebuildAggRow(c, out_deg_, out_agg_[c], /*source_side=*/true,
                  /*direction=*/0);
  }

  // Rebuilds all in-direction aggregates with target color `c` (stats over
  // members of c of their in-weight per source color).
  void RebuildTargetInAggregates(ColorId c) {
    RebuildAggRow(c, in_deg_, in_agg_[c], /*source_side=*/false,
                  /*direction=*/1);
  }

  // Folds one member's weight into `agg`, counting the holders of each
  // extreme. Also exact after RemoveWeight took an extreme's last holder
  // (its count is then 0 and its value stale): a weight beyond the stale
  // value becomes the extreme and one equal to it holds it again; only a
  // weight inside leaves the count at 0 (the aggregate stays loose).
  static void MergeWeight(PairAgg& agg, double w) {
    if (agg.count == 0) {
      agg.max_w = agg.min_w = w;
      agg.max_count = agg.min_count = 1;
      agg.count = 1;
      return;
    }
    // Selects rather than branches: this runs twice per member in the
    // split loop's hot scan.
    const bool above = w > agg.max_w;
    const bool below = w < agg.min_w;
    agg.max_count = above ? 1 : agg.max_count + (w == agg.max_w ? 1 : 0);
    agg.min_count = below ? 1 : agg.min_count + (w == agg.min_w ? 1 : 0);
    agg.max_w = above ? w : agg.max_w;
    agg.min_w = below ? w : agg.min_w;
    ++agg.count;
  }

  // Takes one member's weight `w` (present in `agg`) back out.
  static void RemoveWeight(PairAgg& agg, double w) {
    QSC_DCHECK(agg.count > 0);
    --agg.count;
    if (w == agg.max_w) --agg.max_count;
    if (w == agg.min_w) --agg.min_count;
    QSC_DCHECK(agg.max_count >= 0 && agg.min_count >= 0);
  }

  // The aggregate of color c's members toward `key` in `deg`, from
  // scratch.
  PairAgg RescanPair(ColorId c, ColorId key, const FlatWeightRows& deg) const {
    PairAgg agg;
    for (const NodeId v : partition_.Members(c)) {
      const double* w = deg.Find(v, key);
      if (w != nullptr) MergeWeight(agg, *w);
    }
    return agg;
  }

  // PatchGraph step 2: recomputes the row entries the arcs touch — each
  // once: (u, color(v)) of the out rows and (v, color(u)) of the in rows,
  // or of the out rows again on an undirected graph, whose arcs go both
  // ways — from the new adjacency in the order a fresh build sums them,
  // and lists in changes_ every member whose value changed.
  void PatchRowEntries(const std::vector<EditedArc>& arcs) {
    const NodeId n = partition_.num_nodes();
    row_keys_.clear();
    for (const EditedArc& arc : arcs) {
      QSC_CHECK(arc.src >= 0 && arc.src < n && arc.dst >= 0 && arc.dst < n);
      row_keys_.push_back({0, arc.src, partition_.ColorOf(arc.dst)});
      row_keys_.push_back({static_cast<uint8_t>(directed_ ? 1 : 0), arc.dst,
                           partition_.ColorOf(arc.src)});
    }
    std::sort(row_keys_.begin(), row_keys_.end());
    row_keys_.erase(std::unique(row_keys_.begin(), row_keys_.end()),
                    row_keys_.end());
    changes_.clear();
    for (const RowKey& rk : row_keys_) {
      FlatWeightRows& deg = rk.direction == 0 ? out_deg_ : in_deg_;
      FlatWeightRows::KeySum sum;
      for (const NeighborEntry& e : rk.direction == 0
                                        ? graph_.OutNeighbors(rk.node)
                                        : graph_.InNeighbors(rk.node)) {
        if (partition_.ColorOf(e.node) == rk.key) sum.Add(e.weight);
      }
      const double* old = deg.Find(rk.node, rk.key);
      const bool same = old == nullptr ? !sum.present()
                                       : sum.present() && *old == sum.sum();
      if (!same) {
        const RowKey pair{rk.direction, partition_.ColorOf(rk.node), rk.key};
        changes_.push_back({pair, old != nullptr, old == nullptr ? 0.0 : *old,
                            sum.present(), sum.sum()});
        deg.Assign(rk.node, rk.key, sum);
      }
    }
    patch_.changed_entries = static_cast<int64_t>(changes_.size());
  }

  // PatchGraph step 3: updates each pair aggregate holding a changed
  // entry from its members' changes and pushes its witness entries. Every
  // old value leaves before any new value joins, so an extreme that lost
  // its last holder is either reclaimed by a new value or rescanned.
  void PatchPairAggregates() {
    std::sort(changes_.begin(), changes_.end(),
              [](const MemberChange& a, const MemberChange& b) {
                return a.pair < b.pair;
              });
    for (size_t i = 0; i < changes_.size();) {
      const RowKey pair = changes_[i].pair;  // node: the fixed color
      size_t end = i;
      while (end < changes_.size() && changes_[end].pair == pair) ++end;
      const bool out = pair.direction == 0;
      AggRow& aggs = out ? out_agg_[pair.node] : in_agg_[pair.node];
      PairAgg agg;
      if (const PairAgg* found = FindAgg(aggs, pair.key)) agg = *found;
      for (size_t k = i; k < end; ++k) {
        if (changes_[k].had_old) RemoveWeight(agg, changes_[k].old_w);
      }
      for (size_t k = i; k < end; ++k) {
        if (changes_[k].has_new) MergeWeight(agg, changes_[k].new_w);
      }
      if (IsLoose(agg)) {
        agg = RescanPair(pair.node, pair.key, out ? out_deg_ : in_deg_);
        ++patch_.rescans;
        patch_.rescanned_members += partition_.ColorSize(pair.node);
      }
      ++patch_.pairs;
      StoreAndPush(pair.node, pair.key, agg, aggs, /*source_side=*/out,
                   pair.direction);
      i = end;
    }
  }

  int64_t HeapEntries() const {
    return static_cast<int64_t>(
        std::max(weighted_heap_.size(), raw_heap_.size()));
  }

  // Refills both witness heaps with one entry per live aggregate, priced
  // with the current color sizes.
  void RebuildHeaps() {
    weighted_heap_ = std::priority_queue<HeapEntry>();
    raw_heap_ = std::priority_queue<HeapEntry>();
    for (ColorId c = 0; c < partition_.num_colors(); ++c) {
      for (AggEntry& e : out_agg_[c]) {
        PushEntries(c, e.key, /*direction=*/0, e.agg);
      }
      if (!directed_) continue;
      for (AggEntry& e : in_agg_[c]) {
        PushEntries(e.key, c, /*direction=*/1, e.agg);
      }
    }
  }

  // Stores `agg` for key `other` into `aggs` (erasing on empty) and pushes
  // the witness entries. `c` is the fixed color the row belongs to.
  void StoreAndPush(ColorId c, ColorId other, PairAgg agg, AggRow& aggs,
                    bool source_side, uint8_t direction) {
    auto it = AggLowerBound(aggs, other);
    const bool present = it != aggs.end() && it->key == other;
    if (agg.count == 0) {
      if (present) {
        aggs.erase(it);
        --live_aggs_;
      }
      return;
    }
    agg.version = ++version_counter_;
    const ColorId src = source_side ? c : other;
    const ColorId dst = source_side ? other : c;
    PushEntries(src, dst, direction, agg);
    if (present) {
      it->agg = agg;
    } else {
      aggs.insert(it, {other, agg});
      ++live_aggs_;
    }
  }

  // Per affected color, its pair aggregates toward the two halves while a
  // split updates them from the touched rows.
  struct PairUpdate {
    PairAgg split;       // toward the split color: the stored aggregate
    PairAgg fresh;       // toward the new color: the touched rows alone
    int64_t merged = 0;  // new values merged into `split` (for the audit)
    bool was_loose = false;
  };

  // Updates, after one direction's row moves, every affected color's
  // aggregates toward the two halves from the rows in touched_ alone, and
  // empties touched_. Only a touched row can hold a new-color entry, and
  // an untouched member's split-color entry did not change. Every old
  // value leaves before any new value joins, so an aggregate whose every
  // entry is new is rebuilt exactly from them; one whose extreme lost its
  // last holder to a value inside is left loose for PeekValid. The two
  // halves are skipped: ApplySplit rebuilds their aggregates.
  void UpdateAffectedPairs(ColorId split_color, ColorId new_color,
                           std::vector<AggRow>& aggs, bool source_side,
                           uint8_t direction) {
    QSC_DCHECK(new_color + 1 == partition_.num_colors());
    pair_updates_.NewEpoch();
    for (const TouchedRow& t : touched_) {
      const ColorId c = partition_.ColorOf(t.node);
      if (c == split_color || c == new_color) continue;
      bool fresh;
      PairUpdate& u = pair_updates_.Slot(c, &fresh);
      if (fresh) {
        if (const PairAgg* found = FindAgg(aggs[c], split_color)) {
          u.split = *found;
        }
        u.was_loose = IsLoose(u.split);
      }
      if (t.had_from) RemoveWeight(u.split, t.old_from);
    }
    for (const TouchedRow& t : touched_) {
      touch_slot_[t.node] = -1;
      const ColorId c = partition_.ColorOf(t.node);
      if (c == split_color || c == new_color) continue;
      PairUpdate& u = pair_updates_.At(c);
      if (t.has_from) {
        MergeWeight(u.split, t.new_from);
        ++u.merged;
      }
      if (t.has_to) MergeWeight(u.fresh, t.new_to);
    }
    split_stats_.touched_rows += static_cast<int64_t>(touched_.size());
    touched_.clear();
    for (const ColorId c : pair_updates_.touched()) {
      PairUpdate& u = pair_updates_.At(c);
      if (IsLoose(u.split)) {
        if (!u.was_loose) ++split_stats_.loose_pairs;
        if (audit_ && u.split.count == u.merged) {
          NoteAuditFailure("pair (" + std::to_string(c) + ", " +
                           std::to_string(split_color) +
                           ") is loose though every entry is new");
        }
      }
      StoreAndPush(c, split_color, u.split, aggs[c], source_side, direction);
      StoreAndPush(c, new_color, u.fresh, aggs[c], source_side, direction);
    }
  }

  // Pops stale entries off `heap` and rescans the loose pairs that reach
  // its top (RescanLoose) until the top is current and exact; returns
  // false if the heap drains.
  bool PeekValid(std::priority_queue<HeapEntry>& heap, HeapEntry* out) {
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      const PairAgg* agg = CurrentAgg(top);
      if (agg != nullptr && !IsLoose(*agg)) {
        *out = top;
        return true;
      }
      heap.pop();
      if (agg != nullptr) RescanLoose(top);
    }
    return false;
  }

  // Ensures the raw heap's top is exact, which CurrentMaxError relies on.
  void SettleRawTop() {
    HeapEntry top;
    PeekValid(raw_heap_, &top);
  }

  // Replaces the loose aggregate `top` was pushed for with a scan of its
  // members and pushes it again at the factor of its last push, which is
  // what the pair's exact entry would have been priced with.
  void RescanLoose(const HeapEntry& top) {
    const bool out = top.direction == 0;
    const ColorId c = RowColor(top);
    const ColorId key = RowKeyOf(top);
    AggRow& row = out ? out_agg_[c] : in_agg_[c];
    const auto it = AggLowerBound(row, key);
    PairAgg agg = RescanPair(c, key, out ? out_deg_ : in_deg_);
    QSC_DCHECK(agg.count == it->agg.count);
    agg.factor = it->agg.factor;
    agg.version = ++version_counter_;
    it->agg = agg;
    PushPriced(top.src, top.dst, top.direction, agg);
    ++split_stats_.rescans;
    split_stats_.rescanned_members += partition_.ColorSize(c);
  }

  // Moves, for every ejected node v (eject_ order) and every arc between v
  // and a neighbor u (adjacency order), that arc's weight in row u of `deg`
  // from `from` to `to`, and records row u in touched_: its `from` entry
  // before its first move and both entries after its last. `in_arcs`
  // walks v's in-arcs (the out-degree rows of their sources), otherwise its
  // out-arcs. The moves run in a fixed order in chunks: filling a chunk
  // prefetches the row headers, and each move prefetches the row a few
  // moves ahead, so the random row accesses overlap.
  void MoveEjectedRows(bool in_arcs, ColorId from, ColorId to,
                       FlatWeightRows& deg) {
    const auto flush = [&] {
      const size_t n = moves_.size();
      for (size_t i = 0; i < std::min(n, kRowLead); ++i) {
        deg.PrefetchRow(moves_[i].node);
      }
      for (size_t i = 0; i < n; ++i) {
        if (i + kRowLead < n) deg.PrefetchRow(moves_[i + kRowLead].node);
        const NodeId u = moves_[i].node;
        const FlatWeightRows::MoveResult r =
            deg.Move(u, from, to, moves_[i].weight);
        int32_t& slot = touch_slot_[u];
        if (slot < 0) {
          QSC_DCHECK(!r.to.had);  // `to` is the color just created
          slot = static_cast<int32_t>(touched_.size());
          touched_.push_back({u, r.from.had, false, false, r.from.before,
                              0.0, 0.0});
        }
        TouchedRow& t = touched_[slot];
        t.has_from = r.from.has;
        t.has_to = r.to.has;
        t.new_from = r.from.after;
        t.new_to = r.to.after;
      }
      moves_.clear();
    };
    for (const NodeId v : eject_) {
      for (const NeighborEntry& e :
           in_arcs ? graph_.InNeighbors(v) : graph_.OutNeighbors(v)) {
        deg.PrefetchHeader(e.node);
        QSC_PREFETCH(&touch_slot_[e.node]);
        moves_.push_back(e);
        if (moves_.size() == kMoveChunk) flush();
      }
    }
    flush();
  }

  void ApplySplit(const HeapEntry& witness) {
    const ColorId split_color =
        witness.direction == 0 ? witness.src : witness.dst;
    const ColorId other = witness.direction == 0 ? witness.dst : witness.src;
    FlatWeightRows& deg_rows = witness.direction == 0 ? out_deg_ : in_deg_;

    const std::vector<NodeId>& members = partition_.Members(split_color);
    const size_t size = members.size();
    QSC_CHECK_GE(size, 2u);

    // Witness degrees of every member (0 when absent). The gather is
    // independent per member and the min/max envelope is an associative
    // reduction, so both parallelize bit-identically; the arithmetic-mean
    // sum is order-sensitive and stays a sequential fold over the
    // materialized values, which accumulates in exactly the reference
    // implementation's index order. A split rule sees the same values.
    std::vector<double>& values = split_values_;
    values.resize(size);
    ThreadPool* scan_pool =
        static_cast<int64_t>(size) >= kMinParallelMembers ? options_.pool
                                                          : nullptr;
    ParallelFor(scan_pool, static_cast<int64_t>(size), kMemberGrain,
                [&](int64_t i) {
                  values[i] = deg_rows.WeightOrZero(members[i], other);
                });
    struct Envelope {
      double lo, hi;
    };
    const Envelope env = ParallelReduce(
        scan_pool, static_cast<int64_t>(size), kMemberGrain,
        Envelope{values[0], values[0]},
        [&](int64_t i) { return Envelope{values[i], values[i]}; },
        [](const Envelope& a, const Envelope& b) {
          return Envelope{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
        });
    const double lo = env.lo;
    const double hi = env.hi;
    QSC_CHECK_GT(hi, lo);  // Witness error was positive.

    std::vector<NodeId>& eject = eject_;
    eject.clear();
    if (split_rule_ != nullptr) {
      split_rule_(graph_, members, values, &eject);
    } else {
      bool has_negative = lo < 0.0;
      double sum = 0.0;
      for (size_t i = 0; i < size; ++i) sum += values[i];

      double threshold;
      if (options_.split_mean == RothkoOptions::SplitMean::kGeometric &&
          !has_negative) {
        double log_sum = 0.0;
        for (double v : values) log_sum += std::log1p(v);
        threshold = std::expm1(log_sum / static_cast<double>(size));
      } else {
        threshold = sum / static_cast<double>(size);
      }

      // Retain nodes at or below the threshold, eject the rest (Algorithm
      // 1 lines 10-13).
      for (size_t i = 0; i < size; ++i) {
        if (values[i] > threshold) eject.push_back(members[i]);
      }
    }
    if (eject.empty() || eject.size() == size) {
      // Degenerate cut (a threshold rounded onto an extreme, or a rule
      // that kept or ejected everyone): split strictly above the minimum
      // instead.
      eject.clear();
      for (size_t i = 0; i < size; ++i) {
        if (values[i] > lo) eject.push_back(members[i]);
      }
      QSC_CHECK(!eject.empty());
      QSC_CHECK_LT(eject.size(), size);
    }

    const ColorId new_color = partition_.SplitColor(split_color, eject);
    out_agg_.emplace_back();
    if (directed_) in_agg_.emplace_back();
    GrowScratch();

    // Per direction, move the ejected nodes' weights inside their
    // neighbors' rows, then update the neighboring colors' aggregates
    // toward the two halves from the rows that changed.
    MoveEjectedRows(/*in_arcs=*/true, split_color, new_color, out_deg_);
    UpdateAffectedPairs(split_color, new_color, out_agg_,
                        /*source_side=*/true, /*direction=*/0);
    if (directed_) {
      MoveEjectedRows(/*in_arcs=*/false, split_color, new_color, in_deg_);
      UpdateAffectedPairs(split_color, new_color, in_agg_,
                          /*source_side=*/false, /*direction=*/1);
    }

    // The two halves' member sets changed: rebuild their aggregates.
    RebuildSourceAggregates(split_color);
    RebuildSourceAggregates(new_color);
    if (directed_) {
      RebuildTargetInAggregates(split_color);
      RebuildTargetInAggregates(new_color);
    }

    history_.push_back({split_color, new_color, hi - lo,
                        partition_.num_colors(), timer_.ElapsedSeconds()});
    if (audit_) AuditAggregates();
  }

  void NoteAuditFailure(const std::string& what) {
    if (audit_failure_.empty()) {
      audit_failure_ = "split " + std::to_string(history_.size()) + ": " + what;
    }
  }

  // The set_audit check: every live pair aggregate against a scan of its
  // color's members.
  void AuditAggregates() {
    for (const bool out : {true, false}) {
      if (!out && !directed_) break;
      const FlatWeightRows& deg = out ? out_deg_ : in_deg_;
      const std::vector<AggRow>& aggs = out ? out_agg_ : in_agg_;
      for (ColorId c = 0; c < partition_.num_colors(); ++c) {
        std::map<ColorId, PairAgg> scan;
        for (const NodeId v : partition_.Members(c)) {
          const FlatWeightRows::RowView row = deg.RowOf(v);
          for (size_t i = 0; i < row.size(); ++i) {
            MergeWeight(scan[row.key(i)], row.weight(i));
          }
        }
        const std::string row_name = std::string(out ? "out" : "in") +
                                     " row of color " + std::to_string(c);
        if (scan.size() != aggs[c].size()) {
          NoteAuditFailure(row_name + " has " +
                           std::to_string(aggs[c].size()) +
                           " aggregates, a scan finds " +
                           std::to_string(scan.size()));
          continue;
        }
        auto s = scan.begin();
        for (const AggEntry& e : aggs[c]) {
          const PairAgg& a = e.agg;
          const PairAgg& want = s->second;
          const std::string at = row_name + " key " + std::to_string(e.key);
          if (e.key != s->first) {
            NoteAuditFailure(at + ": a scan finds key " +
                             std::to_string(s->first));
          } else if (a.count != want.count) {
            NoteAuditFailure(at + ": count differs from a scan");
          } else if (a.max_count > 0 ? a.max_w != want.max_w ||
                                           a.max_count != want.max_count
                                     : !(a.max_w > want.max_w)) {
            NoteAuditFailure(at + ": max disagrees with a scan");
          } else if (a.min_count > 0 ? a.min_w != want.min_w ||
                                           a.min_count != want.min_count
                                     : !(a.min_w < want.min_w)) {
            NoteAuditFailure(at + ": min disagrees with a scan");
          }
          ++s;
        }
      }
    }
  }

  GraphView graph_;
  RothkoOptions options_;
  SplitRule split_rule_;  // null: the split_mean threshold
  Partition partition_;
  bool directed_;

  // out_deg_ row v, key c = w(v, P_c); in_deg_ row v, key c = w(P_c, v)
  // (directed only).
  FlatWeightRows out_deg_;
  FlatWeightRows in_deg_;

  // out_agg_[i] key j: stats over members of P_i of out-weight into P_j.
  // in_agg_[j] key i: stats over members of P_j of in-weight from P_i.
  std::vector<AggRow> out_agg_;
  std::vector<AggRow> in_agg_;

  mutable std::priority_queue<HeapEntry> weighted_heap_;
  mutable std::priority_queue<HeapEntry> raw_heap_;
  uint64_t version_counter_ = 0;
  int64_t live_aggs_ = 0;  // entries of out_agg_ and in_agg_

  // PatchGraph's scratch: one degree-row entry an edited arc touches
  // (row `node`, key `key`), and one member whose entry changed, filed
  // under its pair aggregate (the same triple with the member's color as
  // `node`).
  struct RowKey {
    uint8_t direction;  // 0: out_deg_ / out_agg_, 1: in_deg_ / in_agg_
    int32_t node;
    ColorId key;

    bool operator<(const RowKey& o) const {
      return std::tie(direction, node, key) <
             std::tie(o.direction, o.node, o.key);
    }
    bool operator==(const RowKey& o) const {
      return direction == o.direction && node == o.node && key == o.key;
    }
  };
  struct MemberChange {
    RowKey pair;
    bool had_old;
    double old_w;
    bool has_new;
    double new_w;
  };
  std::vector<RowKey> row_keys_;
  std::vector<MemberChange> changes_;
  RothkoPatchStats patch_;

  // One degree row a split's moves touched, in one direction: its entry
  // toward the split color before the first move (`old_from`), and its
  // entries toward the split color and the new color after the last.
  // Absent entries read 0.0 with their flag false.
  struct TouchedRow {
    NodeId node;
    bool had_from;
    bool has_from;
    bool has_to;
    double old_from;
    double new_from;
    double new_to;
  };
  static_assert(sizeof(TouchedRow) == 32, "touch list entry size");

  // Preallocated scratch reused across splits (see flat_rows.h).
  EpochScratch<PairAgg> agg_scratch_;
  EpochScratch<PairUpdate> pair_updates_;
  std::vector<ColorId> sorted_keys_;
  std::vector<double> split_values_;
  std::vector<NodeId> eject_;
  std::vector<NeighborEntry> moves_;  // one MoveEjectedRows chunk
  // The touched rows of the current direction's moves, in first-touch
  // order (freed by ReleaseTouchList), and each node's index in it (-1:
  // untouched), allocated once and reset entry by entry.
  std::vector<TouchedRow> touched_;
  std::vector<int32_t> touch_slot_;
  RothkoSplitStats split_stats_;
  bool audit_ = false;
  std::string audit_failure_;

  WallTimer timer_;
  std::vector<RothkoStep> history_;
};

RothkoRefiner::RothkoRefiner(const GraphView& g, Partition initial,
                             RothkoOptions options, SplitRule rule)
    : impl_(new Impl(g, std::move(initial), options, rule)) {}

RothkoRefiner::~RothkoRefiner() = default;

bool RothkoRefiner::Step(ColorId color_cap) {
  const bool stepped = impl_->Step(color_cap);
  impl_->ReleaseTouchList();
  return stepped;
}
void RothkoRefiner::Run() { impl_->Run(); }
const Partition& RothkoRefiner::partition() const {
  return impl_->partition();
}
double RothkoRefiner::CurrentMaxError() const {
  return impl_->CurrentMaxError();
}
const std::vector<RothkoStep>& RothkoRefiner::history() const {
  return impl_->history();
}
int64_t RothkoRefiner::MemoryBytes() const { return impl_->MemoryBytes(); }
FlatRowStats RothkoRefiner::DegreeRowStats() const {
  return impl_->DegreeRowStats();
}
bool RothkoRefiner::PatchGraph(const GraphView& g,
                               const std::vector<EditedArc>& arcs) {
  return impl_->PatchGraph(g, arcs);
}
const RothkoPatchStats& RothkoRefiner::last_patch() const {
  return impl_->last_patch();
}
const RothkoSplitStats& RothkoRefiner::split_stats() const {
  return impl_->split_stats();
}
void RothkoRefiner::set_audit(bool on) { impl_->set_audit(on); }
const std::string& RothkoRefiner::audit_failure() const {
  return impl_->audit_failure();
}

Partition RothkoColoring(const GraphView& g, Partition initial,
                         const RothkoOptions& options) {
  RothkoRefiner refiner(g, std::move(initial), options);
  refiner.Run();
  return refiner.partition();
}

Partition RothkoColoring(const GraphView& g, const RothkoOptions& options) {
  return RothkoColoring(g, Partition::Trivial(g.num_nodes()), options);
}

}  // namespace qsc
