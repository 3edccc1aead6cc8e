// Unit tests for the Rothko hot-path containers (flat_rows.h): sorted-row
// invariants of the arena-backed FlatWeightRows (insert/accumulate/erase
// with the zero tolerance, Move and the entries it reports, Assign, the
// parallel Build, relocation, compaction and repacking, O(1) memory
// accounting) against a std::map oracle of the Add semantics, and epoch
// semantics of EpochScratch (O(1) reuse, freshness reporting, touched-key
// ordering).

#include "qsc/coloring/flat_rows.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

using OracleRow = std::map<ColorId, double>;

// The Add semantics every FlatWeightRows mutation must reproduce.
void OracleAdd(OracleRow& row, ColorId key, double w) {
  const auto it = row.find(key);
  if (it != row.end()) {
    it->second += w;
    if (std::abs(it->second) < kZeroWeightTolerance) row.erase(it);
    return;
  }
  if (std::abs(w) < kZeroWeightTolerance) return;
  row.emplace(key, w);
}

// Row v equals the oracle entry for entry, weights bit for bit.
void ExpectRowEquals(const FlatWeightRows& rows, NodeId v,
                     const OracleRow& oracle) {
  const FlatWeightRows::RowView row = rows.RowOf(v);
  ASSERT_EQ(row.size(), oracle.size()) << "row " << v;
  size_t i = 0;
  for (const auto& [key, weight] : oracle) {
    EXPECT_EQ(row.key(i), key) << "row " << v << " entry " << i;
    EXPECT_EQ(row.weight(i), weight) << "row " << v << " key " << key;
    ++i;
  }
}

// MemoryBytes and the arena accounting agree with a recount over rows.
void ExpectAccountingConsistent(const FlatWeightRows& rows,
                                NodeId num_rows) {
  const FlatRowStats stats = rows.stats();
  int64_t live = 0;
  int64_t slots = 0;
  for (NodeId v = 0; v < num_rows; ++v) {
    const int64_t size = static_cast<int64_t>(rows.RowOf(v).size());
    EXPECT_LE(size, rows.SlotCapacity(v));
    live += size;
    slots += rows.SlotCapacity(v);
  }
  EXPECT_EQ(stats.live, live);
  EXPECT_EQ(stats.used, slots + stats.dead);
  EXPECT_LE(stats.used, stats.arena_capacity);
  EXPECT_EQ(rows.MemoryBytes(),
            stats.header_capacity * FlatWeightRows::kHeaderBytes +
                stats.arena_capacity * FlatWeightRows::kEntryBytes);
}

// Which branch of Move each entry took: present before and after,
// present then dropped, absent then materialized, absent and still absent.
enum MoveBranch { kKept, kErased, kInserted, kAbsent };

MoveBranch BranchOf(const FlatWeightRows::EntryChange& e) {
  if (e.had) return e.has ? kKept : kErased;
  return e.has ? kInserted : kAbsent;
}

// Tallies, per entry (`from`, `to`), the branches Move took.
struct MoveBranches {
  int from[4] = {};
  int to[4] = {};
};

// rows.Move(v, from, to, w), checking the reported entries against Find
// before and after the move.
void CheckedMove(FlatWeightRows& rows, NodeId v, ColorId from, ColorId to,
                 double w, MoveBranches* seen = nullptr) {
  const auto read = [&](ColorId key) {
    const double* p = rows.Find(v, key);
    return std::make_pair(p != nullptr, p == nullptr ? 0.0 : *p);
  };
  const auto from_before = read(from);
  const auto to_before = read(to);
  const FlatWeightRows::MoveResult r = rows.Move(v, from, to, w);
  const auto from_after = read(from);
  const auto to_after = read(to);
  EXPECT_EQ(r.from.had, from_before.first) << "row " << v;
  EXPECT_EQ(r.from.before, from_before.second) << "row " << v;
  EXPECT_EQ(r.from.has, from_after.first) << "row " << v;
  EXPECT_EQ(r.from.after, from_after.second) << "row " << v;
  EXPECT_EQ(r.to.had, to_before.first) << "row " << v;
  EXPECT_EQ(r.to.before, to_before.second) << "row " << v;
  EXPECT_EQ(r.to.has, to_after.first) << "row " << v;
  EXPECT_EQ(r.to.after, to_after.second) << "row " << v;
  if (seen != nullptr) {
    ++seen->from[BranchOf(r.from)];
    ++seen->to[BranchOf(r.to)];
  }
}

// A weight drawn from the mixes the refiner meets: unit-scale, large and
// tiny magnitudes of either sign, and sub-tolerance residue.
double DrawWeight(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return rng.UniformDouble(-2.0, 2.0);
    case 1:
      return rng.UniformDouble(0.1, 3.0);
    case 2:
      return (rng.Bernoulli(0.5) ? 1.0 : -1.0) * rng.UniformDouble(1e5, 1e7);
    case 3:
      return rng.UniformDouble(-1e-3, 1e-3);
    default:
      return rng.UniformDouble(-1e-13, 1e-13);
  }
}

TEST(FlatWeightRowsTest, AddInsertsSortedAndAccumulates) {
  FlatWeightRows rows;
  rows.Reset(2);
  rows.Add(0, 5, 1.0);
  rows.Add(0, 2, 2.0);
  rows.Add(0, 9, 3.0);
  rows.Add(0, 5, 0.5);  // accumulate onto existing key

  const FlatWeightRows::RowView row = rows.RowOf(0);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0].key, 2);
  EXPECT_EQ(row[1].key, 5);
  EXPECT_EQ(row[2].key, 9);
  EXPECT_DOUBLE_EQ(row[1].weight, 1.5);
  EXPECT_TRUE(rows.RowOf(1).empty());

  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 9), 3.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 7), 0.0);
  EXPECT_EQ(rows.Find(0, 7), nullptr);
  ASSERT_NE(rows.Find(0, 2), nullptr);
  EXPECT_DOUBLE_EQ(*rows.Find(0, 2), 2.0);
}

TEST(FlatWeightRowsTest, SubtractErasesOnResidue) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 3, 1.25);
  rows.Add(0, 4, 2.0);
  rows.Subtract(0, 3, 1.25);  // exact cancel -> erased
  EXPECT_EQ(rows.Find(0, 3), nullptr);
  ASSERT_EQ(rows.RowOf(0).size(), 1u);
  EXPECT_EQ(rows.RowOf(0)[0].key, 4);

  rows.Subtract(0, 4, 0.5);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 4), 1.5);
}

TEST(FlatWeightRowsTest, SubtractFromAbsentEntryMaterializesNegation) {
  // Entries can legitimately vanish when +w/-w arc weights cancel within
  // the zero tolerance; a later move of one endpoint subtracts from the
  // implicit 0 and must re-create the entry rather than touch a neighbor.
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 2, 1.0);
  rows.Add(0, 1, 1.0);
  rows.Add(0, 1, -1.0);  // cancels -> entry for key 1 dropped
  EXPECT_EQ(rows.Find(0, 1), nullptr);

  rows.Subtract(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(rows.WeightOrZero(0, 2), 1.0);  // neighbor untouched
  rows.Subtract(0, 3, 1e-13);  // within tolerance: stays absent
  EXPECT_EQ(rows.Find(0, 3), nullptr);
}

TEST(FlatWeightRowsTest, AddWithinToleranceDoesNotCreateEntry) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 1, 1e-13);  // below kZeroWeightTolerance
  EXPECT_TRUE(rows.RowOf(0).empty());
  // Accumulating onto an existing entry down into the tolerance erases it,
  // matching the map-based AddWeight semantics.
  rows.Add(0, 1, 1.0);
  rows.Add(0, 1, -1.0 + 1e-13);
  EXPECT_TRUE(rows.RowOf(0).empty());
}

TEST(FlatWeightRowsTest, ResetClearsAllRows) {
  FlatWeightRows rows;
  rows.Reset(1);
  rows.Add(0, 1, 1.0);
  rows.Reset(3);
  EXPECT_TRUE(rows.RowOf(0).empty());
  EXPECT_TRUE(rows.RowOf(2).empty());
  EXPECT_EQ(rows.stats().live, 0);
}

TEST(FlatWeightRowsTest, MoveEqualsSubtractThenAddBitForBit) {
  // Every branch of Move: `from` present and surviving, present and
  // cancelling, absent and materialized, absent and dropped (sub-tolerance
  // weight); `to` absent, present and accumulating, present and cancelling.
  struct Case {
    std::vector<std::pair<ColorId, double>> start;
    ColorId from;
    ColorId to;
    double w;
  };
  const std::vector<Case> cases = {
      {{{1, 3.0}}, 1, 2, 1.0},
      {{{1, 0.1}, {4, 2.0}}, 1, 4, 0.1},
      {{{0, 1.0}, {1, 1e6 + 0.3}, {5, 0.7}}, 1, 5, 1e6},
      {{{0, 1.0}}, 3, 7, 2.5},
      {{{0, 1.0}, {7, 1.0}}, 3, 7, -1.0},
      {{{2, 5.0}}, 1, 3, 1e-13},
      {{{1, 1e-12 * 3.0}, {2, 4.0}}, 1, 2, 1e-12 * 3.0},
      {{}, 0, 1, 0.25},
      {{{0, -0.3}, {1, 0.3}}, 0, 1, -0.3},
      {{{1, 0.5}, {2, 1.0}, {3, 2.0}, {5, 1.0}}, 1, 5, 0.5},
      {{{1, 0.5}, {2, 1.0}, {3, 2.0}}, 1, 5, 0.5},
      {{{0, 1.0}, {2, 1.0}, {3, 2.0}, {5, 1.0}}, 1, 5, 0.5},
      {{{1, 2.0}, {4, -0.5}}, 1, 4, 0.5},
  };
  MoveBranches seen;
  for (size_t c = 0; c < cases.size(); ++c) {
    FlatWeightRows moved;
    FlatWeightRows reference;
    moved.Reset(1);
    reference.Reset(1);
    OracleRow oracle;
    for (const auto& [key, w] : cases[c].start) {
      moved.Add(0, key, w);
      reference.Add(0, key, w);
      OracleAdd(oracle, key, w);
    }
    SCOPED_TRACE(c);
    CheckedMove(moved, 0, cases[c].from, cases[c].to, cases[c].w, &seen);
    reference.Subtract(0, cases[c].from, cases[c].w);
    reference.Add(0, cases[c].to, cases[c].w);
    OracleAdd(oracle, cases[c].from, -cases[c].w);
    OracleAdd(oracle, cases[c].to, cases[c].w);
    ExpectRowEquals(moved, 0, oracle);
    ExpectRowEquals(reference, 0, oracle);
    ExpectAccountingConsistent(moved, 1);
  }
  for (const MoveBranch b : {kKept, kErased, kInserted, kAbsent}) {
    EXPECT_GT(seen.from[b], 0) << "`from` branch " << b;
    EXPECT_GT(seen.to[b], 0) << "`to` branch " << b;
  }
}

TEST(FlatWeightRowsTest, BuildReplaysSequentialAddsAtEveryPoolSize) {
  // Random contributions with repeated keys, cancelling pairs and
  // sub-tolerance first weights: Build must equal Add()ing them in order.
  constexpr NodeId kRows = 3000;  // spans several build blocks
  Rng rng(7);
  std::vector<std::vector<std::pair<ColorId, double>>> contributions(kRows);
  for (auto& list : contributions) {
    const int64_t count = rng.UniformInt(0, 12);
    for (int64_t i = 0; i < count; ++i) {
      const ColorId key = static_cast<ColorId>(rng.NextBounded(6));
      const double w = DrawWeight(rng);
      list.push_back({key, w});
      if (rng.Bernoulli(0.1)) list.push_back({key, -w});  // cancels
    }
  }
  std::vector<OracleRow> oracle(kRows);
  for (NodeId v = 0; v < kRows; ++v) {
    for (const auto& [key, w] : contributions[v]) OracleAdd(oracle[v], key, w);
  }
  const auto gather = [&](NodeId v, auto emit) {
    for (const auto& [key, w] : contributions[v]) emit(key, w);
  };
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    FlatWeightRows rows;
    rows.Build(kRows, threads == 1 ? nullptr : &pool, gather);
    for (NodeId v = 0; v < kRows; ++v) ExpectRowEquals(rows, v, oracle[v]);
    ExpectAccountingConsistent(rows, kRows);
    // Exact-sized: the arena holds the live entries and nothing else.
    EXPECT_EQ(rows.stats().used, rows.stats().live);
    for (NodeId v = 0; v < kRows; ++v) {
      EXPECT_EQ(rows.SlotCapacity(v),
                static_cast<int64_t>(rows.RowOf(v).size()));
    }
  }
}

TEST(FlatWeightRowsTest, RandomizedOpsMatchMapOracle) {
  // Adds, Subtracts and Moves interleaved on a few hundred rows that start
  // exact-sized: rows outgrow their build-time slots, relocate to the
  // tail, and the arena compacts — every row must still equal the oracle
  // bit for bit, and the accounting must match a recount.
  constexpr NodeId kRows = 200;
  for (const uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    std::vector<OracleRow> oracle(kRows);
    FlatWeightRows rows;
    rows.Build(kRows, nullptr, [&](NodeId v, auto emit) {
      const double w = 1.0 + static_cast<double>(v % 5);
      emit(0, w);
    });
    for (NodeId v = 0; v < kRows; ++v) {
      OracleAdd(oracle[v], 0, 1.0 + static_cast<double>(v % 5));
    }
    ColorId newest = 0;  // Move targets the newest key, as the refiner does
    MoveBranches seen;
    for (int op = 0; op < 20000; ++op) {
      const NodeId v = static_cast<NodeId>(rng.NextBounded(kRows));
      const double w = DrawWeight(rng);
      switch (rng.NextBounded(8)) {
        case 0: {
          const ColorId key =
              static_cast<ColorId>(rng.NextBounded(newest + 1));
          rows.Add(v, key, w);
          OracleAdd(oracle[v], key, w);
          break;
        }
        case 1: {
          const ColorId key =
              static_cast<ColorId>(rng.NextBounded(newest + 1));
          rows.Subtract(v, key, w);
          OracleAdd(oracle[v], key, -w);
          break;
        }
        case 2: {
          // Cancel an existing entry exactly, freeing room in its row.
          if (oracle[v].empty()) break;
          const auto it = oracle[v].begin();
          const ColorId key = it->first;
          const double cancel = -it->second;
          rows.Add(v, key, cancel);
          OracleAdd(oracle[v], key, cancel);
          break;
        }
        case 3:
          ++newest;
          break;
        case 4: {
          // Move an entry's whole weight: `from` cancels and is erased.
          const auto it = oracle[v].begin();
          if (it == oracle[v].end() || it->first >= newest) break;
          const ColorId from = it->first;
          const double all = it->second;
          CheckedMove(rows, v, from, newest, all, &seen);
          OracleAdd(oracle[v], from, -all);
          OracleAdd(oracle[v], newest, all);
          break;
        }
        default: {
          if (newest == 0) break;
          const ColorId from = static_cast<ColorId>(rng.NextBounded(newest));
          CheckedMove(rows, v, from, newest, w, &seen);
          OracleAdd(oracle[v], from, -w);
          OracleAdd(oracle[v], newest, w);
          break;
        }
      }
      if (op % 997 == 0) {
        ASSERT_NO_FATAL_FAILURE(ExpectRowEquals(rows, v, oracle[v]));
        ExpectAccountingConsistent(rows, kRows);
      }
    }
    for (NodeId v = 0; v < kRows; ++v) {
      ASSERT_NO_FATAL_FAILURE(ExpectRowEquals(rows, v, oracle[v]));
    }
    ExpectAccountingConsistent(rows, kRows);
    EXPECT_GT(rows.stats().relocations, 0);
    EXPECT_GT(rows.stats().compactions, 0);
    // Every Move branch ran, tolerance drops and negative weights included.
    for (const MoveBranch b : {kKept, kErased, kInserted, kAbsent}) {
      EXPECT_GT(seen.from[b], 0) << "`from` branch " << b;
      EXPECT_GT(seen.to[b], 0) << "`to` branch " << b;
    }
  }
}

TEST(FlatWeightRowsTest, RelocatedRowsSurviveCompaction) {
  // Every row grows one key per round past its exact build-time slot; the
  // abandoned slots pile up until the arena compacts in place.
  constexpr NodeId kRows = 64;
  FlatWeightRows rows;
  rows.Build(kRows, nullptr, [](NodeId v, auto emit) { emit(0, 1.0 + v); });
  std::vector<OracleRow> oracle(kRows);
  for (NodeId v = 0; v < kRows; ++v) OracleAdd(oracle[v], 0, 1.0 + v);
  for (ColorId round = 1; round <= 12; ++round) {
    for (NodeId v = 0; v < kRows; ++v) {
      const double w = 0.5 / round;
      rows.Move(v, 0, round, w);
      OracleAdd(oracle[v], 0, -w);
      OracleAdd(oracle[v], round, w);
    }
  }
  const FlatRowStats stats = rows.stats();
  EXPECT_GE(stats.relocations, kRows);  // every row left its slot
  EXPECT_GT(stats.compactions, 0);
  for (NodeId v = 0; v < kRows; ++v) {
    ASSERT_NO_FATAL_FAILURE(ExpectRowEquals(rows, v, oracle[v]));
  }
  ExpectAccountingConsistent(rows, kRows);
  // Compaction keeps the arena within about twice the live entries.
  EXPECT_LE(stats.arena_capacity, 3 * stats.live);
}

TEST(FlatWeightRowsTest, RepackKeepsRowsAndDropsSlack) {
  // Relocations leave doubled slots and abandoned ones; a repack lays the
  // rows out back to back at their sizes, plus 1/64 of room, and the rows
  // still take the same mutations afterwards.
  constexpr NodeId kRows = 48;
  FlatWeightRows rows;
  rows.Build(kRows, nullptr, [](NodeId v, auto emit) { emit(0, 2.0 + v); });
  std::vector<OracleRow> oracle(kRows);
  for (NodeId v = 0; v < kRows; ++v) OracleAdd(oracle[v], 0, 2.0 + v);
  for (ColorId round = 1; round <= 5; ++round) {
    for (NodeId v = 0; v < kRows; v += 1 + round % 2) {
      rows.Move(v, 0, round, 0.25);
      OracleAdd(oracle[v], 0, -0.25);
      OracleAdd(oracle[v], round, 0.25);
    }
  }
  ASSERT_GT(rows.stats().arena_capacity, rows.stats().live);
  rows.Repack();
  const FlatRowStats stats = rows.stats();
  EXPECT_EQ(stats.dead, 0);
  EXPECT_EQ(stats.used, stats.live);
  EXPECT_EQ(stats.arena_capacity, stats.live + stats.live / 64);
  for (NodeId v = 0; v < kRows; ++v) {
    EXPECT_EQ(rows.SlotCapacity(v), static_cast<int64_t>(oracle[v].size()));
    ASSERT_NO_FATAL_FAILURE(ExpectRowEquals(rows, v, oracle[v]));
  }
  ExpectAccountingConsistent(rows, kRows);
  for (NodeId v = 0; v < kRows; ++v) {
    rows.Add(v, 9, 1.0);
    OracleAdd(oracle[v], 9, 1.0);
    ASSERT_NO_FATAL_FAILURE(ExpectRowEquals(rows, v, oracle[v]));
  }
  ExpectAccountingConsistent(rows, kRows);
}

TEST(FlatWeightRowsTest, AssignOverwritesInsertsAndErases) {
  FlatWeightRows rows;
  rows.Build(2, nullptr, [](NodeId v, auto emit) {
    if (v == 0) {
      emit(1, 3.0);
      emit(4, 5.0);
    }
  });
  const auto sum_of = [](std::vector<double> weights) {
    FlatWeightRows::KeySum sum;
    for (const double w : weights) sum.Add(w);
    return sum;
  };
  // An overwrite, an insert (the sub-tolerance first weight skipped), an
  // erase (the sum cancels), and an absent key that stays absent.
  rows.Assign(0, 4, sum_of({2.0, 0.5}));
  rows.Assign(0, 2, sum_of({1e-13, 7.0}));
  rows.Assign(0, 1, sum_of({1.0, -1.0}));
  rows.Assign(1, 3, sum_of({}));
  ExpectRowEquals(rows, 0, {{2, 7.0}, {4, 2.5}});
  ExpectRowEquals(rows, 1, {});
  ExpectAccountingConsistent(rows, 2);
}

TEST(EpochScratchTest, SlotsResetLogicallyAcrossEpochs) {
  EpochScratch<double> scratch;
  scratch.Grow(4);
  scratch.NewEpoch();
  bool fresh = false;
  scratch.Slot(2, &fresh) = 5.0;
  EXPECT_TRUE(fresh);
  scratch.Slot(2, &fresh) += 1.0;
  EXPECT_FALSE(fresh);
  EXPECT_DOUBLE_EQ(scratch.At(2), 6.0);
  EXPECT_TRUE(scratch.Contains(2));
  EXPECT_FALSE(scratch.Contains(3));

  // Next epoch: same physical slot, logically default again.
  scratch.NewEpoch();
  EXPECT_FALSE(scratch.Contains(2));
  EXPECT_DOUBLE_EQ(scratch.Slot(2, &fresh), 0.0);
  EXPECT_TRUE(fresh);
}

TEST(EpochScratchTest, TouchedListsKeysInFirstTouchOrder) {
  EpochScratch<char> scratch;
  scratch.Grow(10);
  scratch.NewEpoch();
  scratch.Touch(7);
  scratch.Touch(1);
  scratch.Touch(7);  // re-touch must not duplicate
  scratch.Touch(4);
  EXPECT_EQ(scratch.touched(), (std::vector<ColorId>{7, 1, 4}));
  scratch.NewEpoch();
  EXPECT_TRUE(scratch.touched().empty());
}

TEST(EpochScratchTest, GrowPreservesCurrentEpochContents) {
  EpochScratch<int> scratch;
  scratch.Grow(2);
  scratch.NewEpoch();
  bool fresh = false;
  scratch.Slot(1, &fresh) = 42;
  scratch.Grow(8);  // mid-epoch growth (a split created new colors)
  EXPECT_TRUE(scratch.Contains(1));
  EXPECT_EQ(scratch.At(1), 42);
  EXPECT_FALSE(scratch.Contains(5));
}

}  // namespace
}  // namespace qsc
