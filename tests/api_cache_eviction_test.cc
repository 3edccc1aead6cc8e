// The byte-budgeted ColoringCache's eviction contract
// (qsc/api/coloring_cache.h): eviction frees memory, never changes a
// result. The differential oracle here runs over the shared 56-graph
// property corpus (tests/rothko_corpus.h): for every (graph, split-mean)
// cell, a spec is queried, evicted under byte pressure, and re-queried —
// the recomputed partition must be bitwise equal to the evicted one, and
// bytes_in_use must respect the budget after every operation (the cache
// is single-threaded here, so no entry is pinned when eviction runs).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "qsc/api/coloring_cache.h"
#include "qsc/api/compressor.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph.h"
#include "qsc/graph/graph_store.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/model.h"
#include "qsc/lp/reduce.h"
#include "rothko_corpus.h"

namespace qsc {
namespace {

using testing_corpus::CorpusGraph;
using testing_corpus::CorpusSeeds;

std::shared_ptr<const Graph> Shared(Graph g) {
  return std::make_shared<const Graph>(std::move(g));
}

ColoringSpec SpecWithPins(RothkoOptions::SplitMean split_mean,
                          std::vector<NodeId> pinned) {
  ColoringSpec spec;
  spec.split_mean = split_mean;
  spec.pinned = std::move(pinned);
  return spec;
}

void CheckStatsReconcile(const CacheStats& stats) {
  EXPECT_EQ(stats.hits + stats.misses + stats.recolorings, stats.lookups);
  EXPECT_GE(stats.bytes_in_use, 0);
  EXPECT_GE(stats.peak_bytes, stats.bytes_in_use);
}

// The corpus-wide oracle: evict-then-requery is bitwise invisible, and
// the budget holds after every operation.
TEST(CacheEvictionTest, EvictedSpecRecomputesBitIdenticallyAcrossCorpus) {
  const std::vector<RothkoOptions::SplitMean> means = {
      RothkoOptions::SplitMean::kArithmetic,
      RothkoOptions::SplitMean::kGeometric};
  for (const uint64_t seed : CorpusSeeds()) {
    for (const bool directed : {false, true}) {
      const auto graph = Shared(CorpusGraph(seed, directed));
      for (const auto mean : means) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " directed=" + std::to_string(directed) +
                     " geometric=" +
                     std::to_string(mean ==
                                    RothkoOptions::SplitMean::kGeometric));
        const ColoringSpec spec_a = SpecWithPins(mean, {});
        const ColoringSpec spec_b = SpecWithPins(mean, {0});
        const ColorId budget = 12;

        // Reference pass, unbudgeted: the partition to reproduce and the
        // footprint of one warm entry (the byte budget below).
        ColoringCache reference(graph);
        const auto want = reference.Refine(spec_a, budget);
        const int64_t one_entry_bytes = reference.stats().bytes_in_use;
        ASSERT_GT(one_entry_bytes, 0);

        // Budgeted cache sized for exactly one entry: serving a second
        // spec must evict the first.
        ColoringCacheOptions options;
        options.byte_budget = one_entry_bytes;
        ColoringCache cache(graph, /*pool=*/nullptr, options);

        const auto first = cache.Refine(spec_a, budget);
        EXPECT_EQ(*first.partition, *want.partition);
        EXPECT_EQ(first.max_error, want.max_error);
        EXPECT_LE(cache.stats().bytes_in_use, options.byte_budget);

        cache.Refine(spec_b, budget);
        const CacheStats after_b = cache.stats();
        EXPECT_LE(after_b.bytes_in_use, options.byte_budget);
        EXPECT_GE(after_b.evictions, 1);

        // Re-query the evicted spec: a recompute-from-scratch miss whose
        // partition and q-error are bitwise equal to the evicted run.
        const auto again = cache.Refine(spec_a, budget);
        EXPECT_EQ(*again.partition, *want.partition);
        EXPECT_EQ(again.max_error, want.max_error);
        EXPECT_FALSE(again.cache_hit);

        const CacheStats final_stats = cache.stats();
        EXPECT_LE(final_stats.bytes_in_use, options.byte_budget);
        EXPECT_EQ(final_stats.misses, 3);  // a, b, and re-queried a
        CheckStatsReconcile(final_stats);
      }
    }
  }
}

// Anytime continuation composes with eviction: refine up-budget, evict,
// re-query at the continued budget — still bitwise equal.
TEST(CacheEvictionTest, UpBudgetContinuationSurvivesEviction) {
  for (const uint64_t seed : {uint64_t{3}, uint64_t{11}}) {
    const auto graph = Shared(CorpusGraph(seed, /*directed=*/true));
    const ColoringSpec spec_a =
        SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {});
    const ColoringSpec spec_b =
        SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {1, 2});

    ColoringCache reference(graph);
    reference.Refine(spec_a, 8);
    const auto continued = reference.Refine(spec_a, 20);
    const int64_t warm_bytes = reference.stats().bytes_in_use;

    ColoringCacheOptions options;
    options.byte_budget = warm_bytes;
    ColoringCache cache(graph, /*pool=*/nullptr, options);
    cache.Refine(spec_a, 8);
    const auto up = cache.Refine(spec_a, 20);
    EXPECT_EQ(*up.partition, *continued.partition);

    cache.Refine(spec_b, 20);  // evicts spec_a
    EXPECT_GE(cache.stats().evictions, 1);
    EXPECT_LE(cache.stats().bytes_in_use, options.byte_budget);

    const auto again = cache.Refine(spec_a, 20);
    EXPECT_EQ(*again.partition, *continued.partition);
    EXPECT_EQ(again.max_error, continued.max_error);
    CheckStatsReconcile(cache.stats());
  }
}

// An unbudgeted cache never evicts but still meters its footprint.
TEST(CacheEvictionTest, UnbudgetedCacheTracksBytesWithoutEvicting) {
  const auto graph = Shared(CorpusGraph(5, /*directed=*/false));
  ColoringCache cache(graph);
  int64_t last_bytes = 0;
  for (const NodeId pin : {0, 1, 2, 3}) {
    cache.Refine(SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {pin}),
                 16);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 0);
    EXPECT_GT(stats.bytes_in_use, last_bytes);  // one more live entry
    EXPECT_EQ(stats.peak_bytes, stats.bytes_in_use);
    last_bytes = stats.bytes_in_use;
  }
  EXPECT_EQ(cache.num_entries(), 4);
}

// A budget smaller than any single entry degenerates to cache-nothing:
// every request recomputes, every result still exact, and the cache
// empties after each call.
TEST(CacheEvictionTest, TinyBudgetDegeneratesToCacheNothing) {
  const auto graph = Shared(CorpusGraph(7, /*directed=*/true));
  const ColoringSpec spec =
      SpecWithPins(RothkoOptions::SplitMean::kArithmetic, {});

  ColoringCache reference(graph);
  const auto want = reference.Refine(spec, 12);

  ColoringCacheOptions options;
  options.byte_budget = 1;
  ColoringCache cache(graph, /*pool=*/nullptr, options);
  for (int i = 0; i < 3; ++i) {
    const auto got = cache.Refine(spec, 12);
    EXPECT_EQ(*got.partition, *want.partition);
    EXPECT_FALSE(got.cache_hit);
    EXPECT_EQ(cache.num_entries(), 0);
    EXPECT_EQ(cache.stats().bytes_in_use, 0);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.evictions, 3);
  CheckStatsReconcile(stats);
}

// CompressorOptions plumbs the budget through to the session cache, and
// eviction stays invisible at the query API.
TEST(CacheEvictionTest, CompressorByteBudgetIsTransparent) {
  Graph g = CorpusGraph(9, /*directed=*/true);
  Compressor unbudgeted{Graph(g)};

  CompressorOptions options;
  options.coloring_cache_byte_budget = 1;  // evict after every query
  Compressor budgeted(std::move(g), /*pool=*/nullptr, options);

  QueryOptions query;
  query.max_colors = 12;
  for (const auto& [s, t] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 59}, {1, 58}, {0, 59}, {2, 57}}) {
    const auto want = unbudgeted.MaxFlow(s, t, query);
    const auto got = budgeted.MaxFlow(s, t, query);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->upper_bound, want->upper_bound);
    EXPECT_EQ(*got->coloring, *want->coloring);
  }
  const CompressorStats stats = budgeted.stats();
  EXPECT_GE(stats.coloring.evictions, 3);
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_GT(stats.coloring.peak_bytes, 0);
  // Every repeated query is a recompute-miss under the tiny budget.
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
}

// LP entries (SolveLp's matrix colorings) live in the same budgeted
// cache: under a budget that evicts after every query, repeated and
// interleaved LPs still answer exactly as an unbudgeted session does.
TEST(CacheEvictionTest, SolveLpByteBudgetIsTransparent) {
  CompressorOptions options;
  options.coloring_cache_byte_budget = 1;
  // A null graph makes an LP-only session that still takes options.
  Compressor budgeted(std::shared_ptr<const Graph>(), /*pool=*/nullptr,
                      options);
  Compressor unbudgeted;

  const LpProblem a = MakeQapLikeLp(6, 3);
  const LpProblem b = MakeBlockLp({});
  QueryOptions query;
  int step = 0;
  for (const LpProblem* lp : {&a, &a, &b, &a, &b, &b}) {
    query.max_colors = 8 + 4 * (step++ % 3);  // up and down budgets
    const auto want = unbudgeted.SolveLp(*lp, query);
    const auto got = budgeted.SolveLp(*lp, query);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->reduced.row_color, want->reduced.row_color);
    EXPECT_EQ(got->reduced.col_color, want->reduced.col_color);
    EXPECT_EQ(got->reduced.max_q, want->reduced.max_q);
    EXPECT_EQ(got->solution.objective, want->solution.objective);
    EXPECT_EQ(got->lifted_x, want->lifted_x);
    EXPECT_EQ(budgeted.stats().coloring.bytes_in_use, 0);
  }
  const CompressorStats stats = budgeted.stats();
  EXPECT_GT(stats.coloring.evictions, 0);
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_GT(stats.coloring.peak_bytes, 0);
  // Every lookup recomputes under the tiny budget.
  EXPECT_EQ(stats.lp_lookups, 6);
  EXPECT_EQ(stats.lp_misses, 6);
  EXPECT_EQ(stats.lp_hits + stats.lp_misses + stats.lp_recolorings,
            stats.lp_lookups);
  EXPECT_GT(unbudgeted.stats().coloring.bytes_in_use, 0);
  EXPECT_EQ(unbudgeted.stats().coloring.evictions, 0);
}

// A lookup may lend its LP (a non-owning pointer): the cache keeps its own
// copy, so the entry outlives the lent object and an equal LP in another
// object hits it.
TEST(CacheEvictionTest, LpSpecKeepsItsOwnCopyOfALentLp) {
  ColoringCache cache(GraphStore(), /*pool=*/nullptr);
  ColoringSpec spec;
  spec.alpha = 1.0;
  std::shared_ptr<const Partition> first;
  {
    const LpProblem lent = MakeQapLikeLp(6, 3);
    spec.lp = std::shared_ptr<const LpProblem>(
        std::shared_ptr<const LpProblem>(), &lent);
    spec.lp_fingerprint = FingerprintLp(lent);
    first = cache.Refine(spec, 12).partition;
  }
  const LpProblem again = MakeQapLikeLp(6, 3);
  spec.lp = std::shared_ptr<const LpProblem>(
      std::shared_ptr<const LpProblem>(), &again);
  EXPECT_EQ(spec.lp_fingerprint, FingerprintLp(again));
  const ColoringCache::Handle hit = cache.Refine(spec, 16);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(cache.num_entries(), 1);
  EXPECT_EQ(hit.partition->num_colors(), 16);
  EXPECT_EQ(first->num_colors(), 12);

  LpReduceOptions cold;
  cold.max_colors = 16;
  const ReducedLp want = ReduceLp(again, cold);
  const ReducedLp got =
      ExtractReducedLp(again, *hit.partition, LpReduction::kSqrtNormalized);
  EXPECT_EQ(got.row_color, want.row_color);
  EXPECT_EQ(got.col_color, want.col_color);
  EXPECT_EQ(hit.max_error, want.max_q);
}

}  // namespace
}  // namespace qsc
