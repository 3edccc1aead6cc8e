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
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/flow/approx_flow.h"
#include "qsc/graph/graph.h"
#include "qsc/graph/graph_store.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/model.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
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

// --- derived artifacts ----------------------------------------------------
//
// The reduced graphs, pivot scores and reduced LPs a session memoizes on
// its snapshots are counted in the byte budget and evicted with their
// entry. Each is a pure function of its snapshot, so evicting or dropping
// one cannot change an answer.

enum class ArtifactCall {
  kFlow,
  kFlowLower,
  kBatch,
  kCentralityA,
  kCentralityB,
  kLpSqrt,
  kLpGrohe,
};

// The first four calls fill the cache; the rest add new artifacts and
// repeat the first ones, so a budget sized after call 4 evicts midway.
const std::vector<ArtifactCall>& ArtifactSequence() {
  using C = ArtifactCall;
  static const std::vector<C> sequence = {
      C::kFlow,      C::kCentralityA, C::kLpSqrt,      C::kFlow,
      C::kFlowLower, C::kBatch,       C::kCentralityB, C::kLpGrohe,
      C::kCentralityA, C::kLpSqrt,    C::kFlow,        C::kBatch,
      C::kFlowLower, C::kCentralityB, C::kLpGrohe};
  return sequence;
}
constexpr int kArtifactPrefix = 4;

constexpr ColorId kArtifactBudget = 12;
constexpr double kLowerTol = 1e-4;
const std::vector<std::pair<NodeId, NodeId>> kArtifactPairs = {
    {0, 59}, {1, 58}, {0, 59}, {1, 58}};

// Derived-artifact requests one call makes (a batch makes one per pair).
int64_t ArtifactRequests(ArtifactCall call) {
  return call == ArtifactCall::kBatch
             ? static_cast<int64_t>(kArtifactPairs.size())
             : 1;
}

QueryOptions ArtifactQuery(ArtifactCall call) {
  QueryOptions query;
  query.max_colors = kArtifactBudget;
  query.compute_lower_bound = call == ArtifactCall::kFlowLower;
  query.uniform_flow_tol = kLowerTol;
  query.seed = call == ArtifactCall::kCentralityB ? 23 : 17;
  query.lp_variant = call == ArtifactCall::kLpGrohe
                         ? LpReduction::kGrohe
                         : LpReduction::kSqrtNormalized;
  return query;
}

// Everything a call answers, flattened for a bitwise comparison.
std::vector<double> SessionAnswer(Compressor& session, const LpProblem& lp,
                                  ArtifactCall call) {
  const QueryOptions query = ArtifactQuery(call);
  std::vector<double> answer;
  switch (call) {
    case ArtifactCall::kFlow:
    case ArtifactCall::kFlowLower: {
      const auto flow = session.MaxFlow(0, 59, query);
      QSC_CHECK_OK(flow);
      answer = {flow->upper_bound, flow->lower_bound, flow->max_q};
      break;
    }
    case ArtifactCall::kBatch: {
      const auto batch = session.MaxFlowBatch(kArtifactPairs, query);
      QSC_CHECK_OK(batch);
      for (const FlowQueryResult& flow : *batch) {
        answer.push_back(flow.upper_bound);
      }
      break;
    }
    case ArtifactCall::kCentralityA:
    case ArtifactCall::kCentralityB: {
      const auto centrality = session.Centrality(query);
      QSC_CHECK_OK(centrality);
      answer = centrality->scores;
      break;
    }
    case ArtifactCall::kLpSqrt:
    case ArtifactCall::kLpGrohe: {
      const auto solved = session.SolveLp(lp, query);
      QSC_CHECK_OK(solved);
      answer = solved->reduced.lp.c;
      answer.push_back(solved->solution.objective);
      answer.insert(answer.end(), solved->lifted_x.begin(),
                    solved->lifted_x.end());
      break;
    }
  }
  return answer;
}

// The same answer from the layer functions, with no session.
std::vector<double> DirectAnswer(const Graph& g, const LpProblem& lp,
                                 ArtifactCall call) {
  const QueryOptions query = ArtifactQuery(call);
  std::vector<double> answer;
  switch (call) {
    case ArtifactCall::kFlow:
    case ArtifactCall::kFlowLower: {
      FlowApproxOptions options;
      options.rothko.max_colors = kArtifactBudget;
      options.compute_lower_bound = query.compute_lower_bound;
      options.uniform_flow_tol = kLowerTol;
      const FlowApproxResult flow = ApproximateMaxFlow(g, 0, 59, options);
      RothkoRefiner refiner(
          g, InitialPartition(SpecWithPins(options.rothko.split_mean, {0, 59}),
                              g.num_nodes()),
          options.rothko);
      refiner.Run();
      answer = {flow.upper_bound, flow.lower_bound, refiner.CurrentMaxError()};
      break;
    }
    case ArtifactCall::kBatch: {
      FlowApproxOptions options;
      options.rothko.max_colors = kArtifactBudget;
      for (const auto& [s, t] : kArtifactPairs) {
        answer.push_back(ApproximateMaxFlow(g, s, t, options).upper_bound);
      }
      break;
    }
    case ArtifactCall::kCentralityA:
    case ArtifactCall::kCentralityB: {
      ColorPivotOptions options;
      options.rothko.max_colors = kArtifactBudget;
      options.seed = query.seed;
      answer = ApproximateBetweenness(g, options).scores;
      break;
    }
    case ArtifactCall::kLpSqrt:
    case ArtifactCall::kLpGrohe: {
      LpReduceOptions options;
      options.max_colors = kArtifactBudget;
      options.variant = query.lp_variant;
      const ReducedLp reduced = ReduceLp(lp, options);
      const LpResult solution = SolveSimplex(reduced.lp);
      answer = reduced.lp.c;
      answer.push_back(solution.objective);
      if (solution.status == LpStatus::kOptimal) {
        const std::vector<double> lifted = LiftSolution(reduced, solution.x);
        answer.insert(answer.end(), lifted.begin(), lifted.end());
      }
      break;
    }
  }
  return answer;
}

TEST(CacheEvictionTest, EvictingDerivedArtifactsNeverChangesAnAnswer) {
  const Graph g = CorpusGraph(9, /*directed=*/true);
  const LpProblem lp = MakeQapLikeLp(6, 3);
  const std::vector<ArtifactCall>& calls = ArtifactSequence();

  std::vector<std::vector<double>> direct;
  for (const ArtifactCall call : calls) {
    direct.push_back(DirectAnswer(g, lp, call));
  }

  // Unbudgeted: the reference answers and the footprint after each call.
  Compressor unbudgeted{Graph(g)};
  std::vector<int64_t> bytes_after;
  int64_t requests = 0;
  for (size_t i = 0; i < calls.size(); ++i) {
    SCOPED_TRACE("unbudgeted call " + std::to_string(i));
    EXPECT_EQ(SessionAnswer(unbudgeted, lp, calls[i]), direct[i]);
    bytes_after.push_back(unbudgeted.stats().coloring.bytes_in_use);
    requests += ArtifactRequests(calls[i]);
  }
  // The first Centrality memoizes one score per node on its snapshot.
  ASSERT_EQ(calls[1], ArtifactCall::kCentralityA);
  EXPECT_GE(bytes_after[1] - bytes_after[0],
            static_cast<int64_t>(g.num_nodes() * sizeof(double)));
  // One build per (snapshot, key): each spec serves one snapshot at the
  // fixed budget; the flow spec of (0, 59) holds the c^2 and the
  // lower-bound artifacts, (1, 58) its c^2 one, the centrality spec two
  // seeds and the LP spec two variants.
  const CacheStats reference = unbudgeted.stats().coloring;
  EXPECT_EQ(reference.evictions, 0);
  EXPECT_EQ(reference.derived_builds, 7);
  EXPECT_EQ(reference.derived_builds + reference.derived_hits, requests);

  const int64_t midway = bytes_after[kArtifactPrefix - 1];
  for (const int64_t budget : {int64_t{1}, midway}) {
    SCOPED_TRACE("byte budget " + std::to_string(budget));
    CompressorOptions options;
    options.coloring_cache_byte_budget = budget;
    Compressor budgeted(Graph(g), /*pool=*/nullptr, options);
    for (size_t i = 0; i < calls.size(); ++i) {
      SCOPED_TRACE("call " + std::to_string(i));
      EXPECT_EQ(SessionAnswer(budgeted, lp, calls[i]), direct[i]);
      const CacheStats stats = budgeted.stats().coloring;
      EXPECT_LE(stats.bytes_in_use, budget);
      if (budget == midway && i + 1 == kArtifactPrefix) {
        EXPECT_EQ(stats.evictions, 0);
      }
    }
    const CacheStats stats = budgeted.stats().coloring;
    EXPECT_GT(stats.evictions, 0);
    EXPECT_EQ(stats.derived_builds + stats.derived_hits, requests);
    EXPECT_GT(stats.derived_builds, reference.derived_builds);
    if (budget == 1) {
      // Nothing survives a call, so every request builds.
      EXPECT_EQ(stats.derived_hits, 0);
      EXPECT_EQ(stats.bytes_in_use, 0);
    }
  }
}

}  // namespace
}  // namespace qsc
