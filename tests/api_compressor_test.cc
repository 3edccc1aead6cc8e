// qsc::Compressor: boundary validation (every rejection the api_redesign
// issue lists), equivalence of session queries with the legacy one-shot
// entry points, batch-vs-loop identity, and cache/telemetry semantics.

#include "qsc/api/compressor.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/backend.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/coloring/rothko.h"
#include "qsc/flow/approx_flow.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t DoubleBits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

FlowInstance TestInstance(uint64_t seed = 1) {
  Rng rng(seed);
  return GridFlowNetwork(10, 6, 10, 20, rng);
}

Graph TestGraph(uint64_t seed = 11) {
  Rng rng(seed);
  return BarabasiAlbert(300, 3, rng);
}

// --- option validation ----------------------------------------------------

TEST(CompressorValidationTest, RejectsZeroMaxColors) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.max_colors = 0;
  const auto result = session.Coloring(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("max_colors"), std::string::npos);
}

TEST(CompressorValidationTest, RejectsNegativeMaxColors) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.max_colors = -5;
  EXPECT_EQ(session.Centrality(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsNegativeQTolerance) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.q_tolerance = -0.5;
  const auto result = session.Coloring(query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("q_tolerance"), std::string::npos);
}

TEST(CompressorValidationTest, RejectsNonFiniteAlphaBeta) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.alpha = kNaN;
  EXPECT_EQ(session.Coloring(query).status().code(),
            StatusCode::kInvalidArgument);
  query.alpha.reset();
  query.beta = kInf;
  EXPECT_EQ(session.Coloring(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsOutOfRangeTerminals) {
  FlowInstance instance = TestInstance();
  const NodeId n = instance.graph.num_nodes();
  Compressor session(std::move(instance.graph));
  EXPECT_EQ(session.MaxFlow(-1, instance.sink).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.MaxFlow(n, instance.sink).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.MaxFlow(instance.source, n + 7).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      session.MaxFlow(instance.source, instance.source).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsOutOfRangePins) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.pinned = {0, session.graph().num_nodes()};
  EXPECT_EQ(session.Coloring(query).status().code(),
            StatusCode::kInvalidArgument);
  query.pinned = {3, 3};
  const auto dup = session.Coloring(query);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate"), std::string::npos);

  // Long pin lists are validated in one linear pass; the first bad pin
  // is still the one reported.
  const NodeId n = session.graph().num_nodes();
  std::vector<NodeId> every_node(n);
  for (NodeId v = 0; v < n; ++v) every_node[v] = v;
  query.pinned = every_node;
  query.pinned.push_back(n);
  const auto out_of_range = session.Coloring(query);
  ASSERT_FALSE(out_of_range.ok());
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out_of_range.status().message(),
            "pinned node id " + std::to_string(n) + " out of range [0, " +
                std::to_string(n) + ")");
  query.pinned = every_node;
  query.pinned.push_back(n / 2);
  const auto repeat = session.Coloring(query);
  ASSERT_FALSE(repeat.ok());
  EXPECT_EQ(repeat.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(repeat.status().message(),
            "duplicate pinned node id " + std::to_string(n / 2));
}

TEST(CompressorValidationTest, RejectsUndirectedMaxFlow) {
  Compressor session(TestGraph());  // Barabasi-Albert is undirected
  const auto result = session.MaxFlow(0, 1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsExplicitPinsInMaxFlow) {
  FlowInstance instance = TestInstance();
  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.pinned = {0};
  EXPECT_EQ(
      session.MaxFlow(instance.source, instance.sink, query).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsBadPivotsPerColor) {
  Compressor session(TestGraph());
  QueryOptions query;
  query.pivots_per_color = 0;
  EXPECT_EQ(session.Centrality(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsLpBudgetBelowFour) {
  Compressor session;
  QueryOptions query;
  query.max_colors = 3;
  EXPECT_EQ(session.SolveLp(Figure3Lp(), query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CompressorValidationTest, RejectsMalformedLp) {
  Compressor session;
  LpProblem lp;
  lp.num_rows = 1;
  lp.num_cols = 1;
  lp.entries = {{0, 5, 1.0}};  // column out of range
  lp.b = {1.0};
  lp.c = {1.0};
  EXPECT_FALSE(session.SolveLp(lp).ok());
}

TEST(CompressorValidationTest, GraphQueriesNeedAGraph) {
  Compressor session;  // LP-only
  EXPECT_FALSE(session.has_graph());
  EXPECT_EQ(session.Coloring().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.MaxFlow(0, 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Centrality().status().code(),
            StatusCode::kFailedPrecondition);
  // ... but LP queries work.
  EXPECT_TRUE(session.SolveLp(Figure3Lp()).ok());
}

TEST(CompressorValidationTest, BatchValidatesBeforeServing) {
  FlowInstance instance = TestInstance();
  Compressor session(std::move(instance.graph));
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {instance.source, instance.sink}, {instance.source, -3}};
  EXPECT_EQ(session.MaxFlowBatch(pairs).status().code(),
            StatusCode::kInvalidArgument);
  // The valid first pair must not have been served.
  EXPECT_EQ(session.stats().coloring.lookups, 0);
}

// --- equivalence with the legacy one-shot entry points --------------------

TEST(CompressorTest, MaxFlowMatchesLegacyEntryPoint) {
  FlowInstance instance = TestInstance(3);
  FlowApproxOptions legacy_options;
  legacy_options.rothko.max_colors = 12;
  legacy_options.compute_lower_bound = true;
  const FlowApproxResult legacy = ApproximateMaxFlow(
      instance.graph, instance.source, instance.sink, legacy_options);

  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 12;
  query.compute_lower_bound = true;
  const auto result = session.MaxFlow(instance.source, instance.sink, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->upper_bound, legacy.upper_bound);
  EXPECT_EQ(result->lower_bound, legacy.lower_bound);
  EXPECT_EQ(result->num_colors, legacy.num_colors);
  EXPECT_TRUE(*result->coloring == legacy.coloring);
}

TEST(CompressorTest, CentralityMatchesLegacyEntryPoint) {
  Graph g = TestGraph(29);
  ColorPivotOptions legacy_options;
  legacy_options.rothko.max_colors = 24;
  legacy_options.seed = 99;
  const ApproxBetweennessResult legacy =
      ApproximateBetweenness(g, legacy_options);

  Compressor session(std::move(g));
  QueryOptions query;
  query.max_colors = 24;
  query.seed = 99;
  const auto result = session.Centrality(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_colors, legacy.num_colors);
  EXPECT_EQ(result->scores, legacy.scores);  // bitwise
  EXPECT_TRUE(*result->coloring == legacy.coloring);
}

TEST(CompressorTest, SolveLpMatchesLegacyReduceAndSolve) {
  const LpProblem lp = MakeQapLikeLp(6, 3);
  LpReduceOptions legacy_options;
  legacy_options.max_colors = 16;
  const ReducedLp legacy = ReduceLp(lp, legacy_options);
  const LpResult legacy_solve = SolveSimplex(legacy.lp);

  Compressor session;
  QueryOptions query;
  query.max_colors = 16;
  const auto result = session.SolveLp(lp, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reduced.lp.num_rows, legacy.lp.num_rows);
  EXPECT_EQ(result->reduced.lp.num_cols, legacy.lp.num_cols);
  EXPECT_EQ(result->reduced.row_color, legacy.row_color);
  EXPECT_EQ(result->reduced.col_color, legacy.col_color);
  EXPECT_EQ(result->solution.objective, legacy_solve.objective);
  if (result->solution.status == LpStatus::kOptimal) {
    EXPECT_EQ(result->lifted_x, LiftSolution(legacy, legacy_solve.x));
  }
}

TEST(CompressorTest, ColoringMatchesRothkoColoring) {
  Graph g = TestGraph(41);
  RothkoOptions rothko;
  rothko.max_colors = 20;
  const Partition fresh = RothkoColoring(g, rothko);

  Compressor session(std::move(g));
  QueryOptions query;
  query.max_colors = 20;
  const auto result = session.Coloring(query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result->coloring == fresh);
}

// --- cache semantics and telemetry ----------------------------------------

TEST(CompressorTest, RepeatedQueriesShareOneColoring) {
  FlowInstance instance = TestInstance(5);
  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 10;

  const auto first = session.MaxFlow(instance.source, instance.sink, query);
  const auto second = session.MaxFlow(instance.source, instance.sink, query);
  const auto third = session.MaxFlow(instance.source, instance.sink, query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(third.ok());

  EXPECT_FALSE(first->telemetry.coloring_cache_hit);
  EXPECT_TRUE(second->telemetry.coloring_cache_hit);
  EXPECT_TRUE(third->telemetry.coloring_cache_hit);
  EXPECT_EQ(second->telemetry.coloring_splits, 0);
  // The snapshot is shared, not copied per query.
  EXPECT_EQ(first->coloring.get(), second->coloring.get());
  EXPECT_EQ(first->coloring.get(), third->coloring.get());
  EXPECT_EQ(first->upper_bound, third->upper_bound);

  const CompressorStats& stats = session.stats();
  EXPECT_EQ(stats.coloring.lookups, 3);
  EXPECT_EQ(stats.coloring.misses, 1);
  EXPECT_EQ(stats.coloring.hits, 2);
}

TEST(CompressorTest, DistinctSpecsGetDistinctEntries) {
  Graph g = TestGraph(7);
  Compressor session(std::move(g));
  QueryOptions a;
  a.max_colors = 8;
  QueryOptions b = a;
  b.alpha = 1.0;  // different witness weighting -> different spec
  ASSERT_TRUE(session.Coloring(a).ok());
  ASSERT_TRUE(session.Coloring(b).ok());
  EXPECT_EQ(session.stats().coloring.misses, 2);
  EXPECT_EQ(session.stats().coloring.hits, 0);
}

TEST(CompressorTest, DownBudgetQueryMatchesFreshRunAndIsMemoized) {
  Graph g = TestGraph(13);
  RothkoOptions rothko;
  rothko.max_colors = 12;
  const Partition fresh12 = RothkoColoring(g, rothko);

  Compressor session(std::move(g));
  QueryOptions query;
  query.max_colors = 48;
  ASSERT_TRUE(session.Coloring(query).ok());

  query.max_colors = 12;  // below the cached refiner's 48 colors
  const auto down = session.Coloring(query);
  ASSERT_TRUE(down.ok());
  EXPECT_TRUE(*down->coloring == fresh12);
  EXPECT_FALSE(down->telemetry.coloring_cache_hit);
  EXPECT_EQ(session.stats().coloring.recolorings, 1);

  // Served again: memoized snapshot, no recompute.
  const auto again = session.Coloring(query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->telemetry.coloring_cache_hit);
  EXPECT_EQ(again->coloring.get(), down->coloring.get());
  EXPECT_EQ(session.stats().coloring.recolorings, 1);
}

TEST(CompressorTest, MaxFlowBatchMatchesPerQueryLoop) {
  Rng rng(21);
  FlowInstance instance = GridFlowNetwork(12, 8, 10, 30, rng);
  const NodeId n = instance.graph.num_nodes();
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {instance.source, instance.sink},
      {instance.source, instance.sink},  // repeat: shares the coloring
      {0, n - 1},
      {instance.source, instance.sink},
  };
  QueryOptions query;
  query.max_colors = 14;

  Compressor loop_session(Graph{instance.graph});
  std::vector<FlowQueryResult> loop_results;
  for (const auto& [s, t] : pairs) {
    auto r = loop_session.MaxFlow(s, t, query);
    ASSERT_TRUE(r.ok());
    loop_results.push_back(std::move(r).value());
  }

  Compressor batch_session(std::move(instance.graph));
  const auto batch = batch_session.MaxFlowBatch(pairs, query);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ((*batch)[i].upper_bound, loop_results[i].upper_bound) << i;
    EXPECT_EQ((*batch)[i].num_colors, loop_results[i].num_colors) << i;
    EXPECT_TRUE(*(*batch)[i].coloring == *loop_results[i].coloring) << i;
  }
  // 4 queries over 2 distinct (s, t) pin sets: 2 misses, 2 hits.
  EXPECT_EQ(batch_session.stats().coloring.lookups, 4);
  EXPECT_EQ(batch_session.stats().coloring.misses, 2);
  EXPECT_EQ(batch_session.stats().coloring.hits, 2);
}

TEST(CompressorTest, SolveLpReusesMatrixColoringAcrossBudgets) {
  const LpProblem lp = MakeQapLikeLp(6, 3);
  Compressor session;
  QueryOptions query;
  query.max_colors = 8;
  ASSERT_TRUE(session.SolveLp(lp, query).ok());
  query.max_colors = 24;
  const auto finer = session.SolveLp(lp, query);
  ASSERT_TRUE(finer.ok());
  EXPECT_TRUE(finer->telemetry.coloring_cache_hit);
  EXPECT_EQ(session.stats().lp_lookups, 2);
  EXPECT_EQ(session.stats().lp_misses, 1);
  EXPECT_EQ(session.stats().lp_hits, 1);

  // Resumed reduction matches a cold reduction at the finer budget.
  LpReduceOptions cold;
  cold.max_colors = 24;
  const ReducedLp fresh = ReduceLp(lp, cold);
  EXPECT_EQ(finer->reduced.row_color, fresh.row_color);
  EXPECT_EQ(finer->reduced.col_color, fresh.col_color);
  const LpResult fresh_solve = SolveSimplex(fresh.lp);
  EXPECT_EQ(finer->solution.objective, fresh_solve.objective);
}

TEST(CompressorTest, BudgetBelowPinCountServesInitialPartition) {
  // Run() cannot go below the initial color count (terminals + rest), and
  // neither can the session — without taking the down-budget recompute
  // path or misreporting stats.
  FlowInstance instance = TestInstance(17);
  FlowApproxOptions cold;
  cold.rothko.max_colors = 1;
  const FlowApproxResult legacy = ApproximateMaxFlow(
      instance.graph, instance.source, instance.sink, cold);
  EXPECT_EQ(legacy.num_colors, 3);

  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 1;
  const auto result = session.MaxFlow(instance.source, instance.sink, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_colors, 3);
  EXPECT_EQ(result->upper_bound, legacy.upper_bound);
  EXPECT_EQ(session.stats().coloring.recolorings, 0);
}

TEST(CompressorTest, SolveLpDownBudgetMatchesColdAndIsMemoized) {
  const LpProblem lp = MakeQapLikeLp(6, 3);
  Compressor session;
  QueryOptions query;
  query.max_colors = 40;
  ASSERT_TRUE(session.SolveLp(lp, query).ok());

  query.max_colors = 8;  // below the cached matrix coloring's colors
  const auto down = session.SolveLp(lp, query);
  ASSERT_TRUE(down.ok());
  EXPECT_EQ(session.stats().lp_recolorings, 1);
  LpReduceOptions cold;
  cold.max_colors = 8;
  const ReducedLp fresh = ReduceLp(lp, cold);
  EXPECT_EQ(down->reduced.row_color, fresh.row_color);
  EXPECT_EQ(down->reduced.col_color, fresh.col_color);
  EXPECT_EQ(down->solution.objective, SolveSimplex(fresh.lp).objective);

  // Second down-budget query: served from the memo, no recompute.
  const auto again = session.SolveLp(lp, query);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->telemetry.coloring_cache_hit);
  EXPECT_EQ(session.stats().lp_recolorings, 1);
  EXPECT_EQ(again->solution.objective, down->solution.objective);
}

TEST(CompressorTest, SolveLpDistinguishesDifferentLpsByContent) {
  Compressor session;
  const LpProblem a = MakeQapLikeLp(6, 3);
  LpProblem b = a;
  b.c[0] += 1.0;  // different problem, same shape
  ASSERT_TRUE(session.SolveLp(a).ok());
  ASSERT_TRUE(session.SolveLp(b).ok());
  EXPECT_EQ(session.stats().lp_misses, 2);
  EXPECT_EQ(session.stats().lp_hits, 0);
}

TEST(CompressorTest, MovedSessionKeepsServing) {
  FlowInstance instance = TestInstance(9);
  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 8;
  const auto before = session.MaxFlow(instance.source, instance.sink, query);
  ASSERT_TRUE(before.ok());

  Compressor moved = std::move(session);
  const auto after = moved.MaxFlow(instance.source, instance.sink, query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->telemetry.coloring_cache_hit);
  EXPECT_EQ(after->upper_bound, before->upper_bound);
}

// --- coloring backends at the boundary ------------------------------------

TEST(CompressorValidationTest, RejectsUnknownAndMalformedBackends) {
  // Malformed names (cannot canonicalize) are InvalidArgument; well-formed
  // but unregistered names are NotFound listing the registered set. The
  // mapping is uniform across all four query kinds.
  struct Case {
    std::string backend;
    StatusCode code;
  };
  const Case cases[] = {
      {"no-such-backend", StatusCode::kNotFound},
      {"rothko2", StatusCode::kNotFound},
      {"bogus!", StatusCode::kInvalidArgument},
      {"-rothko", StatusCode::kInvalidArgument},
      {"two words", StatusCode::kInvalidArgument},
      {std::string(65, 'a'), StatusCode::kInvalidArgument},
  };

  FlowInstance instance = TestInstance(3);
  Compressor flow_session(std::move(instance.graph));
  Compressor graph_session(TestGraph(19));
  const LpProblem lp = MakeQapLikeLp(6, 3);
  for (const Case& c : cases) {
    QueryOptions query;
    query.backend = c.backend;
    EXPECT_EQ(graph_session.Coloring(query).status().code(), c.code)
        << c.backend;
    EXPECT_EQ(graph_session.Centrality(query).status().code(), c.code)
        << c.backend;
    EXPECT_EQ(flow_session.MaxFlow(instance.source, instance.sink, query)
                  .status()
                  .code(),
              c.code)
        << c.backend;
    EXPECT_EQ(flow_session.SolveLp(lp, query).status().code(), c.code)
        << c.backend;
  }
  // Nothing reached the cache.
  EXPECT_EQ(graph_session.stats().coloring.lookups, 0);
  EXPECT_EQ(flow_session.stats().lp_lookups, 0);
}

TEST(CompressorTest, BackendSpellingsCanonicalizeIntoOneCacheEntry) {
  // "", "rothko", and "  ROTHKO  " are one spec: one miss, then hits
  // serving the same shared snapshot — the hash-compatibility guarantee
  // that pre-registry specs keep their cache identity.
  Compressor session(TestGraph(23));
  QueryOptions query;
  query.max_colors = 10;
  query.backend = "";
  const auto a = session.Coloring(query);
  query.backend = "rothko";
  const auto b = session.Coloring(query);
  query.backend = "  ROTHKO  ";
  const auto c = session.Coloring(query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(a->coloring.get(), b->coloring.get());
  EXPECT_EQ(a->coloring.get(), c->coloring.get());
  EXPECT_EQ(session.stats().coloring.misses, 1);
  EXPECT_EQ(session.stats().coloring.hits, 2);
}

TEST(CompressorTest, DistinctBackendsGetDistinctCacheEntries) {
  Compressor session(TestGraph(29));
  QueryOptions query;
  query.max_colors = 12;
  std::vector<std::shared_ptr<const Partition>> colorings;
  for (const char* backend : {"rothko", "lp-rounding", "bucket"}) {
    query.backend = backend;
    const auto result = session.Coloring(query);
    ASSERT_TRUE(result.ok()) << backend;
    colorings.push_back(result->coloring);
  }
  EXPECT_EQ(session.stats().coloring.misses, 3);
  EXPECT_EQ(session.stats().coloring.hits, 0);

  // Each backend continues its own cached refiner on an up-budget query.
  query.max_colors = 20;
  for (const char* backend : {"rothko", "lp-rounding", "bucket"}) {
    query.backend = backend;
    const auto result = session.Coloring(query);
    ASSERT_TRUE(result.ok()) << backend;
    EXPECT_TRUE(result->telemetry.coloring_cache_hit) << backend;
    EXPECT_GT(result->telemetry.coloring_splits, 0) << backend;
  }
  EXPECT_EQ(session.stats().coloring.misses, 3);
  EXPECT_EQ(session.stats().coloring.hits, 3);
}

TEST(CompressorTest, BackendColoringMatchesDirectBackendRun) {
  // A session query routed by name is bit-identical to driving the
  // registry-created backend directly at the same budget.
  Graph g = TestGraph(31);
  const ColorId budget = 14;
  for (const char* backend_name : {"lp-rounding", "bucket"}) {
    const std::unique_ptr<ColoringBackend> direct =
        ColoringBackendRegistry::Global().Create(
            backend_name, g, Partition::Trivial(g.num_nodes()), {});
    while (direct->partition().num_colors() < budget &&
           direct->Step(budget)) {
    }

    Compressor session(std::shared_ptr<const Graph>(
        std::shared_ptr<const Graph>(), &g));
    QueryOptions query;
    query.max_colors = budget;
    query.backend = backend_name;
    const auto result = session.Coloring(query);
    ASSERT_TRUE(result.ok()) << backend_name;
    ASSERT_EQ(result->coloring->num_colors(),
              direct->partition().num_colors())
        << backend_name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(result->coloring->ColorOf(v), direct->partition().ColorOf(v))
          << backend_name;
    }
  }
}

TEST(CompressorTest, PerBackendStatsReconcile) {
  // The documented reconciliation invariant: per backend row AND in total,
  // hits + misses + recolorings == lookups; the per-backend columns sum to
  // the totals. Exercises all four attribution sites per backend: miss,
  // continuation hit, served hit, down-budget recoloring.
  Compressor session(TestGraph(37));
  for (const char* backend : {"", "lp-rounding", "bucket"}) {
    QueryOptions query;
    query.backend = backend;
    query.max_colors = 8;
    ASSERT_TRUE(session.Coloring(query).ok());  // miss
    query.max_colors = 16;
    ASSERT_TRUE(session.Coloring(query).ok());  // hit (continuation)
    ASSERT_TRUE(session.Coloring(query).ok());  // hit (served snapshot)
    query.max_colors = 6;
    ASSERT_TRUE(session.Coloring(query).ok());  // down-budget recoloring
  }
  const CacheStats stats = session.stats().coloring;
  ASSERT_EQ(stats.per_backend.size(), 3u);  // "" accounted under "rothko"
  ASSERT_EQ(stats.per_backend.count("rothko"), 1u);
  int64_t lookups = 0, hits = 0, misses = 0, recolorings = 0, splits = 0;
  for (const auto& [name, row] : stats.per_backend) {
    EXPECT_EQ(row.hits + row.misses + row.recolorings, row.lookups) << name;
    EXPECT_EQ(row.lookups, 4) << name;
    EXPECT_EQ(row.misses, 1) << name;
    EXPECT_EQ(row.hits, 2) << name;
    EXPECT_EQ(row.recolorings, 1) << name;
    EXPECT_GT(row.refine_splits, 0) << name;
    lookups += row.lookups;
    hits += row.hits;
    misses += row.misses;
    recolorings += row.recolorings;
    splits += row.refine_splits;
  }
  EXPECT_EQ(lookups, stats.lookups);
  EXPECT_EQ(hits, stats.hits);
  EXPECT_EQ(misses, stats.misses);
  EXPECT_EQ(recolorings, stats.recolorings);
  EXPECT_EQ(splits, stats.refine_splits);
  EXPECT_EQ(stats.hits + stats.misses + stats.recolorings, stats.lookups);
}

TEST(CompressorTest, SolveLpRoutesBackendToTheMatrixColoring) {
  // Distinct backends are distinct LP cache sessions; the same backend
  // re-queried is a hit.
  Compressor session;
  const LpProblem lp = MakeQapLikeLp(6, 3);
  QueryOptions query;
  query.max_colors = 12;
  query.backend = "bucket";
  const auto bucket = session.SolveLp(lp, query);
  ASSERT_TRUE(bucket.ok());
  ASSERT_TRUE(session.SolveLp(lp, query).ok());
  query.backend = "rothko";
  const auto rothko = session.SolveLp(lp, query);
  ASSERT_TRUE(rothko.ok());
  EXPECT_EQ(session.stats().lp_misses, 2);
  EXPECT_EQ(session.stats().lp_hits, 1);
  // Both reductions lift to a well-formed solution of the original LP.
  EXPECT_EQ(bucket->lifted_x.size(), static_cast<size_t>(lp.num_cols));
  EXPECT_EQ(rothko->lifted_x.size(), static_cast<size_t>(lp.num_cols));
}

// Every field of a reduction but its timing.
void ExpectSameReducedLp(const ReducedLp& got, const ReducedLp& want) {
  EXPECT_EQ(got.lp.num_rows, want.lp.num_rows);
  EXPECT_EQ(got.lp.num_cols, want.lp.num_cols);
  ASSERT_EQ(got.lp.entries.size(), want.lp.entries.size());
  for (size_t i = 0; i < got.lp.entries.size(); ++i) {
    EXPECT_EQ(got.lp.entries[i].row, want.lp.entries[i].row) << i;
    EXPECT_EQ(got.lp.entries[i].col, want.lp.entries[i].col) << i;
    EXPECT_EQ(got.lp.entries[i].value, want.lp.entries[i].value) << i;
  }
  EXPECT_EQ(got.lp.b, want.lp.b);
  EXPECT_EQ(got.lp.c, want.lp.c);
  EXPECT_EQ(got.row_color, want.row_color);
  EXPECT_EQ(got.col_color, want.col_color);
  EXPECT_EQ(got.row_color_size, want.row_color_size);
  EXPECT_EQ(got.col_color_size, want.col_color_size);
  EXPECT_EQ(got.variant, want.variant);
  EXPECT_EQ(got.max_q, want.max_q);
}

TEST(CompressorTest, SolveLpReportsItsSplits) {
  const LpProblem lp = MakeQapLikeLp(6, 3);
  Compressor session;
  QueryOptions query;
  query.max_colors = 24;
  const auto first = session.SolveLp(lp, query);
  ASSERT_TRUE(first.ok());
  // The matrix coloring starts from 4 colors (rows, objective row,
  // columns, rhs column); the reduction has one row or column per color
  // besides the two pinned singletons.
  const int64_t num_colors =
      first->reduced.lp.num_rows + first->reduced.lp.num_cols + 2;
  EXPECT_EQ(num_colors, 24);
  EXPECT_FALSE(first->telemetry.coloring_cache_hit);
  EXPECT_EQ(first->telemetry.coloring_splits, num_colors - 4);

  const auto repeat = session.SolveLp(lp, query);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->telemetry.coloring_cache_hit);
  EXPECT_EQ(repeat->telemetry.coloring_splits, 0);
}

TEST(CompressorTest, SolveLpVariantsShareOneMatrixColoring) {
  // The reduction variant changes only the extraction, so both variants
  // are served from one cached coloring.
  const LpProblem lp = MakeQapLikeLp(6, 3);
  Compressor session;
  QueryOptions query;
  query.max_colors = 16;
  query.lp_variant = LpReduction::kSqrtNormalized;
  ASSERT_TRUE(session.SolveLp(lp, query).ok());
  query.lp_variant = LpReduction::kGrohe;
  const auto grohe = session.SolveLp(lp, query);
  ASSERT_TRUE(grohe.ok());
  EXPECT_TRUE(grohe->telemetry.coloring_cache_hit);
  EXPECT_EQ(grohe->telemetry.coloring_splits, 0);
  EXPECT_EQ(session.stats().lp_misses, 1);
  EXPECT_EQ(session.stats().lp_hits, 1);

  LpReduceOptions cold;
  cold.max_colors = 16;
  cold.variant = LpReduction::kGrohe;
  const ReducedLp want = ReduceLp(lp, cold);
  ExpectSameReducedLp(grohe->reduced, want);
  EXPECT_EQ(grohe->solution.objective, SolveSimplex(want.lp).objective);
}

TEST(CompressorTest, SolveLpCachedColoringSurvivesEdits) {
  // Edits change the session graph, not the LP's matrix graph: the LP
  // entry is neither repaired nor reset, and the repeat is a hit.
  Compressor session(TestGraph());
  const LpProblem lp = MakeQapLikeLp(6, 3);
  QueryOptions query;
  query.max_colors = 20;
  const auto before = session.SolveLp(lp, query);
  ASSERT_TRUE(before.ok());
  QueryOptions coloring;
  coloring.max_colors = 16;
  QSC_CHECK_OK(session.Coloring(coloring));  // the one graph entry

  const StatusOr<std::vector<dynamic::EditOp>> edits = dynamic::GenerateEdits(
      session.graph(), dynamic::EditKind::kInsertEdge, 10, 41);
  QSC_CHECK_OK(edits);
  const auto applied = session.ApplyEdits(*edits);
  QSC_CHECK_OK(applied);
  EXPECT_EQ(applied->repairs + applied->fallbacks, 1);

  const auto after = session.SolveLp(lp, query);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->telemetry.coloring_cache_hit);
  EXPECT_EQ(after->telemetry.coloring_splits, 0);
  EXPECT_EQ(after->telemetry.graph_version, 1);
  EXPECT_EQ(session.stats().lp_hits, 1);
  EXPECT_EQ(session.stats().lp_misses, 1);
  ExpectSameReducedLp(after->reduced, before->reduced);
  EXPECT_EQ(after->solution.objective, before->solution.objective);
  EXPECT_EQ(after->lifted_x, before->lifted_x);
}

TEST(CompressorTest, SolveLpEntriesCountTowardTheCacheBytes) {
  Compressor session;
  EXPECT_EQ(session.stats().coloring.bytes_in_use, 0);
  ASSERT_TRUE(session.SolveLp(MakeQapLikeLp(6, 3)).ok());
  const CompressorStats stats = session.stats();
  EXPECT_GT(stats.coloring.bytes_in_use, 0);
  EXPECT_EQ(stats.coloring.peak_bytes, stats.coloring.bytes_in_use);
  // LP lookups stay out of the graph-coloring totals.
  EXPECT_EQ(stats.coloring.lookups, 0);
  EXPECT_TRUE(stats.coloring.per_backend.empty());
  EXPECT_EQ(stats.coloring.lp.lookups, 1);
  EXPECT_GT(stats.coloring.lp.refine_splits, 0);
}

// --- dynamic edits (ApplyEdits) -------------------------------------------

TEST(CompressorValidationTest, ApplyEditsRejectsBadBatchesUpFront) {
  Compressor session(TestGraph());

  const auto empty = session.ApplyEdits({});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(empty.status().message().find("empty"), std::string::npos);

  EditApplyOptions bad_repair;
  bad_repair.max_repair_splits = -1;
  const std::vector<dynamic::EditOp> one_edit = {
      {dynamic::EditKind::kUpdateWeight, 0, 1, 2.0}};
  EXPECT_EQ(session.ApplyEdits(one_edit, bad_repair).status().code(),
            StatusCode::kInvalidArgument);

  // Edits mutate the session graph; an LP-only session has none.
  Compressor lp_only;
  EXPECT_EQ(lp_only.ApplyEdits(one_edit).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(CompressorTest, ApplyEditsIsAllOrNothingOnABadEdit) {
  const Graph g = TestGraph();
  NodeId u = 0, v = 0;
  for (NodeId candidate = 1; candidate < g.num_nodes(); ++candidate) {
    if (!g.HasArc(0, candidate)) {
      u = 0;
      v = candidate;
      break;
    }
  }
  ASSERT_NE(u, v);

  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  // A valid insert followed by a delete of an absent self-loop: the batch
  // fails as a unit and the session graph and version are untouched.
  const std::vector<dynamic::EditOp> batch = {
      {dynamic::EditKind::kInsertEdge, u, v, 1.0},
      {dynamic::EditKind::kDeleteEdge, 5, 5, 0.0},
  };
  const auto applied = session.ApplyEdits(batch);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.graph_version(), 0);
  EXPECT_FALSE(session.graph().HasArc(u, v));
  EXPECT_TRUE(session.graph() == g);
}

TEST(CompressorTest, ApplyEditsBumpsVersionAndStampsTelemetry) {
  const Graph g = TestGraph();
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  EXPECT_EQ(session.graph_version(), 0);

  QueryOptions query;
  query.max_colors = 24;
  {
    const auto before = session.Coloring(query);
    QSC_CHECK_OK(before);
    EXPECT_EQ(before->telemetry.graph_version, 0);
  }

  Graph expected = g;
  for (int batch = 0; batch < 2; ++batch) {
    const StatusOr<std::vector<dynamic::EditOp>> edits = dynamic::GenerateEdits(
        expected, dynamic::EditKind::kInsertEdge, 7,
        static_cast<uint64_t>(batch) + 3);
    QSC_CHECK_OK(edits);
    const auto applied = session.ApplyEdits(*edits);
    QSC_CHECK_OK(applied);
    EXPECT_EQ(applied->edits_applied, 7);
    EXPECT_EQ(applied->graph_version, batch + 1);
    EXPECT_GE(applied->seconds, 0.0);
    StatusOr<Graph> next = dynamic::ApplyEditBatch(expected, *edits);
    QSC_CHECK_OK(next);
    expected = std::move(next).value();
  }
  EXPECT_EQ(session.graph_version(), 2);
  EXPECT_TRUE(session.graph() == expected);

  // Post-edit queries are stamped with the new version and serve exactly
  // what a fresh session on the mutated graph serves (the zero-tolerance
  // spec was reset to scratch by the edits).
  const auto after = session.Coloring(query);
  QSC_CHECK_OK(after);
  EXPECT_EQ(after->telemetry.graph_version, 2);
  Compressor fresh(std::shared_ptr<const Graph>(
      std::shared_ptr<const Graph>(), &expected));
  const auto want = fresh.Coloring(query);
  QSC_CHECK_OK(want);
  EXPECT_EQ(after->max_q, want->max_q);
  EXPECT_TRUE(*after->coloring == *want->coloring);
}

TEST(CompressorTest, ApplyEditsRepairsToleranceBoundedSpecsOnly) {
  Compressor session(TestGraph());

  QueryOptions strict;  // q_tolerance 0: never repairable
  strict.max_colors = 16;
  QueryOptions bounded = strict;
  bounded.q_tolerance = 8.0;
  QSC_CHECK_OK(session.Coloring(strict));
  QSC_CHECK_OK(session.Coloring(bounded));

  const StatusOr<std::vector<dynamic::EditOp>> edits = dynamic::GenerateEdits(
      session.graph(), dynamic::EditKind::kInsertEdge, 10, 41);
  QSC_CHECK_OK(edits);
  const auto applied = session.ApplyEdits(*edits);
  QSC_CHECK_OK(applied);
  EXPECT_EQ(applied->repairs, 1);    // the bounded spec
  EXPECT_EQ(applied->fallbacks, 1);  // the strict spec

  const CacheStats& stats = session.stats().coloring;
  EXPECT_EQ(stats.edit_batches, 1);
  EXPECT_EQ(stats.edits_applied, 10);
  EXPECT_EQ(stats.repairs, 1);
  EXPECT_EQ(stats.fallbacks, 1);
}

// --- derived artifacts ----------------------------------------------------

TEST(CompressorTest, MaxFlowReportsItsColoringsMaxQ) {
  FlowInstance instance = TestInstance(13);
  Compressor flows{Graph(instance.graph)};
  Compressor colorings(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 14;
  const auto flow = flows.MaxFlow(instance.source, instance.sink, query);
  query.pinned = {instance.source, instance.sink};
  const auto coloring = colorings.Coloring(query);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(coloring.ok());
  EXPECT_GT(flow->max_q, 0.0);
  EXPECT_EQ(DoubleBits(flow->max_q), DoubleBits(coloring->max_q));
  EXPECT_TRUE(*flow->coloring == *coloring->coloring);
}

TEST(CompressorTest, CentralityReportsItsColoringsMaxQ) {
  Graph g = TestGraph(31);
  Compressor centralities{Graph(g)};
  Compressor colorings(std::move(g));
  QueryOptions query;
  query.max_colors = 18;
  query.pinned = {4, 2};
  const auto centrality = centralities.Centrality(query);
  // Centrality's area default is alpha = beta = 1; Coloring's is 0.
  query.alpha = 1.0;
  query.beta = 1.0;
  const auto coloring = colorings.Coloring(query);
  ASSERT_TRUE(centrality.ok());
  ASSERT_TRUE(coloring.ok());
  EXPECT_GT(centrality->max_q, 0.0);
  EXPECT_EQ(DoubleBits(centrality->max_q), DoubleBits(coloring->max_q));
  EXPECT_TRUE(*centrality->coloring == *coloring->coloring);
}

// A warm query answers from the artifact memoized on its snapshot: one
// build per (snapshot, key), every repeat a derived hit with the same
// answer.
TEST(CompressorTest, WarmQueriesReuseTheirDerivedArtifacts) {
  FlowInstance instance = TestInstance(17);
  const NodeId s = instance.source;
  const NodeId t = instance.sink;
  Compressor session(std::move(instance.graph));
  QueryOptions query;
  query.max_colors = 12;

  const auto cold = session.MaxFlow(s, t, query);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(session.stats().coloring.derived_builds, 1);
  const auto batch = session.MaxFlowBatch({{s, t}, {s, t}, {s, t}}, query);
  ASSERT_TRUE(batch.ok());
  for (const FlowQueryResult& warm : *batch) {
    EXPECT_EQ(warm.upper_bound, cold->upper_bound);
    EXPECT_EQ(warm.coloring.get(), cold->coloring.get());
  }
  CacheStats stats = session.stats().coloring;
  EXPECT_EQ(stats.derived_builds, 1);  // the batch built nothing
  EXPECT_EQ(stats.derived_hits, 3);

  // The lower-bound graph is its own artifact, keyed by the tolerance.
  query.compute_lower_bound = true;
  const auto bounds = session.MaxFlow(s, t, query);
  query.uniform_flow_tol = 1e-3;
  const auto coarse = session.MaxFlow(s, t, query);
  const auto coarse_again = session.MaxFlow(s, t, query);
  ASSERT_TRUE(bounds.ok());
  ASSERT_TRUE(coarse.ok());
  ASSERT_TRUE(coarse_again.ok());
  EXPECT_EQ(bounds->upper_bound, cold->upper_bound);
  EXPECT_EQ(coarse_again->lower_bound, coarse->lower_bound);
  stats = session.stats().coloring;
  EXPECT_EQ(stats.derived_builds, 3);
  EXPECT_EQ(stats.derived_hits, 4);
  EXPECT_EQ(stats.lookups, 7);
}

TEST(CompressorTest, WarmCentralityAndSolveLpMatchTheirColdAnswers) {
  Graph g = TestGraph(37);
  const Graph copy = g;
  Compressor session(std::move(g));
  QueryOptions query;
  query.max_colors = 20;
  const auto first = session.Centrality(query);
  const auto again = session.Centrality(query);
  query.seed = 5;
  const auto reseeded = session.Centrality(query);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(reseeded.ok());
  EXPECT_EQ(again->scores, first->scores);
  EXPECT_EQ(reseeded->scores,
            ColorPivotScores(copy, *first->coloring, 1, 5));
  EXPECT_NE(reseeded->scores, first->scores);

  const LpProblem lp = MakeQapLikeLp(6, 3);
  QueryOptions lp_query;
  lp_query.max_colors = 16;
  const auto lp_first = session.SolveLp(lp, lp_query);
  const auto lp_again = session.SolveLp(lp, lp_query);
  ASSERT_TRUE(lp_first.ok());
  ASSERT_TRUE(lp_again.ok());
  ExpectSameReducedLp(lp_again->reduced, lp_first->reduced);
  EXPECT_EQ(lp_again->reduced.max_q, lp_first->reduced.max_q);
  EXPECT_EQ(lp_again->lifted_x, lp_first->lifted_x);

  const CacheStats stats = session.stats().coloring;
  EXPECT_EQ(stats.derived_builds, 3);  // seed 17, seed 5, the reduced LP
  EXPECT_EQ(stats.derived_hits, 2);
}

// Edits drop every snapshot of the old graph, and its artifacts with it:
// a repeated query rebuilds on the mutated graph and answers exactly as a
// fresh session there. LP entries ignore edits, so a warm SolveLp stays a
// derived hit.
TEST(CompressorTest, EditsRebuildGraphArtifactsButNotLpArtifacts) {
  FlowInstance instance = TestInstance(19);
  const NodeId s = instance.source;
  const NodeId t = instance.sink;
  Compressor session{Graph(instance.graph)};
  const LpProblem lp = MakeQapLikeLp(6, 3);
  QueryOptions query;
  query.max_colors = 12;
  QueryOptions lp_query;
  lp_query.max_colors = 16;
  for (int round = 0; round < 2; ++round) {
    QSC_CHECK_OK(session.MaxFlow(s, t, query));
    QSC_CHECK_OK(session.Centrality(query));
    QSC_CHECK_OK(session.SolveLp(lp, lp_query));
  }
  const CacheStats before = session.stats().coloring;
  EXPECT_EQ(before.derived_builds, 3);
  EXPECT_EQ(before.derived_hits, 3);

  const StatusOr<std::vector<dynamic::EditOp>> edits = dynamic::GenerateEdits(
      instance.graph, dynamic::EditKind::kInsertEdge, 12, 43);
  QSC_CHECK_OK(edits);
  QSC_CHECK_OK(session.ApplyEdits(*edits));
  StatusOr<Graph> mutated = dynamic::ApplyEditBatch(instance.graph, *edits);
  QSC_CHECK_OK(mutated);
  Compressor fresh(std::move(mutated).value());

  const auto flow = session.MaxFlow(s, t, query);
  const auto want_flow = fresh.MaxFlow(s, t, query);
  const auto scores = session.Centrality(query);
  const auto want_scores = fresh.Centrality(query);
  const auto solved = session.SolveLp(lp, lp_query);
  ASSERT_TRUE(flow.ok());
  ASSERT_TRUE(want_flow.ok());
  ASSERT_TRUE(scores.ok());
  ASSERT_TRUE(want_scores.ok());
  ASSERT_TRUE(solved.ok());
  EXPECT_EQ(flow->upper_bound, want_flow->upper_bound);
  EXPECT_TRUE(*flow->coloring == *want_flow->coloring);
  EXPECT_EQ(scores->scores, want_scores->scores);

  const CacheStats after = session.stats().coloring;
  EXPECT_EQ(after.derived_builds, before.derived_builds + 2);
  EXPECT_EQ(after.derived_hits, before.derived_hits + 1);  // the SolveLp
}

}  // namespace
}  // namespace qsc
