// The Compressor concurrency contract (docs/API.md): one session hammered
// from many threads must produce, for every query, exactly the result a
// single-threaded session produces for that (query, options) — coloring
// snapshots, flow bounds, LP objectives, and centrality scores all
// bitwise. Only stats *attribution* (hit vs recoloring for racing
// down-budget queries) may depend on arrival order; the totals still
// reconcile. The CI `thread` sanitizer job runs this binary under TSan.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/generators.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/random.h"

namespace qsc {
namespace {

constexpr uint64_t kSeed = 20260729;

// A small directed scale-free graph: large enough that refinement takes
// real work, small enough that the TSan leg stays fast.
Graph StressGraph() {
  Rng rng(kSeed);
  const Graph ba = BarabasiAlbert(1500, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}

// The three query kinds exercised by the stress test; each maps to its
// own ColoringSpec in the session cache.
enum class Kind { kColoring, kMaxFlow, kCentrality };

struct StressQuery {
  Kind kind;
  ColorId budget;
};

// Deterministic per-thread schedule mixing up- and down-budget requests
// across the three specs.
std::vector<StressQuery> ScheduleFor(int thread_id) {
  const std::vector<ColorId> budgets = {8, 64, 16, 48, 12, 32, 96, 24};
  std::vector<StressQuery> schedule;
  for (int round = 0; round < 2; ++round) {
    for (const ColorId budget : budgets) {
      schedule.push_back(
          {static_cast<Kind>((thread_id + round +
                              static_cast<int>(budget)) %
                             3),
           budget});
    }
  }
  Rng rng(kSeed + static_cast<uint64_t>(thread_id));
  rng.Shuffle(schedule);
  return schedule;
}

struct QueryObservation {
  Kind kind;
  ColorId budget;
  double primary = 0.0;    // max_q / upper_bound / scores checksum proxy
  ColorId num_colors = 0;
  std::vector<double> scores;  // centrality only
  Partition coloring;          // coloring + flow queries
};

QueryObservation RunOne(Compressor& session, const StressQuery& query,
                        NodeId source, NodeId sink) {
  QueryObservation seen;
  seen.kind = query.kind;
  seen.budget = query.budget;
  QueryOptions options;
  options.max_colors = query.budget;
  switch (query.kind) {
    case Kind::kColoring: {
      const StatusOr<ColoringResult> result = session.Coloring(options);
      QSC_CHECK_OK(result);
      seen.primary = result->max_q;
      seen.num_colors = result->coloring->num_colors();
      seen.coloring = *result->coloring;
      break;
    }
    case Kind::kMaxFlow: {
      const StatusOr<FlowQueryResult> result =
          session.MaxFlow(source, sink, options);
      QSC_CHECK_OK(result);
      seen.primary = result->upper_bound;
      seen.num_colors = result->num_colors;
      seen.coloring = *result->coloring;
      break;
    }
    case Kind::kCentrality: {
      const StatusOr<CentralityQueryResult> result =
          session.Centrality(options);
      QSC_CHECK_OK(result);
      seen.num_colors = result->num_colors;
      seen.scores = result->scores;
      break;
    }
  }
  return seen;
}

// The satellite stress test: 8 threads, one shared session (which itself
// runs a 4-way pool inside queries), mixed up/down budgets across 3
// specs; every observation must equal the single-threaded oracle's answer
// for that (kind, budget).
TEST(CompressorConcurrencyTest, EightThreadsMatchSingleThreadedOracle) {
  const Graph g = StressGraph();
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);

  constexpr int kThreads = 8;
  std::vector<std::vector<QueryObservation>> observations(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const StressQuery& query : ScheduleFor(t)) {
          observations[t].push_back(RunOne(session, query, source, sink));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Single-threaded oracle: each (kind, budget) result is a deterministic
  // function of the spec and the budget — the whole point of the cache
  // contract — so one fresh query per distinct pair suffices.
  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  std::map<std::pair<int, ColorId>, QueryObservation> expected;
  int64_t total_queries = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const QueryObservation& seen : observations[t]) {
      ++total_queries;
      const std::pair<int, ColorId> key{static_cast<int>(seen.kind),
                                        seen.budget};
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, RunOne(oracle, {seen.kind, seen.budget},
                                      source, sink))
                 .first;
      }
      const QueryObservation& want = it->second;
      ASSERT_EQ(seen.num_colors, want.num_colors)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      // Bitwise: the concurrent session must not perturb a single double.
      ASSERT_EQ(seen.primary, want.primary)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_TRUE(seen.coloring == want.coloring);
      ASSERT_EQ(seen.scores, want.scores);
    }
  }

  // Totals reconcile even though per-query attribution is order-dependent.
  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.coloring.lookups, total_queries);
  EXPECT_EQ(stats.coloring.misses, 3);  // one per spec
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
}

// The same 8-thread stress under byte-budget eviction churn: a budget
// small enough that entries are evicted while sibling threads still
// query them. Every result must still equal the single-threaded
// unbudgeted oracle (eviction transparency under concurrency), and the
// stats invariant hits + misses + recolorings == lookups must survive
// the churn, with eviction actually observed.
TEST(CompressorConcurrencyTest, ByteBudgetChurnMatchesOracle) {
  const Graph g = StressGraph();
  const NodeId source = 0;
  const NodeId sink = g.num_nodes() - 1;

  ThreadPool pool(4);
  CompressorOptions session_options;
  session_options.coloring_cache_byte_budget = 1;  // evict everything idle
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool,
      session_options);

  constexpr int kThreads = 8;
  std::vector<std::vector<QueryObservation>> observations(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (const StressQuery& query : ScheduleFor(t)) {
          observations[t].push_back(RunOne(session, query, source, sink));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  std::map<std::pair<int, ColorId>, QueryObservation> expected;
  int64_t total_queries = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (const QueryObservation& seen : observations[t]) {
      ++total_queries;
      const std::pair<int, ColorId> key{static_cast<int>(seen.kind),
                                        seen.budget};
      auto it = expected.find(key);
      if (it == expected.end()) {
        it = expected
                 .emplace(key, RunOne(oracle, {seen.kind, seen.budget},
                                      source, sink))
                 .first;
      }
      const QueryObservation& want = it->second;
      ASSERT_EQ(seen.num_colors, want.num_colors)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_EQ(seen.primary, want.primary)
          << "kind=" << static_cast<int>(seen.kind)
          << " budget=" << seen.budget;
      ASSERT_TRUE(seen.coloring == want.coloring);
      ASSERT_EQ(seen.scores, want.scores);
    }
  }

  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.coloring.lookups, total_queries);
  EXPECT_EQ(stats.coloring.hits + stats.coloring.misses +
                stats.coloring.recolorings,
            stats.coloring.lookups);
  // Under a 1-byte budget misses dominate: every idle entry is gone by
  // the time its spec comes around again (racing threads can still
  // share an in-flight entry, so hits are possible, not guaranteed).
  EXPECT_GT(stats.coloring.misses, 3);
  EXPECT_GT(stats.coloring.evictions, 0);
  EXPECT_EQ(stats.coloring.bytes_in_use, 0);
  EXPECT_GT(stats.coloring.peak_bytes, 0);
}

TEST(CompressorConcurrencyTest, ParallelBatchMatchesSequentialLoop) {
  const Graph g = StressGraph();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i < 6; ++i) {
    pairs.push_back({i, g.num_nodes() - 1 - i});
  }
  pairs.push_back(pairs.front());  // a repeat, to exercise the shared spec

  QueryOptions options;
  options.max_colors = 24;

  ThreadPool pool(4);
  Compressor parallel_session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);
  const StatusOr<std::vector<FlowQueryResult>> batch =
      parallel_session.MaxFlowBatch(pairs, options);
  QSC_CHECK_OK(batch);

  Compressor sequential_session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  ASSERT_EQ(batch->size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    const StatusOr<FlowQueryResult> want = sequential_session.MaxFlow(
        pairs[i].first, pairs[i].second, options);
    QSC_CHECK_OK(want);
    EXPECT_EQ((*batch)[i].upper_bound, want->upper_bound) << "pair " << i;
    EXPECT_EQ((*batch)[i].num_colors, want->num_colors) << "pair " << i;
    EXPECT_TRUE(*(*batch)[i].coloring == *want->coloring) << "pair " << i;
  }

  // The repeated pair shares its spec's coloring: 7 lookups, 6 specs.
  const CompressorStats stats = parallel_session.stats();
  EXPECT_EQ(stats.coloring.lookups, 7);
  EXPECT_EQ(stats.coloring.misses, 6);
  EXPECT_EQ(stats.coloring.hits, 1);
}

TEST(CompressorConcurrencyTest, PooledCentralityBitIdenticalToSequential) {
  Rng rng(kSeed + 7);
  const Graph g = BarabasiAlbert(800, 3, rng);

  QueryOptions options;
  options.max_colors = 40;
  options.pivots_per_color = 2;

  ThreadPool pool(8);
  Compressor pooled(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);
  Compressor sequential(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));

  const StatusOr<CentralityQueryResult> got = pooled.Centrality(options);
  const StatusOr<CentralityQueryResult> want = sequential.Centrality(options);
  QSC_CHECK_OK(got);
  QSC_CHECK_OK(want);
  ASSERT_EQ(got->scores.size(), want->scores.size());
  for (size_t v = 0; v < got->scores.size(); ++v) {
    ASSERT_EQ(got->scores[v], want->scores[v]) << "node " << v;
  }
}

TEST(CompressorConcurrencyTest, ConcurrentSolveLpMatchesOracle) {
  BlockLpSpec spec;
  spec.num_row_groups = 4;
  spec.num_col_groups = 4;
  spec.rows_per_group = 6;
  spec.cols_per_group = 6;
  spec.seed = 11;
  const LpProblem lp_a = MakeBlockLp(spec);
  spec.seed = 12;
  const LpProblem lp_b = MakeBlockLp(spec);

  ThreadPool pool(4);
  Compressor session(Graph(), &pool);

  constexpr int kThreads = 8;
  const std::vector<ColorId> budgets = {8, 16, 12, 24};
  std::vector<std::vector<double>> objectives(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t b = 0; b < budgets.size(); ++b) {
          QueryOptions options;
          options.max_colors = budgets[(b + static_cast<size_t>(t)) %
                                       budgets.size()];
          const StatusOr<LpQueryResult> result =
              session.SolveLp(t % 2 == 0 ? lp_a : lp_b, options);
          QSC_CHECK_OK(result);
          objectives[t].push_back(result->solution.objective);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  Compressor oracle;
  for (int t = 0; t < kThreads; ++t) {
    for (size_t b = 0; b < budgets.size(); ++b) {
      QueryOptions options;
      options.max_colors =
          budgets[(b + static_cast<size_t>(t)) % budgets.size()];
      const StatusOr<LpQueryResult> want =
          oracle.SolveLp(t % 2 == 0 ? lp_a : lp_b, options);
      QSC_CHECK_OK(want);
      EXPECT_EQ(objectives[t][b], want->solution.objective)
          << "thread " << t << " query " << b;
    }
  }

  const CompressorStats stats = session.stats();
  EXPECT_EQ(stats.lp_lookups, kThreads * static_cast<int64_t>(budgets.size()));
  EXPECT_EQ(stats.lp_misses, 2);  // one per distinct LP
  EXPECT_EQ(stats.lp_hits + stats.lp_misses + stats.lp_recolorings,
            stats.lp_lookups);
}

// Distinct coloring backends queried concurrently through one session:
// thread t hammers backend t mod 3 with mixed up/down budgets. Distinct
// backends are distinct specs, so they refine concurrently; every served
// coloring must equal the single-threaded oracle for that (backend,
// budget), and the per-backend stats rows must reconcile row by row
// (hits + misses + recolorings == lookups) under any interleaving. The CI
// TSan leg runs this against the registry's shared state.
TEST(CompressorConcurrencyTest, ConcurrentDistinctBackendsMatchOracle) {
  const Graph g = StressGraph();
  const std::vector<std::string> backends = {"rothko", "lp-rounding",
                                             "bucket"};

  ThreadPool pool(4);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);

  constexpr int kThreads = 6;
  const std::vector<ColorId> budgets = {8, 32, 16, 48, 12, 24};
  std::vector<std::vector<std::pair<ColorId, Partition>>> observations(
      kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        QueryOptions options;
        options.backend = backends[t % backends.size()];
        for (const ColorId budget : budgets) {
          options.max_colors = budget;
          const StatusOr<ColoringResult> result = session.Coloring(options);
          QSC_CHECK_OK(result);
          observations[t].emplace_back(budget, *result->coloring);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // Single-threaded per-backend oracle sessions.
  for (int t = 0; t < kThreads; ++t) {
    Compressor oracle(
        std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
    QueryOptions options;
    options.backend = backends[t % backends.size()];
    for (const auto& [budget, coloring] : observations[t]) {
      options.max_colors = budget;
      const StatusOr<ColoringResult> want = oracle.Coloring(options);
      QSC_CHECK_OK(want);
      ASSERT_TRUE(coloring == *want->coloring)
          << options.backend << " budget " << budget;
    }
  }

  // Per-backend attribution reconciles row by row and sums to the totals.
  const CacheStats stats = session.stats().coloring;
  ASSERT_EQ(stats.per_backend.size(), backends.size());
  int64_t lookups = 0, attributed = 0;
  for (const auto& [name, row] : stats.per_backend) {
    EXPECT_EQ(row.hits + row.misses + row.recolorings, row.lookups) << name;
    EXPECT_EQ(row.lookups,
              static_cast<int64_t>(budgets.size()) * kThreads /
                  static_cast<int64_t>(backends.size()))
        << name;
    lookups += row.lookups;
    attributed += row.hits + row.misses + row.recolorings;
  }
  EXPECT_EQ(lookups, stats.lookups);
  EXPECT_EQ(attributed, stats.lookups);
  EXPECT_EQ(stats.lookups,
            static_cast<int64_t>(budgets.size()) * kThreads);
}

// Derived artifacts under concurrency: threads mix repeated-pair
// MaxFlowBatch, Centrality at two seeds and SolveLp in both variants,
// all at one budget so each spec serves one snapshot. Every answer must
// equal the single-threaded oracle's, and since artifacts are built under
// their entry's lock, each (snapshot, key) is built exactly once however
// the requests interleave.
TEST(CompressorConcurrencyTest, MixedDerivedArtifactsMatchOracleAndBuildOnce) {
  const Graph g = StressGraph();
  const NodeId n = g.num_nodes();
  const std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, n - 1}, {1, n - 2}, {0, n - 1}, {1, n - 2}, {0, n - 1}};
  BlockLpSpec lp_spec;
  lp_spec.num_row_groups = 4;
  lp_spec.num_col_groups = 4;
  lp_spec.rows_per_group = 6;
  lp_spec.cols_per_group = 6;
  lp_spec.seed = 13;
  const LpProblem lp = MakeBlockLp(lp_spec);

  // Query q of thread t is of kind q % 3; its pivot seed and LP variant
  // follow the parity of t + q, so both of each are served.
  const auto options_for = [](int thread_id, int q) {
    QueryOptions options;
    options.max_colors = 16;
    options.seed = (thread_id + q) % 2 == 0 ? 17 : 29;
    options.lp_variant = (thread_id + q) % 2 == 0
                             ? LpReduction::kSqrtNormalized
                             : LpReduction::kGrohe;
    return options;
  };
  const auto run = [&](Compressor& session, int thread_id, int q) {
    const QueryOptions options = options_for(thread_id, q);
    std::vector<double> answer;
    switch (q % 3) {
      case 0: {
        const auto batch = session.MaxFlowBatch(pairs, options);
        QSC_CHECK_OK(batch);
        for (const FlowQueryResult& flow : *batch) {
          answer.push_back(flow.upper_bound);
          answer.push_back(flow.max_q);
        }
        break;
      }
      case 1: {
        const auto centrality = session.Centrality(options);
        QSC_CHECK_OK(centrality);
        answer = centrality->scores;
        break;
      }
      default: {
        const auto solved = session.SolveLp(lp, options);
        QSC_CHECK_OK(solved);
        answer = solved->lifted_x;
        answer.push_back(solved->solution.objective);
        break;
      }
    }
    return answer;
  };

  constexpr int kThreads = 6;
  constexpr int kQueries = 6;
  ThreadPool pool(2);
  Compressor session(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g), &pool);
  std::vector<std::vector<std::vector<double>>> answers(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int q = 0; q < kQueries; ++q) {
          answers[t].push_back(run(session, t, q));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  Compressor oracle(
      std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(), &g));
  for (int t = 0; t < kThreads; ++t) {
    for (int q = 0; q < kQueries; ++q) {
      EXPECT_EQ(answers[t][q], run(oracle, t, q))
          << "thread " << t << " query " << q;
    }
  }

  // Distinct (snapshot, key) pairs: the c^2 graphs of two terminal pairs,
  // two pivot seeds and two LP variants.
  const CacheStats stats = session.stats().coloring;
  EXPECT_EQ(stats.derived_builds, 6);
  const int64_t batches = kThreads * kQueries / 3;
  const int64_t requests =
      batches * static_cast<int64_t>(pairs.size()) + 2 * batches;
  EXPECT_EQ(stats.derived_builds + stats.derived_hits, requests);
  EXPECT_EQ(stats.hits + stats.misses + stats.recolorings, stats.lookups);
}

}  // namespace
}  // namespace qsc
