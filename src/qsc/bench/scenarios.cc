// Builtin perf scenarios (see docs/BENCHMARKING.md for the registry
// contract). Four groups, plus "backends", "check", "dynamic" and "paper"
// (scenarios_{backends,check,dynamic,paper}.cc):
//
//  - "coloring": the refiner and its kernels on synthetic graphs at
//    10k-200k nodes. The headline scenario is rothko-ba-100k-c256 —
//    Rothko refinement of a 100k-node scale-free graph to 256 colors —
//    whose baseline records the flat sparse-row speedup.
//  - "pipelines": the solver kernels and the Compressor
//    session-amortization scenarios, plus three end-to-end instance ->
//    coloring -> solve -> error sweeps over check/ instances
//    (scenarios_check.cc).
//  - "serving": workload traces replayed against a Compressor session by
//    the qsc/workload load runner (scenarios_serving.cc).
//  - "flow": the max-flow solvers on the CSR ResidualNetwork, straight
//    on the ~100k-node segmentation network without the compression
//    pipeline around them (scenarios_flow.cc); their baseline records
//    the residual-network CSR speedup.
//
// Scenario counters are deterministic given the seed; instance
// construction happens outside the timed closure.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/bench/scenario.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/flow/approx_flow.h"
#include "qsc/centrality/brandes.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/generators.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/simplex.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"

namespace qsc {
namespace bench {
namespace {

// --- coloring group ------------------------------------------------------

// Registers a Rothko refinement scenario over `factory`'s graph. The
// per-scenario `salt` decorrelates instances that share a CLI seed.
// `parallel` scenarios refine on the CLI-sized default pool; their
// counters must match the sequential twin bit for bit (the qsc/parallel
// determinism contract, enforced by the CI counter-identity gate).
void RegisterRothko(const char* name, bool smoke, const char* description,
                    Graph (*factory)(uint64_t seed), uint64_t salt,
                    ColorId max_colors,
                    RothkoOptions::SplitMean split_mean =
                        RothkoOptions::SplitMean::kArithmetic,
                    bool parallel = false) {
  Scenario::Info info;
  info.name = name;
  info.group = "coloring";
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [factory, salt, max_colors, split_mean,
                        parallel](const BenchContext& ctx) {
        const Graph g = factory(ctx.seed ^ salt);
        RothkoOptions options;
        options.max_colors = max_colors;
        options.split_mean = split_mean;
        if (parallel) options.pool = DefaultPool();
        ColorId num_colors = 0;
        double splits = 0.0, max_q = 0.0, refiner_bytes = 0.0;
        RothkoSplitStats split_stats;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          RothkoRefiner refiner(g, Partition::Trivial(g.num_nodes()),
                                options);
          refiner.Run();
          num_colors = refiner.partition().num_colors();
          splits = static_cast<double>(refiner.history().size());
          max_q = refiner.CurrentMaxError();
          refiner_bytes = static_cast<double>(refiner.MemoryBytes());
          split_stats = refiner.split_stats();
        });
        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"max_colors", static_cast<double>(max_colors)}};
        r.counters = {{"num_colors", static_cast<double>(num_colors)},
                      {"splits", splits},
                      {"max_q", max_q}};
        // The split loop's work (rothko.h RothkoSplitStats): gauges, so
        // the committed counter baselines stay as they are.
        r.gauges = {
            {"refiner_mib", refiner_bytes / (1024.0 * 1024.0)},
            {"touched_rows", static_cast<double>(split_stats.touched_rows)},
            {"loose_pairs", static_cast<double>(split_stats.loose_pairs)},
            {"heap_top_rescans", static_cast<double>(split_stats.rescans)},
            {"rescanned_members",
             static_cast<double>(split_stats.rescanned_members)}};
        return r;
      }));
}

Graph Ba10k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(10000, 3, rng);
}
Graph Ba100k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(100000, 3, rng);
}
Graph Ba200k(uint64_t seed) {
  Rng rng(seed);
  return BarabasiAlbert(200000, 3, rng);
}
// servebench's graph shape: a BA graph stored as a directed graph (both
// arcs of every edge), so the refiner keeps in-degree rows too.
Graph DirectedBa(NodeId nodes, uint64_t seed) {
  Rng rng(seed);
  const Graph ba = BarabasiAlbert(nodes, 3, rng);
  return Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
}
Graph DirectedBa10k(uint64_t seed) { return DirectedBa(10000, seed); }
Graph DirectedBa100k(uint64_t seed) { return DirectedBa(100000, seed); }
Graph Er10k(uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyiGnm(10000, 40000, rng);
}
Graph Er100k(uint64_t seed) {
  Rng rng(seed);
  return ErdosRenyiGnm(100000, 400000, rng);
}
Graph Grid10k(uint64_t seed) {
  Rng rng(seed);
  return SegmentationGridNetwork(100, 100, 4, rng).graph;
}
Graph Grid100k(uint64_t seed) {
  Rng rng(seed);
  return SegmentationGridNetwork(400, 250, 8, rng).graph;
}

// Registers a coloring-kernel scenario measured over a fixed prepared
// input (built once, outside the timed closure).
template <typename Prepare, typename Work>
void RegisterKernel(const char* name, const char* group, bool smoke,
                    const char* description, Prepare prepare, Work work) {
  Scenario::Info info;
  info.name = name;
  info.group = group;
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [prepare, work](const BenchContext& ctx) {
        auto input = prepare(ctx);
        ScenarioResult r;
        r.timing =
            MeasureSeconds(ctx.measure, [&] { work(input, r.counters); });
        return r;
      }));
}

void RegisterColoringScenarios() {
  RegisterRothko("coloring/rothko-ba-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a 10k-node Barabasi-Albert graph",
                 &Ba10k, 0x9a01, 64);
  RegisterRothko(
      "coloring/rothko-ba-100k-c256", /*smoke=*/true,
      "HEADLINE: Rothko to 256 colors on a 100k-node scale-free graph",
      &Ba100k, 0x9a02, 256);
  RegisterRothko("coloring/rothko-ba-200k-c256", /*smoke=*/false,
                 "Rothko to 256 colors on a 200k-node scale-free graph",
                 &Ba200k, 0x9a03, 256);
  RegisterRothko("coloring/rothko-ba-100k-c256-geo", /*smoke=*/false,
                 "geometric split-mean variant of the headline scenario",
                 &Ba100k, 0x9a02, 256, RothkoOptions::SplitMean::kGeometric);
  RegisterRothko("coloring/rothko-directed-ba-100k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on servebench's directed 100k-node BA "
                 "graph (out- and in-degree rows)",
                 &DirectedBa100k, 0x9a30, 64);
  RegisterRothko("coloring/rothko-directed-parallel-ba-10k", /*smoke=*/false,
                 "TSan-sized parallel refinement of a directed BA graph: "
                 "both directions' row builds fan out over the pool (the "
                 "CI sanitizer jobs drive this by name)",
                 &DirectedBa10k, 0x9a31, 64,
                 RothkoOptions::SplitMean::kArithmetic, /*parallel=*/true);
  RegisterRothko("coloring/rothko-er-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a G(10k, 40k) Erdos-Renyi graph",
                 &Er10k, 0x9a04, 64);
  RegisterRothko("coloring/rothko-er-100k-c128", /*smoke=*/false,
                 "Rothko to 128 colors on a G(100k, 400k) Erdos-Renyi graph",
                 &Er100k, 0x9a05, 128);
  RegisterRothko("coloring/rothko-parallel-ba-100k", /*smoke=*/true,
                 "the headline refinement on the --threads pool; counters "
                 "must equal rothko-ba-100k-c256 at every thread count",
                 &Ba100k, 0x9a02, 256,
                 RothkoOptions::SplitMean::kArithmetic, /*parallel=*/true);
  RegisterRothko("coloring/rothko-parallel-ba-10k", /*smoke=*/false,
                 "TSan-sized parallel refinement (the CI thread-sanitizer "
                 "job drives this by name)",
                 &Ba10k, 0x9a01, 64,
                 RothkoOptions::SplitMean::kArithmetic, /*parallel=*/true);
  RegisterRothko("coloring/rothko-grid-10k-c64", /*smoke=*/true,
                 "Rothko to 64 colors on a 100x100 segmentation grid",
                 &Grid10k, 0x9a06, 64);
  RegisterRothko("coloring/rothko-grid-100k-c128", /*smoke=*/false,
                 "Rothko to 128 colors on a 400x250 segmentation grid",
                 &Grid100k, 0x9a07, 128);

  RegisterKernel(
      "coloring/stable-ba-20k", "coloring", /*smoke=*/true,
      "stable coloring (color refinement to fixpoint) on a 20k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a08);
        return BarabasiAlbert(20000, 3, rng);
      },
      [](const Graph& g,
         std::vector<std::pair<std::string, double>>& counters) {
        const Partition p = StableColoring(g);
        counters = {{"num_colors", static_cast<double>(p.num_colors())}};
      });
  RegisterKernel(
      "coloring/qerror-ba-50k", "coloring", /*smoke=*/false,
      "from-scratch q-error recount of a 64-color Rothko coloring on a "
      "50k-node Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a09);
        Graph g = BarabasiAlbert(50000, 3, rng);
        RothkoOptions options;
        options.max_colors = 64;
        Partition p = RothkoColoring(g, options);
        return std::make_pair(std::move(g), std::move(p));
      },
      [](const std::pair<Graph, Partition>& input,
         std::vector<std::pair<std::string, double>>& counters) {
        const QErrorStats report = ComputeQError(input.first, input.second);
        counters = {{"max_q", report.max_q}};
      });
  RegisterKernel(
      "coloring/reduced-ba-50k", "coloring", /*smoke=*/false,
      "reduced-graph construction from a 64-color coloring on a 50k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0a);
        Graph g = BarabasiAlbert(50000, 3, rng);
        RothkoOptions options;
        options.max_colors = 64;
        Partition p = RothkoColoring(g, options);
        return std::make_pair(std::move(g), std::move(p));
      },
      [](const std::pair<Graph, Partition>& input,
         std::vector<std::pair<std::string, double>>& counters) {
        const Graph reduced =
            BuildReducedGraph(input.first, input.second, ReducedWeight::kSum);
        counters = {{"reduced_arcs", static_cast<double>(reduced.num_arcs())}};
      });
  RegisterKernel(
      "coloring/reduced-directed-ba-100k-c128", "coloring", /*smoke=*/true,
      "reduced-graph construction on servebench's directed 100k-node BA "
      "graph at edit-churn's 128-color cap (the rebuild behind each "
      "tolerant MaxFlow after an edit batch)",
      [](const BenchContext& ctx) {
        Graph g = DirectedBa100k(ctx.seed ^ 0x9a32);
        RothkoOptions options;
        options.max_colors = 128;
        Partition p = RothkoColoring(g, options);
        return std::make_pair(std::move(g), std::move(p));
      },
      [](const std::pair<Graph, Partition>& input,
         std::vector<std::pair<std::string, double>>& counters) {
        const Graph reduced =
            BuildReducedGraph(input.first, input.second, ReducedWeight::kSum);
        counters = {{"reduced_arcs", static_cast<double>(reduced.num_arcs())},
                    {"weight_checksum", ArcChecksum(reduced)}};
      });
}

// --- pipelines group -----------------------------------------------------

void RegisterSolverKernels() {
  RegisterKernel(
      "pipelines/solver-pushrelabel-grid100", "pipelines", /*smoke=*/false,
      "exact push-relabel max-flow on a 100x50 grid network",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0b);
        return GridFlowNetwork(100, 50, 10, 40, rng);
      },
      [](const FlowInstance& inst,
         std::vector<std::pair<std::string, double>>& counters) {
        const double flow =
            MaxFlowPushRelabel(inst.graph, inst.source, inst.sink);
        counters = {{"max_flow", flow}};
      });
  RegisterKernel(
      "pipelines/solver-brandes-ba50k", "pipelines", /*smoke=*/false,
      "64 Brandes dependency-accumulation passes on a 50k-node "
      "Barabasi-Albert graph",
      [](const BenchContext& ctx) {
        Rng rng(ctx.seed ^ 0x9a0c);
        return BarabasiAlbert(50000, 3, rng);
      },
      [](const Graph& g,
         std::vector<std::pair<std::string, double>>& counters) {
        BrandesWorkspace workspace(g);
        std::vector<double> scores(g.num_nodes(), 0.0);
        for (NodeId s = 0; s < 64; ++s) {
          workspace.AccumulateDependencies(s, 1.0, scores);
        }
        counters = {{"score0", scores[0]}};
      });
  RegisterKernel(
      "pipelines/solver-simplex-block8", "pipelines", /*smoke=*/false,
      "simplex solve of an 8x8-group block LP",
      [](const BenchContext&) {
        BlockLpSpec spec;
        spec.num_row_groups = 8;
        spec.num_col_groups = 8;
        spec.rows_per_group = 8;
        spec.cols_per_group = 8;
        spec.seed = 5;
        return MakeBlockLp(spec);
      },
      [](const LpProblem& lp,
         std::vector<std::pair<std::string, double>>& counters) {
        const LpResult result = SolveSimplex(lp);
        counters = {{"objective", result.objective}};
      });
}

// --- session amortization ------------------------------------------------
//
// The compress-once/query-many claim of the api layer (docs/API.md), as a
// committed baseline pair: `compressor-batch-flow` serves k = 16 max-flow
// queries from one qsc::Compressor session (one coloring, 15 cache hits),
// `compressor-cold-flow` answers the same 16 queries with cold
// ApproximateMaxFlow calls (16 colorings). Their baseline medians document
// the amortization factor; the batch scenario's `abs_diff_vs_cold` counter
// pins the bit-identity of session results to the cold path.

constexpr int kBatchFlowQueries = 16;
constexpr ColorId kBatchFlowBudget = 64;

// The Compressor scenarios below run on DirectedBa100k (capacity in both
// directions), so max-flow terminals can be pinned.
void RegisterCompressorBatchFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-batch-flow";
  info.group = "pipelines";
  info.description =
      "16 s-t max-flow queries served by one Compressor session on the "
      "100k-node BA graph (coloring computed once, 15 cache hits)";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        const NodeId source = 0;
        const NodeId sink = g.num_nodes() - 1;
        const std::vector<std::pair<NodeId, NodeId>> pairs(
            kBatchFlowQueries, {source, sink});
        QueryOptions query;
        query.max_colors = kBatchFlowBudget;

        double cache_hits = 0.0, colorings = 0.0, upper = 0.0, colors = 0.0;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          Compressor session(std::shared_ptr<const Graph>(
              std::shared_ptr<const Graph>(), &g));
          const StatusOr<std::vector<FlowQueryResult>> batch =
              session.MaxFlowBatch(pairs, query);
          QSC_CHECK_OK(batch);
          const CompressorStats& stats = session.stats();
          cache_hits = static_cast<double>(stats.coloring.hits);
          colorings = static_cast<double>(stats.coloring.misses);
          upper = batch->back().upper_bound;
          colors = static_cast<double>(batch->back().num_colors);
        });

        // Cold reference, outside the timed closure: the committed
        // baseline asserts per-query bit-identity with the cold path.
        FlowApproxOptions cold;
        cold.rothko.max_colors = kBatchFlowBudget;
        const FlowApproxResult reference =
            ApproximateMaxFlow(g, source, sink, cold);

        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kBatchFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {
            {"cache_hits", cache_hits},
            {"colorings_computed", colorings},
            {"num_colors", colors},
            {"upper_bound", upper},
            {"abs_diff_vs_cold", std::abs(upper - reference.upper_bound)}};
        return r;
      }));
}

// The warm-query claim of the per-snapshot artifacts (docs/API.md "What a
// warm query costs"): one cold and seven warm Centrality calls on one
// session over compressor-batch-flow's graph. The cold call colors and
// runs the pivot passes once; each warm call copies the memoized scores.
// `abs_diff_vs_cold` pins every served score vector to a direct
// ColorPivotScores over a fresh coloring.
constexpr int kWarmCentralityQueries = 8;
constexpr ColorId kWarmCentralityBudget = 16;

void RegisterCompressorWarmCentrality() {
  Scenario::Info info;
  info.name = "pipelines/compressor-warm-centrality";
  info.group = "pipelines";
  info.description =
      "1 cold + 7 warm 16-color Centrality queries served by one Compressor "
      "session on the 100k-node BA graph (pivot scores built once)";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        QueryOptions query;
        query.max_colors = kWarmCentralityBudget;

        double builds = 0.0, hits = 0.0, colors = 0.0;
        std::vector<std::vector<double>> served(kWarmCentralityQueries);
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          Compressor session(std::shared_ptr<const Graph>(
              std::shared_ptr<const Graph>(), &g));
          for (int i = 0; i < kWarmCentralityQueries; ++i) {
            StatusOr<CentralityQueryResult> result = session.Centrality(query);
            QSC_CHECK_OK(result);
            colors = static_cast<double>(result->num_colors);
            served[i] = std::move(result->scores);
          }
          const CacheStats stats = session.stats().coloring;
          builds = static_cast<double>(stats.derived_builds);
          hits = static_cast<double>(stats.derived_hits);
        });

        // Direct reference, outside the timed closure.
        RothkoOptions rothko;
        rothko.max_colors = kWarmCentralityBudget;
        rothko.alpha = 1.0;
        rothko.beta = 1.0;
        const std::vector<double> want =
            ColorPivotScores(g, RothkoColoring(g, rothko),
                             query.pivots_per_color, query.seed);
        double abs_diff = 0.0, score_sum = 0.0;
        for (const std::vector<double>& scores : served) {
          QSC_CHECK_EQ(scores.size(), want.size());
          for (size_t v = 0; v < want.size(); ++v) {
            abs_diff = std::max(abs_diff, std::abs(scores[v] - want[v]));
          }
        }
        for (const double score : want) score_sum += score;

        r.params = {
            {"nodes", static_cast<double>(g.num_nodes())},
            {"arcs", static_cast<double>(g.num_arcs())},
            {"queries", static_cast<double>(kWarmCentralityQueries)},
            {"max_colors", static_cast<double>(kWarmCentralityBudget)}};
        r.counters = {{"derived_builds", builds},
                      {"derived_hits", hits},
                      {"num_colors", colors},
                      {"score_sum", score_sum},
                      {"abs_diff_vs_cold", abs_diff}};
        return r;
      }));
}

void RegisterCompressorColdFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-cold-flow";
  info.group = "pipelines";
  info.description =
      "the same 16 s-t max-flow queries as compressor-batch-flow, each as "
      "a cold ApproximateMaxFlow call (16 colorings); single-shot";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        const NodeId source = 0;
        const NodeId sink = g.num_nodes() - 1;
        FlowApproxOptions cold;
        cold.rothko.max_colors = kBatchFlowBudget;

        double upper = 0.0, colors = 0.0;
        ScenarioResult r;
        // Single-shot: one pass is ~16 colorings of a 100k-node graph;
        // repeats would only slow CI without steadying the median.
        r.timing = MeasureSeconds(kSingleShot, [&] {
          for (int i = 0; i < kBatchFlowQueries; ++i) {
            const FlowApproxResult approx =
                ApproximateMaxFlow(g, source, sink, cold);
            upper = approx.upper_bound;
            colors = static_cast<double>(approx.num_colors);
          }
        });
        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kBatchFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {{"num_colors", colors}, {"upper_bound", upper}};
        return r;
      }));
}

// The parallel-serving claim (ISSUE 5): 8 *distinct* terminal pairs —
// eight independent ColoringSpecs — served by one MaxFlowBatch call on
// the --threads pool. Distinct specs refine concurrently, so the timed
// median scales with the thread count while every counter stays
// bit-identical (the CI counter-identity gate compares --threads 1
// against --threads 4). `abs_diff_vs_serial` pins the batch results to a
// sequential per-query session, query by query.
constexpr int kParallelFlowQueries = 8;

void RegisterCompressorParallelFlow() {
  Scenario::Info info;
  info.name = "pipelines/compressor-parallel-flow";
  info.group = "pipelines";
  info.description =
      "8 distinct s-t max-flow queries fanned out over the --threads pool "
      "by one MaxFlowBatch on the 100k-node BA graph; single-shot";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        const Graph g = DirectedBa100k(ctx.seed ^ 0x9a0d);
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(kParallelFlowQueries);
        for (NodeId i = 0; i < kParallelFlowQueries; ++i) {
          pairs.push_back({i, g.num_nodes() - 1 - i});
        }
        QueryOptions query;
        query.max_colors = kBatchFlowBudget;

        double colorings = 0.0, cache_hits = 0.0;
        double upper_sum = 0.0, colors = 0.0;
        std::vector<double> uppers(pairs.size(), 0.0);
        ScenarioResult r;
        // Single-shot: one pass is 8 colorings of a 100k-node graph
        // (concurrent when --threads > 1); repeats would slow CI without
        // steadying the median.
        r.timing = MeasureSeconds(kSingleShot, [&] {
          Compressor session(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          const StatusOr<std::vector<FlowQueryResult>> batch =
              session.MaxFlowBatch(pairs, query);
          QSC_CHECK_OK(batch);
          const CompressorStats stats = session.stats();
          colorings = static_cast<double>(stats.coloring.misses);
          cache_hits = static_cast<double>(stats.coloring.hits);
          upper_sum = 0.0;
          for (size_t i = 0; i < batch->size(); ++i) {
            uppers[i] = (*batch)[i].upper_bound;
            upper_sum += uppers[i];
          }
          colors = static_cast<double>(batch->back().num_colors);
        });

        // Sequential per-query reference, outside the timed closure: the
        // committed baseline asserts the fan-out changes no result.
        double abs_diff = 0.0;
        {
          Compressor serial(std::shared_ptr<const Graph>(
              std::shared_ptr<const Graph>(), &g));
          for (size_t i = 0; i < pairs.size(); ++i) {
            const StatusOr<FlowQueryResult> want =
                serial.MaxFlow(pairs[i].first, pairs[i].second, query);
            QSC_CHECK_OK(want);
            abs_diff += std::abs(uppers[i] - want->upper_bound);
          }
        }

        r.params = {{"nodes", static_cast<double>(g.num_nodes())},
                    {"arcs", static_cast<double>(g.num_arcs())},
                    {"queries", static_cast<double>(kParallelFlowQueries)},
                    {"max_colors", static_cast<double>(kBatchFlowBudget)}};
        r.counters = {{"colorings_computed", colorings},
                      {"cache_hits", cache_hits},
                      {"num_colors", colors},
                      {"upper_bound_sum", upper_sum},
                      {"abs_diff_vs_serial", abs_diff}};
        return r;
      }));
}

}  // namespace

void RegisterBuiltinScenarios() {
  static const bool registered = [] {
    RegisterColoringScenarios();
    RegisterSolverKernels();
    RegisterCompressorBatchFlow();
    RegisterCompressorColdFlow();
    RegisterCompressorParallelFlow();
    RegisterCompressorWarmCentrality();
    RegisterServingScenarios();
    RegisterFlowScenarios();
    RegisterBackendScenarios();
    RegisterCheckScenarios();
    RegisterDynamicScenarios();
    RegisterPaperScenarios();
    return true;
  }();
  (void)registered;
}

}  // namespace bench
}  // namespace qsc
