// The "paper" group: one single-shot scenario per figure or table of the
// paper's Section 6 that reports a measurement (docs/REPRODUCING.md).
// Each fills the detail table qsc_bench prints and publishes the table's
// deterministic quantities (color counts, q-errors, objectives, dataset
// sizes) as counters; wall-clock times appear only in table cells. The
// instances are the Table 2/3 stand-ins of qsc/eval/suites.h at their
// canonical baked-in seeds, so --seed does not apply. Only the scenarios
// that finish well under a second are in the smoke suite.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "qsc/bench/scenario.h"
#include "qsc/centrality/brandes.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/centrality/path_sampling.h"
#include "qsc/coloring/q_error.h"
#include "qsc/coloring/rothko.h"
#include "qsc/coloring/stable.h"
#include "qsc/eval/pipelines.h"
#include "qsc/eval/suites.h"
#include "qsc/flow/approx_flow.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/datasets.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/perturb.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/random.h"
#include "qsc/util/stats.h"
#include "qsc/util/table.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace bench {
namespace {

void Count(ScenarioResult& r, std::string name, double value) {
  r.counters.push_back({std::move(name), value});
}

std::string FormatOrTimeout(double seconds) {
  return seconds < 0 ? "x" : FormatSeconds(seconds);
}

// Registers `name` in the paper group. The exact oracles dominate every
// paper scenario, so `body` runs once (kSingleShot) whatever --warmup and
// --repeats ask for.
void RegisterPaper(const char* name, bool smoke, const char* description,
                   void (*body)(ScenarioResult&)) {
  Scenario::Info info;
  info.name = name;
  info.group = "paper";
  info.description = description;
  info.smoke = smoke;
  ScenarioRegistry::Global().Register(
      Scenario(std::move(info), [body](const BenchContext&) {
        ScenarioResult r;
        r.timing = MeasureSeconds(kSingleShot, [&] { body(r); });
        return r;
      }));
}

// --- Figures 1-3 ---------------------------------------------------------

// Stable vs quasi-stable coloring of Zachary's karate club.
void Fig1Karate(ScenarioResult& r) {
  const Graph g = KarateClub();
  r.params = {{"nodes", static_cast<double>(g.num_nodes())},
              {"edges", static_cast<double>(g.num_edges())}};
  Count(r, "stable_colors", StableColoring(g).num_colors());
  r.table_header = {"max colors", "measured q", "mean q", "leader color size"};
  for (ColorId k : {4, 5, 6, 7, 8}) {
    RothkoOptions options;
    options.max_colors = k;
    const Partition p = RothkoColoring(g, options);
    const QErrorStats stats = ComputeQError(g, p);
    // Node "34", the strongest club leader.
    const int64_t leader_color = p.ColorSize(p.ColorOf(33));
    r.table_rows.push_back({std::to_string(k), FormatDouble(stats.max_q, 1),
                            FormatDouble(stats.mean_q, 2),
                            std::to_string(leader_color)});
    const std::string key = "c" + std::to_string(k) + "_";
    Count(r, key + "max_q", stats.max_q);
    Count(r, key + "mean_q", stats.mean_q);
    Count(r, key + "leader_color_size", static_cast<double>(leader_color));
  }
  RothkoOptions q3;
  q3.max_colors = 64;
  q3.q_tolerance = 3.0;
  Count(r, "q3_colors", RothkoColoring(g, q3).num_colors());
}

// A 1000-node graph with a 100-color stable coloring, perturbed by up to
// 1.5% random extra edges: stable coloring shatters, q = 4 keeps
// compressing.
void Fig2Robustness(ScenarioResult& r) {
  Rng rng(777);
  const Graph base = BlockBiregularGraph(100, 10, 216, rng);
  r.params = {{"nodes", static_cast<double>(base.num_nodes())},
              {"edges", static_cast<double>(base.num_edges())}};
  r.table_header = {"edges added",  "% perturbed", "stable colors",
                    "stable ratio", "q=4 colors",  "q=4 ratio"};
  for (int added : {0, 54, 108, 162, 216, 270, 324}) {
    const Graph noisy = added == 0 ? base : AddRandomEdges(base, added, rng);
    const ColorId stable = StableColoring(noisy).num_colors();
    RothkoOptions options;
    options.max_colors = 1001;
    options.q_tolerance = 4.0;
    const ColorId quasi = RothkoColoring(noisy, options).num_colors();
    r.table_rows.push_back(
        {std::to_string(added),
         FormatDouble(100.0 * added / base.num_edges(), 2),
         std::to_string(stable), FormatRatio(1000.0 / stable),
         std::to_string(quasi), FormatRatio(1000.0 / quasi)});
    const std::string key = "added" + std::to_string(added) + "_";
    Count(r, key + "stable_colors", stable);
    Count(r, key + "q4_colors", quasi);
  }
}

// The worked 5x3 LP example, reproduced exactly (the instance is the
// paper's): optimum 128.157, reduced optimum 130.199.
void Fig3LpExample(ScenarioResult& r) {
  const LpProblem lp = Figure3Lp();
  LpReduceOptions options;
  options.max_colors = 6;
  const ReducedLp reduced = ReduceLp(lp, options);
  Count(r, "exact_objective", SolveSimplex(lp).objective);
  Count(r, "reduced_objective", SolveSimplex(reduced.lp).objective);
  Count(r, "max_q", reduced.max_q);
  for (int32_t i = 0; i < 5; ++i) {
    Count(r, "row" + std::to_string(i) + "_color", reduced.row_color[i]);
  }
  for (int32_t j = 0; j < 3; ++j) {
    Count(r, "col" + std::to_string(j) + "_color", reduced.col_color[j]);
  }

  const auto entry = [&reduced](int32_t row, int32_t col) {
    for (const LpEntry& e : reduced.lp.entries) {
      if (e.row == row && e.col == col) return e.value;
    }
    return 0.0;
  };
  const int32_t r0 = reduced.row_color[0];
  const int32_t r1 = reduced.row_color[3];
  const int32_t s0 = reduced.col_color[0];
  const int32_t s1 = reduced.col_color[2];
  r.table_header = {"block", "value", "paper"};
  const auto add = [&r](const char* block, const char* key, double value,
                        const char* paper) {
    r.table_rows.push_back({block, FormatDouble(value, 4), paper});
    Count(r, key, value);
  };
  add("A(0,0)", "A00", entry(r0, s0), "34/sqrt(6) = 13.8804");
  add("A(0,1)", "A01", entry(r0, s1), "5/sqrt(3) = 2.8868");
  add("A(1,0)", "A10", entry(r1, s0), "9/sqrt(4) = 4.5000");
  add("A(1,1)", "A11", entry(r1, s1), "43/sqrt(2) = 30.4056");
  add("b(0)", "b0", reduced.lp.b[r0], "61/sqrt(3) = 35.2184");
  add("b(1)", "b1", reduced.lp.b[r1], "101/sqrt(2) = 71.4178");
  add("c(0)", "c0", reduced.lp.c[s0], "19/sqrt(2) = 13.4350");
  add("c(1)", "c1", reduced.lp.c[s1], "50");
}

// --- Figure 7: speed-accuracy sweeps over the dataset suites -------------

void Fig7MaxFlow(ScenarioResult& r) {
  r.table_header = {"dataset", "exact flow", "exact time", "colors",
                    "approx",  "rel.err",    "time",       "% of exact"};
  const eval::EvalOptions options;  // push-relabel oracle
  std::vector<double> errors_at_budget;
  for (const auto& dataset : eval::FlowSuite()) {
    const auto runs =
        eval::RunMaxFlowPipeline(dataset.instance, options, {5, 10, 20, 35});
    for (const eval::RunMetrics& m : runs) {
      if (m.color_budget == 35) {
        errors_at_budget.push_back(m.relative_error);
        Count(r, dataset.name + "_b35_rel_err", m.relative_error);
      }
      r.table_rows.push_back(
          {dataset.name, FormatDouble(m.exact_value, 0),
           FormatSeconds(m.exact_seconds), std::to_string(m.color_budget),
           FormatDouble(m.approx_value, 0), FormatDouble(m.relative_error, 3),
           FormatSeconds(m.approx_seconds),
           FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 1)});
    }
  }
  Count(r, "geomean_rel_err_b35", GeometricMean(errors_at_budget));
}

void Fig7Lp(ScenarioResult& r) {
  r.table_header = {"dataset",    "exact obj", "exact time", "colors",
                    "approx obj", "rel.err",   "time",       "% of exact"};
  const eval::EvalOptions options;  // interior-point oracle
  std::vector<double> errors_at_100;
  for (const auto& dataset : eval::LpSuite()) {
    const auto runs =
        eval::RunLpPipeline(dataset.lp, options, {10, 25, 50, 100});
    for (const eval::RunMetrics& m : runs) {
      if (m.color_budget == 100) {
        errors_at_100.push_back(m.relative_error);
        Count(r, dataset.name + "_b100_rel_err", m.relative_error);
      }
      r.table_rows.push_back(
          {dataset.name, FormatDouble(m.exact_value, 1),
           FormatSeconds(m.exact_seconds), std::to_string(m.color_budget),
           FormatDouble(m.approx_value, 1), FormatDouble(m.relative_error, 3),
           FormatSeconds(m.approx_seconds),
           FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 2)});
    }
  }
  Count(r, "geomean_rel_err_b100", GeometricMean(errors_at_100));
}

void Fig7Centrality(ScenarioResult& r) {
  r.table_header = {"dataset",  "exact time", "colors",
                    "spearman", "time",       "% of exact"};
  eval::EvalOptions options;
  options.seed = 17;  // pivot-sampling seed (ColorPivotOptions' default)
  std::vector<double> rho_at_50;
  for (const auto& dataset : eval::CentralityGraphSuite()) {
    const auto runs =
        eval::RunCentralityPipeline(dataset.graph, options, {10, 25, 50, 100});
    for (const eval::RunMetrics& m : runs) {
      if (m.color_budget == 50) {
        rho_at_50.push_back(m.rank_correlation);
        Count(r, dataset.name + "_b50_rho", m.rank_correlation);
      }
      r.table_rows.push_back(
          {dataset.name, FormatSeconds(m.exact_seconds),
           std::to_string(m.color_budget), FormatDouble(m.rank_correlation, 3),
           FormatSeconds(m.approx_seconds),
           FormatDouble(100.0 * m.approx_seconds / m.exact_seconds, 1)});
    }
  }
  Count(r, "mean_rho_b50", Mean(rho_at_50));
}

// --- Figure 8: accuracy vs colors, one dataset per task ------------------

void Fig8Accuracy(ScenarioResult& r) {
  const std::vector<ColorId> budgets{5, 10, 20, 40, 80, 150};
  r.table_header = {"task", "dataset", "colors", "metric", "value"};
  const auto add_rows = [&r](const char* task, const std::string& dataset,
                             const std::vector<eval::RunMetrics>& runs,
                             bool rho) {
    for (const eval::RunMetrics& m : runs) {
      const double value = rho ? m.rank_correlation : m.relative_error;
      r.table_rows.push_back({task, dataset, std::to_string(m.color_budget),
                              rho ? "spearman" : "rel.err",
                              FormatDouble(value, 3)});
      const std::string key = std::string(task) + "_b" +
                              std::to_string(m.color_budget) +
                              (rho ? "_rho" : "_rel_err");
      Count(r, key, value);
    }
  };
  const eval::EvalOptions options;
  const eval::NamedFlow flow = eval::FlowSuite()[2];  // venus0-sim
  add_rows("maxflow", flow.name,
           eval::RunMaxFlowPipeline(flow.instance, options, budgets),
           /*rho=*/false);
  const eval::NamedLp lp = eval::LpSuite()[0];  // qap15-sim
  add_rows("lp", lp.name, eval::RunLpPipeline(lp.lp, options, budgets),
           /*rho=*/false);
  eval::EvalOptions centrality;
  centrality.seed = 17;  // ColorPivotOptions' default pivot seed
  const eval::NamedGraph graph = eval::CentralityGraphSuite()[0];  // astroph
  add_rows("centrality", graph.name,
           eval::RunCentralityPipeline(graph.graph, centrality, budgets),
           /*rho=*/true);
}

// --- Table 1: runtime to reach a target accuracy -------------------------

constexpr double kRhoTargets[] = {0.90, 0.95, 0.97};
constexpr double kErrorTargets[] = {3.0, 2.0, 1.5};
constexpr double kTimeoutSeconds = 120.0;  // "x" in the table

// Smallest cumulative time at which the anytime color-pivot estimator
// reaches each target rho. The budget ladder first grows the coloring,
// then the number of pivots per color (variance decays with the total
// number of dependency passes).
std::vector<double> CentralityOursTimes(const Graph& g,
                                        const std::vector<double>& exact) {
  struct Checkpoint {
    ColorId colors;
    int32_t pivots;
  };
  static constexpr Checkpoint kLadder[] = {
      {10, 1},  {20, 1},  {35, 1},  {50, 1},  {100, 1},
      {200, 1}, {200, 2}, {200, 4}, {200, 8}, {200, 16},
  };
  std::vector<double> times(std::size(kRhoTargets), -1.0);
  WallTimer timer;
  RothkoOptions rothko;
  rothko.alpha = 1.0;
  rothko.beta = 1.0;
  rothko.split_mean = RothkoOptions::SplitMean::kGeometric;
  rothko.max_colors = 400;
  RothkoRefiner refiner(g, Partition::Trivial(g.num_nodes()), rothko);
  double coloring_seconds = 0.0;
  for (const Checkpoint& checkpoint : kLadder) {
    WallTimer step_timer;
    while (refiner.partition().num_colors() < checkpoint.colors) {
      if (!refiner.Step(checkpoint.colors)) break;
    }
    coloring_seconds += step_timer.ElapsedSeconds();

    ColorPivotOptions options;
    options.pivots_per_color = checkpoint.pivots;
    step_timer.Reset();
    const auto approx =
        ApproximateBetweennessWithColoring(g, refiner.partition(), options);
    const double solve_seconds = step_timer.ElapsedSeconds();
    const double rho = SpearmanCorrelation(approx.scores, exact);
    // Anytime cost: all coloring so far plus this checkpoint's solve.
    const double cumulative = coloring_seconds + solve_seconds;
    for (size_t t = 0; t < std::size(kRhoTargets); ++t) {
      if (times[t] < 0 && rho >= kRhoTargets[t]) times[t] = cumulative;
    }
    if (times.back() >= 0) break;
    if (timer.ElapsedSeconds() > kTimeoutSeconds) break;
  }
  return times;
}

// Riondato-Kornaropoulos baseline: tighten epsilon until each target rho
// is met; report the runtime of the first configuration that meets it
// (the practitioner's retry loop, charged only for the successful run,
// which favors RK).
std::vector<double> CentralityRkTimes(const Graph& g,
                                      const std::vector<double>& exact) {
  std::vector<double> times(std::size(kRhoTargets), -1.0);
  for (double eps : {0.1, 0.05, 0.02, 0.01}) {
    RkOptions options;
    options.epsilon = eps;
    WallTimer timer;
    const auto result = BetweennessRk(g, options);
    const double seconds = timer.ElapsedSeconds();
    const double rho = SpearmanCorrelation(result.scores, exact);
    for (size_t t = 0; t < std::size(kRhoTargets); ++t) {
      if (times[t] < 0 && rho >= kRhoTargets[t]) times[t] = seconds;
    }
    if (times.back() >= 0) break;
    if (seconds > kTimeoutSeconds) break;
  }
  return times;
}

// Anytime co-routine: the refiner keeps its coloring between budgets, and
// each checkpoint solves the growing reduced LP until the achieved error
// (vs the exact optimum) meets the target.
std::vector<double> LpOursTimes(const LpProblem& lp, double exact_obj) {
  std::vector<double> times(std::size(kErrorTargets), -1.0);
  double cumulative = 0.0;
  LpColoringRefiner refiner(lp, LpReduceOptions());
  for (ColorId colors : {8, 15, 25, 40, 60, 100, 150}) {
    WallTimer timer;
    const ReducedLp reduced = refiner.ReduceTo(colors);
    const LpResult red = SolveSimplex(reduced.lp);
    cumulative += timer.ElapsedSeconds();
    if (red.status != LpStatus::kOptimal) continue;
    const double rel = RelativeError(exact_obj, red.objective);
    for (size_t t = 0; t < std::size(kErrorTargets); ++t) {
      if (times[t] < 0 && rel <= kErrorTargets[t]) times[t] = cumulative;
    }
    if (times.back() >= 0) break;
  }
  return times;
}

// The early-stopping baseline runs the IPM until its certified relative
// duality gap reaches the target (the recommended practice [33]).
std::vector<double> LpEarlyStopTimes(const LpProblem& lp) {
  std::vector<double> times(std::size(kErrorTargets), -1.0);
  for (size_t t = 0; t < std::size(kErrorTargets); ++t) {
    IpmOptions options;
    options.early_stop_rel_gap = kErrorTargets[t];
    WallTimer timer;
    const IpmResult result = SolveInteriorPoint(lp, options);
    if (result.status == LpStatus::kOptimal) {
      times[t] = timer.ElapsedSeconds();
    }
  }
  return times;
}

// One Table-1 row: ours/prior interleaved per target, then the exact
// time. Counts how many targets each side reached.
void AddTable1Row(ScenarioResult& r, const std::string& dataset,
                  const std::vector<double>& ours,
                  const std::vector<double>& prior, double exact_seconds) {
  std::vector<std::string> row{dataset};
  for (size_t t = 0; t < ours.size(); ++t) {
    row.push_back(FormatOrTimeout(ours[t]));
    row.push_back(FormatOrTimeout(prior[t]));
  }
  row.push_back(FormatSeconds(exact_seconds));
  r.table_rows.push_back(std::move(row));
  const auto reached = [](const std::vector<double>& times) {
    return static_cast<double>(
        std::count_if(times.begin(), times.end(),
                      [](double seconds) { return seconds >= 0; }));
  };
  Count(r, dataset + "_ours_reached", reached(ours));
  Count(r, dataset + "_prior_reached", reached(prior));
}

void Table1Centrality(ScenarioResult& r) {
  r.table_header = {"dataset",    "ours 0.90", "prior 0.90", "ours 0.95",
                    "prior 0.95", "ours 0.97", "prior 0.97", "exact"};
  for (const auto& dataset : eval::CentralityGraphSuite()) {
    WallTimer timer;
    const std::vector<double> exact = BetweennessExact(dataset.graph);
    const double exact_seconds = timer.ElapsedSeconds();
    AddTable1Row(r, dataset.name, CentralityOursTimes(dataset.graph, exact),
                 CentralityRkTimes(dataset.graph, exact), exact_seconds);
  }
}

void Table1Lp(ScenarioResult& r) {
  r.table_header = {"dataset",   "ours 3.0", "prior 3.0", "ours 2.0",
                    "prior 2.0", "ours 1.5", "prior 1.5", "exact"};
  for (const auto& dataset : eval::LpSuite()) {
    WallTimer timer;
    const IpmResult exact = SolveInteriorPoint(dataset.lp);
    const double exact_seconds = timer.ElapsedSeconds();
    AddTable1Row(r, dataset.name, LpOursTimes(dataset.lp, exact.objective),
                 LpEarlyStopTimes(dataset.lp), exact_seconds);
  }
}

// --- Tables 2-6 ----------------------------------------------------------

// The evaluation graph index: the stand-ins (plus the embedded karate
// club) next to the paper datasets they model.
void Table2Datasets(ScenarioResult& r) {
  r.table_header = {"block", "name",     "paper dataset", "vertices",
                    "edges", "real/sim", "kind"};
  const auto add = [&r](const char* block, const std::string& name,
                        const std::string& paper_name, int64_t vertices,
                        int64_t edges, bool real, const char* kind) {
    r.table_rows.push_back({block, name, paper_name, FormatCount(vertices),
                            FormatCount(edges), real ? "R" : "S", kind});
    Count(r, name + "_vertices", static_cast<double>(vertices));
    Count(r, name + "_edges", static_cast<double>(edges));
  };
  const auto add_graphs = [&add](const char* block,
                                 const std::vector<eval::NamedGraph>& suite) {
    for (const auto& d : suite) {
      add(block, d.name, d.paper_name, d.graph.num_nodes(),
          d.graph.num_edges(), d.real,
          d.graph.undirected() ? "undirected" : "directed");
    }
  };
  add_graphs("general", eval::GeneralGraphSuite());
  add_graphs("centrality", eval::CentralityGraphSuite());
  for (const auto& d : eval::FlowSuite()) {
    add("max-flow", d.name, d.paper_name, d.instance.graph.num_nodes(),
        d.instance.graph.num_arcs(), false, "flow network");
  }
}

// The LP instance index, with the exact interior-point solve time standing
// in for the paper's "Sol. time" column.
void Table3Lps(ScenarioResult& r) {
  r.table_header = {"name", "paper dataset", "rows",
                    "cols", "nonzeros",      "sol. time"};
  for (const auto& d : eval::LpSuite()) {
    WallTimer timer;
    const IpmResult exact = SolveInteriorPoint(d.lp);
    const double seconds = timer.ElapsedSeconds();
    const bool optimal = exact.status == LpStatus::kOptimal;
    r.table_rows.push_back(
        {d.name, d.paper_name, FormatCount(d.lp.num_rows),
         FormatCount(d.lp.num_cols), FormatCount(d.lp.NumNonzeros()),
         optimal ? FormatSeconds(seconds) : "x"});
    Count(r, d.name + "_rows", d.lp.num_rows);
    Count(r, d.name + "_cols", d.lp.num_cols);
    Count(r, d.name + "_nonzeros", static_cast<double>(d.lp.NumNonzeros()));
    Count(r, d.name + "_optimal", optimal ? 1.0 : 0.0);
  }
}

// Stable coloring vs Rothko at max q in {64, 32, 16, 8} on the general
// datasets (karate is Figure 1's).
void Table4Compression(ScenarioResult& r) {
  r.table_header = {"dataset", "target",      "max q", "mean q",
                    "colors",  "compression", "time"};
  for (const auto& dataset : eval::GeneralGraphSuite()) {
    if (dataset.name == "karate") continue;
    const Graph& g = dataset.graph;

    WallTimer timer;
    const Partition stable = StableColoring(g);
    const double stable_seconds = timer.ElapsedSeconds();
    r.table_rows.push_back({dataset.name, "stable (q=0)", "0", "0",
                            FormatCount(stable.num_colors()),
                            FormatRatio(stable.CompressionRatio()),
                            FormatSeconds(stable_seconds)});
    Count(r, dataset.name + "_stable_colors", stable.num_colors());

    for (double q : {64.0, 32.0, 16.0, 8.0}) {
      RothkoOptions options;
      options.max_colors = g.num_nodes();
      options.q_tolerance = q;
      options.split_mean = RothkoOptions::SplitMean::kGeometric;
      timer.Reset();
      const Partition p = RothkoColoring(g, options);
      const double seconds = timer.ElapsedSeconds();
      const QErrorStats stats = ComputeQError(g, p);
      char target[16];
      std::snprintf(target, sizeof(target), "q = %.0f", q);
      r.table_rows.push_back(
          {dataset.name, target, FormatDouble(stats.max_q, 2),
           FormatDouble(stats.mean_q, 2), FormatCount(p.num_colors()),
           FormatRatio(p.CompressionRatio()), FormatSeconds(seconds)});
      const std::string key =
          dataset.name + "_q" + std::to_string(static_cast<int>(q)) + "_";
      Count(r, key + "colors", p.num_colors());
      Count(r, key + "max_q", stats.max_q);
      Count(r, key + "mean_q", stats.mean_q);
    }
  }
}

// Reduced LP size, matrix compression (original nnz / reduced nnz) and
// the reduced optimum's relative error at 6, 50 and 100 colors.
void Table5LpCompression(ScenarioResult& r) {
  r.table_header = {"dataset",  "colors",      "rows",     "cols",
                    "nonzeros", "compression", "rel.error"};
  for (const auto& dataset : eval::LpSuite()) {
    const IpmResult exact = SolveInteriorPoint(dataset.lp);
    for (ColorId colors : {6, 50, 100}) {
      LpReduceOptions options;
      options.max_colors = colors;
      const ReducedLp reduced = ReduceLp(dataset.lp, options);
      const LpResult red = SolveSimplex(reduced.lp);
      const double rel = red.status == LpStatus::kOptimal
                             ? RelativeError(exact.objective, red.objective)
                             : std::numeric_limits<double>::infinity();
      const double compression =
          static_cast<double>(dataset.lp.NumNonzeros()) /
          std::max<int64_t>(1, reduced.lp.NumNonzeros());
      r.table_rows.push_back(
          {dataset.name, std::to_string(colors),
           FormatCount(reduced.lp.num_rows), FormatCount(reduced.lp.num_cols),
           FormatCount(reduced.lp.NumNonzeros()), FormatRatio(compression),
           std::isinf(rel) ? "inf" : FormatDouble(rel, 2)});
      const std::string key =
          dataset.name + "_c" + std::to_string(colors) + "_";
      Count(r, key + "nonzeros", static_cast<double>(reduced.lp.NumNonzeros()));
      Count(r, key + "rel_err", rel);  // inf serializes as null
    }
  }
}

// Time to first result (first split plus one approximate solve), mean
// time between new colors, and time to converge, per task family.
void Table6Responsiveness(ScenarioResult& r) {
  r.table_header = {"task", "time-to-first-result", "update frequency",
                    "time to converge"};
  struct Cadence {
    std::vector<double> first, freq, converge;
    void AddHistory(const std::vector<RothkoStep>& history) {
      if (history.empty()) {
        first.push_back(0.0);
        freq.push_back(0.0);
        converge.push_back(0.0);
        return;
      }
      first.push_back(history.front().elapsed_seconds);
      converge.push_back(history.back().elapsed_seconds);
      freq.push_back(history.size() > 1
                         ? (history.back().elapsed_seconds -
                            history.front().elapsed_seconds) /
                               static_cast<double>(history.size() - 1)
                         : 0.0);
    }
    void AddRow(ScenarioResult& out, const char* task) const {
      out.table_rows.push_back({task, FormatSeconds(Mean(first)),
                                FormatSeconds(Mean(freq)),
                                FormatSeconds(Mean(converge))});
    }
  };

  // Linear optimization: the matrix coloring to 100 colors. First result
  // = first split + one tiny solve, the tiny solve bounded above by the
  // final solve time.
  {
    Cadence lp;
    double colors = 0.0;
    for (const auto& ds : eval::LpSuite()) {
      LpReduceOptions options;
      options.max_colors = 100;
      const ReducedLp reduced = ReduceLp(ds.lp, options);
      const double color_seconds = reduced.coloring_seconds;
      WallTimer timer;
      (void)SolveSimplex(reduced.lp);
      const double solve_seconds = timer.ElapsedSeconds();
      lp.first.push_back(color_seconds / 96.0 + solve_seconds);
      lp.freq.push_back(color_seconds / 96.0);
      lp.converge.push_back(color_seconds);
      colors += reduced.lp.num_rows + reduced.lp.num_cols;
    }
    lp.AddRow(r, "linear opt.");
    Count(r, "lp_reduced_rows_plus_cols", colors);
  }

  // Max-flow: refiner history on the flow networks, terminals pinned.
  {
    Cadence flow;
    double splits = 0.0;
    for (const auto& ds : eval::FlowSuite()) {
      std::vector<int32_t> labels(ds.instance.graph.num_nodes(), 2);
      labels[ds.instance.source] = 0;
      labels[ds.instance.sink] = 1;
      RothkoOptions options;
      options.max_colors = 35;
      RothkoRefiner refiner(ds.instance.graph,
                            Partition::FromColorIds(labels), options);
      refiner.Run();
      flow.AddHistory(refiner.history());
      splits += static_cast<double>(refiner.history().size());
    }
    flow.AddRow(r, "max-flow");
    Count(r, "maxflow_splits", splits);
  }

  // Centrality: refiner history on the centrality graphs.
  {
    Cadence centrality;
    double splits = 0.0;
    for (const auto& ds : eval::CentralityGraphSuite()) {
      RothkoOptions options;
      options.max_colors = 100;
      options.alpha = 1.0;
      options.beta = 1.0;
      RothkoRefiner refiner(ds.graph, Partition::Trivial(ds.graph.num_nodes()),
                            options);
      refiner.Run();
      centrality.AddHistory(refiner.history());
      splits += static_cast<double>(refiner.history().size());
    }
    centrality.AddRow(r, "centrality");
    Count(r, "centrality_splits", splits);
  }
}

// --- Ablations (not in the paper) ----------------------------------------

int64_t LargestColor(const Partition& p) {
  int64_t largest = 0;
  for (int64_t s : p.ColorSizes()) largest = std::max(largest, s);
  return largest;
}

// The two design choices of Sec 5.2. (A) split threshold: arithmetic vs
// geometric mean on a scale-free graph, where arithmetic splits are badly
// unbalanced. (B) witness weighting C_ij = |P_i|^alpha |P_j|^beta: each
// task at a fixed color budget under all three weightings the paper
// prescribes for some task.
void AblationDesign(ScenarioResult& r) {
  r.table_header = {"ablation", "variant",       "setting", "paper choice",
                    "colors",   "largest color", "max q",   "accuracy"};
  {
    Rng rng(71);
    const Graph g = BarabasiAlbert(20000, 3, rng);
    for (const auto split : {RothkoOptions::SplitMean::kArithmetic,
                             RothkoOptions::SplitMean::kGeometric}) {
      const char* split_name =
          split == RothkoOptions::SplitMean::kArithmetic ? "arithmetic"
                                                         : "geometric";
      for (double q : {32.0, 16.0, 8.0}) {
        RothkoOptions options;
        options.max_colors = g.num_nodes();
        options.q_tolerance = q;
        options.split_mean = split;
        const Partition p = RothkoColoring(g, options);
        const double max_q = ComputeQError(g, p).max_q;
        r.table_rows.push_back(
            {"A split", split_name, "q=" + FormatDouble(q, 0), "-",
             FormatCount(p.num_colors()), FormatCount(LargestColor(p)),
             FormatDouble(max_q, 1), "-"});
        const std::string key = std::string(split_name) + "_q" +
                                std::to_string(static_cast<int>(q)) + "_";
        Count(r, key + "colors", p.num_colors());
        Count(r, key + "largest_color", static_cast<double>(LargestColor(p)));
        Count(r, key + "max_q", max_q);
      }
    }
  }

  struct Weighting {
    const char* name;
    const char* key;
    double alpha;
    double beta;
  };
  static constexpr Weighting kWeightings[] = {{"a=0 b=0", "a0b0", 0.0, 0.0},
                                              {"a=1 b=0", "a1b0", 1.0, 0.0},
                                              {"a=1 b=1", "a1b1", 1.0, 1.0}};
  const auto add_row = [&r](const char* task, const char* paper_choice,
                            const Weighting& w, const char* metric,
                            double accuracy, bool ok) {
    r.table_rows.push_back({"B weighting", task, w.name, paper_choice, "-",
                            "-", "-", ok ? FormatDouble(accuracy, 3) : "x"});
    Count(r, std::string(metric) + "_" + w.key,
          ok ? accuracy : std::numeric_limits<double>::quiet_NaN());
  };

  // Max-flow (paper: a=0 b=0), accuracy = relative error, lower better.
  const eval::NamedFlow flow = eval::FlowSuite()[2];  // venus0-sim
  const double exact_flow = MaxFlowPushRelabel(
      flow.instance.graph, flow.instance.source, flow.instance.sink);
  for (const Weighting& w : kWeightings) {
    FlowApproxOptions options;
    options.rothko.max_colors = 20;
    options.rothko.alpha = w.alpha;
    options.rothko.beta = w.beta;
    const auto approx = ApproximateMaxFlow(
        flow.instance.graph, flow.instance.source, flow.instance.sink, options);
    add_row("max-flow (rel.err)", "a=0 b=0", w, "maxflow_rel_err",
            RelativeError(exact_flow, approx.upper_bound), true);
  }

  // LP (paper: a=1 b=0).
  const eval::NamedLp lp = eval::LpSuite()[0];  // qap15-sim
  const IpmResult exact_lp = SolveInteriorPoint(lp.lp);
  for (const Weighting& w : kWeightings) {
    LpReduceOptions options;
    options.max_colors = 40;
    options.alpha = w.alpha;
    options.beta = w.beta;
    const LpResult red = SolveSimplex(ReduceLp(lp.lp, options).lp);
    const bool ok = red.status == LpStatus::kOptimal;
    add_row("LP (rel.err)", "a=1 b=0", w, "lp_rel_err",
            ok ? RelativeError(exact_lp.objective, red.objective) : 0.0, ok);
  }

  // Centrality (paper: a=1 b=1), accuracy = Spearman, higher better.
  const eval::NamedGraph graph = eval::CentralityGraphSuite()[0];  // astroph
  const std::vector<double> exact_scores = BetweennessExact(graph.graph);
  for (const Weighting& w : kWeightings) {
    ColorPivotOptions options;
    options.rothko.max_colors = 50;
    options.rothko.alpha = w.alpha;
    options.rothko.beta = w.beta;
    const auto approx = ApproximateBetweenness(graph.graph, options);
    add_row("centrality (rho)", "a=1 b=1", w, "centrality_rho",
            SpearmanCorrelation(approx.scores, exact_scores), true);
  }
}

}  // namespace

void RegisterPaperScenarios() {
  RegisterPaper("paper/fig1-karate", /*smoke=*/true,
                "Figure 1: stable vs quasi-stable coloring of the karate "
                "club (paper: stable 27 colors, q=3 needs 6)",
                &Fig1Karate);
  RegisterPaper("paper/fig2-robustness", /*smoke=*/true,
                "Figure 2: stable vs q=4 colors as random edges perturb a "
                "100-color stable graph",
                &Fig2Robustness);
  RegisterPaper("paper/fig3-lp-example", /*smoke=*/true,
                "Figure 3: the worked LP reduction, exact (paper: optimum "
                "128.157, reduced 130.199)",
                &Fig3LpExample);
  RegisterPaper("paper/fig7-maxflow", /*smoke=*/false,
                "Figure 7(a): max-flow speed-accuracy sweep over the "
                "Table-2 flow suite (paper: geomean rel.err 1.17)",
                &Fig7MaxFlow);
  RegisterPaper("paper/fig7-lp", /*smoke=*/false,
                "Figure 7(b): LP speed-accuracy sweep over the Table-3 LP "
                "suite (paper: geomean rel.err 1.13)",
                &Fig7Lp);
  RegisterPaper("paper/fig7-centrality", /*smoke=*/false,
                "Figure 7(c): betweenness sweep over the Table-2 centrality "
                "suite (paper: rho > 0.948 at 50 colors)",
                &Fig7Centrality);
  RegisterPaper("paper/fig8-accuracy", /*smoke=*/false,
                "Figure 8: accuracy vs colors, one dataset per task",
                &Fig8Accuracy);
  RegisterPaper("paper/table1-centrality", /*smoke=*/false,
                "Table 1 (top): time to a target rho, color pivots vs "
                "Riondato-Kornaropoulos vs Brandes",
                &Table1Centrality);
  RegisterPaper("paper/table1-lp", /*smoke=*/false,
                "Table 1 (bottom): time to a target rel.err, reduced LP vs "
                "early-stopped IPM vs exact",
                &Table1Lp);
  RegisterPaper("paper/table2-datasets", /*smoke=*/true,
                "Table 2: the evaluation graphs (stand-ins) and their sizes",
                &Table2Datasets);
  RegisterPaper("paper/table3-lps", /*smoke=*/false,
                "Table 3: the evaluation LPs (stand-ins), sizes and exact "
                "solve time",
                &Table3Lps);
  RegisterPaper("paper/table4-compression", /*smoke=*/true,
                "Table 4: compression of q-stable vs stable coloring on the "
                "general datasets",
                &Table4Compression);
  RegisterPaper("paper/table5-lp-compression", /*smoke=*/false,
                "Table 5: reduced LP sizes, compression and rel.err at "
                "6/50/100 colors",
                &Table5LpCompression);
  RegisterPaper("paper/table6-responsiveness", /*smoke=*/false,
                "Table 6: Rothko time to first result, update cadence and "
                "time to converge per task",
                &Table6Responsiveness);
  RegisterPaper("paper/ablation-design", /*smoke=*/false,
                "Sec 5.2 ablations: arithmetic vs geometric split threshold; "
                "witness weighting per task",
                &AblationDesign);
}

}  // namespace bench
}  // namespace qsc
