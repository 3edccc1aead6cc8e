// The check/ scenario group: every application area covered, exact-name
// lookup, per-area counter shapes, seed reproducibility, zero invariant
// violations under several seeds, and the pipeline and dataset-suite
// helpers the scenarios build on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "qsc/bench/report.h"
#include "qsc/bench/scenario.h"
#include "qsc/eval/pipelines.h"
#include "qsc/eval/suites.h"
#include "qsc/graph/generators.h"
#include "qsc/util/random.h"

namespace qsc {
namespace bench {
namespace {

using Counters = std::map<std::string, double>;

std::vector<const Scenario*> CheckScenarios() {
  RegisterBuiltinScenarios();
  std::vector<const Scenario*> out;
  for (const Scenario* s : ScenarioRegistry::Global().List()) {
    if (s->info().group == "check") out.push_back(s);
  }
  return out;
}

ScenarioResult RunCheck(const std::string& name, uint64_t seed) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find(name);
  EXPECT_NE(scenario, nullptr) << name;
  if (scenario == nullptr) return {};
  BenchContext ctx;
  ctx.seed = seed;
  ctx.measure = kSingleShot;
  return scenario->Run(ctx);
}

Counters CountersOf(const ScenarioResult& r) {
  Counters out;
  for (const auto& [key, value] : r.counters) out[key] = value;
  return out;
}

// The budgets a sweep published, ascending (from its "b<N>_colors" keys).
std::vector<int> Budgets(const Counters& c) {
  std::set<int> budgets;
  for (const auto& [key, value] : c) {
    const size_t suffix = key.find("_colors");
    if (key[0] == 'b' && suffix != std::string::npos) {
      budgets.insert(std::stoi(key.substr(1, suffix - 1)));
    }
  }
  return {budgets.begin(), budgets.end()};
}

double At(const Counters& c, int budget, const char* metric) {
  return c.at("b" + std::to_string(budget) + "_" + metric);
}

bool Has(const Counters& c, int budget, const char* metric) {
  return c.count("b" + std::to_string(budget) + "_" + metric) > 0;
}

// Bitwise counter identity (the reproducibility contract).
bool SameBits(const Counters& a, const Counters& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end() ||
        std::memcmp(&value, &it->second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(CheckScenariosTest, CoverEveryApplicationArea) {
  RegisterBuiltinScenarios();  // idempotent
  const std::vector<const Scenario*> checks = CheckScenarios();
  EXPECT_EQ(checks.size(), 9u);
  std::set<std::string> areas;
  std::set<std::string> names;
  for (const Scenario* s : checks) {
    EXPECT_TRUE(names.insert(s->name()).second) << "duplicate " << s->name();
    EXPECT_TRUE(s->info().smoke) << s->name();
    // Names follow the "check/<area>-<instance>" convention.
    const std::string rest = s->name().substr(std::strlen("check/"));
    const std::string area = rest.substr(0, rest.find('-'));
    EXPECT_TRUE(area == "maxflow" || area == "lp" || area == "centrality")
        << s->name();
    areas.insert(area);
  }
  EXPECT_EQ(areas.size(), 3u);
}

TEST(CheckScenariosTest, FindIsExactAndMissReturnsNull) {
  RegisterBuiltinScenarios();
  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  EXPECT_NE(registry.Find("check/maxflow-seg-grid"), nullptr);
  EXPECT_EQ(registry.Find("check/maxflow-nope"), nullptr);
  EXPECT_EQ(registry.Find("check/maxflow"), nullptr);
  EXPECT_EQ(registry.Find("maxflow/seg-grid"), nullptr);
}

TEST(CheckScenariosTest, FlowCountersHaveFlowMetrics) {
  const Counters c = CountersOf(RunCheck("check/maxflow-grid", 3));
  const std::vector<int> budgets = Budgets(c);
  EXPECT_EQ(budgets, (std::vector<int>{5, 10, 20, 40}));
  const double exact = c.at("exact");
  EXPECT_GT(exact, 0.0);
  for (const int b : budgets) {
    EXPECT_GE(At(c, b, "approx"), exact - 1e-6);  // upper bound
    EXPECT_GE(At(c, b, "rel_err"), 1.0);
    EXPECT_FALSE(Has(c, b, "rho"));  // not a centrality run
    EXPECT_LE(At(c, b, "colors"), b);
    EXPECT_GE(At(c, b, "max_q"), 0.0);
  }
}

TEST(CheckScenariosTest, CentralityCountersHaveRankCorrelation) {
  const Counters c = CountersOf(RunCheck("check/centrality-karate", 1));
  const std::vector<int> budgets = Budgets(c);
  ASSERT_FALSE(budgets.empty());
  EXPECT_EQ(c.count("exact"), 0u);
  for (const int b : budgets) {
    EXPECT_FALSE(Has(c, b, "approx"));
    EXPECT_FALSE(Has(c, b, "rel_err"));
    EXPECT_GE(At(c, b, "rho"), -1.0 - 1e-9);
    EXPECT_LE(At(c, b, "rho"), 1.0 + 1e-9);
  }
}

TEST(CheckScenariosTest, LpCountersTrackReducedDimensions) {
  const Counters c = CountersOf(RunCheck("check/lp-block", 5));
  const std::vector<int> budgets = Budgets(c);
  ASSERT_FALSE(budgets.empty());
  EXPECT_TRUE(std::isfinite(c.at("exact")));
  for (const int b : budgets) {
    EXPECT_TRUE(std::isfinite(At(c, b, "approx")));
    EXPECT_GE(At(c, b, "rel_err"), 1.0);
    EXPECT_LE(At(c, b, "colors"), b);
  }
}

TEST(CheckScenariosTest, SameSeedReproducesCountersDifferentSeedDoesNot) {
  const Counters a = CountersOf(RunCheck("check/maxflow-seg-grid", 77));
  const Counters b = CountersOf(RunCheck("check/maxflow-seg-grid", 77));
  EXPECT_TRUE(SameBits(a, b));
  const Counters c = CountersOf(RunCheck("check/maxflow-seg-grid", 78));
  EXPECT_FALSE(SameBits(a, c));  // the seed actually drives the instance
}

TEST(CheckScenariosTest, AllPassUnderMultipleSeeds) {
  // Invariant checks per scenario at seed 1 (the BENCH_check.json
  // baseline pins the same numbers).
  const std::map<std::string, double> checks_at_seed1 = {
      {"check/centrality-ba", 138},
      {"check/centrality-karate", 91},
      {"check/centrality-powerlaw", 135},
      {"check/lp-block", 16},
      {"check/lp-qap", 16},
      {"check/lp-wide", 16},
      {"check/maxflow-grid", 137},
      {"check/maxflow-layered", 123},
      {"check/maxflow-seg-grid", 172}};
  for (const uint64_t seed : {1ull, 42ull, 987654321ull}) {
    for (const Scenario* s : CheckScenarios()) {
      const ScenarioResult r = RunCheck(s->name(), seed);
      EXPECT_EQ(r.name, s->name());
      EXPECT_EQ(r.group, "check");
      const Counters c = CountersOf(r);
      EXPECT_EQ(c.at("violations"), 0.0) << s->name() << " seed " << seed;
      EXPECT_TRUE(r.failures.empty())
          << s->name() << " seed " << seed << ": " << r.failures.front();
      EXPECT_GT(c.at("checks"), 0.0) << s->name();
      if (seed == 1) {
        EXPECT_EQ(c.at("checks"), checks_at_seed1.at(s->name()));
      }
    }
  }
}

TEST(CheckScenariosTest, ReportSerializesCountersReproducibly) {
  BenchReport report;
  report.suite = "custom";
  report.measure = kSingleShot;
  report.results.push_back(RunCheck("check/lp-qap", 1));
  const std::string text = ReportGroupJson(report, "check", false);
  EXPECT_NE(text.find("\"group\":\"check\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"check/lp-qap\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(text.find("\"timing\":{"), std::string::npos);
  EXPECT_NE(text.find("\"b8_rel_err\":"), std::string::npos);
  // Flow-only and centrality-only metrics are absent for LP runs.
  EXPECT_EQ(text.find("_rho\""), std::string::npos);

  // Serialization of the counters is itself reproducible: strip the
  // timing objects and compare against a second run.
  BenchReport again = report;
  again.results = {RunCheck("check/lp-qap", 1)};
  const auto strip_timing = [](std::string s) {
    for (size_t at = s.find("\"timing\":{"); at != std::string::npos;
         at = s.find("\"timing\":{", at + 1)) {
      s.erase(at, s.find('}', at) - at + 1);
    }
    const size_t rss = s.find("\"peak_rss_mib\":");
    if (rss != std::string::npos) s.erase(rss, s.find('}', rss) - rss);
    return s;
  };
  EXPECT_EQ(strip_timing(text),
            strip_timing(ReportGroupJson(again, "check", false)));
}

TEST(PipelineTest, SortsAndDeduplicatesBudgets) {
  Rng rng(9);
  const FlowInstance inst = GridFlowNetwork(8, 5, 6, 15, rng);
  const auto runs =
      eval::RunMaxFlowPipeline(inst, eval::EvalOptions{}, {20, 5, 20, 10});
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].color_budget, 5);
  EXPECT_EQ(runs[1].color_budget, 10);
  EXPECT_EQ(runs[2].color_budget, 20);
}

TEST(SuitesTest, DatasetSuitesMatchTheBenchIndex) {
  // The bench experiment index (names + paper names) must stay stable;
  // the paper/ scenarios of qsc_bench draw their instances from these.
  const auto general = eval::GeneralGraphSuite();
  ASSERT_EQ(general.size(), 3u);
  EXPECT_EQ(general[0].name, "karate");
  EXPECT_TRUE(general[0].real);
  EXPECT_EQ(general[0].graph.num_nodes(), 34);

  const auto lps = eval::LpSuite();
  ASSERT_EQ(lps.size(), 4u);
  EXPECT_EQ(lps[0].paper_name, "qap15");
  EXPECT_GT(lps[0].lp.num_cols, lps[0].lp.num_rows);  // cols outnumber rows
}

}  // namespace
}  // namespace bench
}  // namespace qsc
