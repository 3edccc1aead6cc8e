// The paper/ scenario group: one registered scenario per figure or table
// of the paper's Section 6, and the exactly reproduced results (Figure 3's
// worked LP example, Figure 1's karate colorings) pinned to the paper's
// numbers.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "qsc/bench/scenario.h"

namespace qsc {
namespace bench {
namespace {

std::map<std::string, double> RunCounters(const std::string& name) {
  RegisterBuiltinScenarios();
  const Scenario* scenario = ScenarioRegistry::Global().Find(name);
  EXPECT_NE(scenario, nullptr) << name;
  if (scenario == nullptr) return {};
  const ScenarioResult r = scenario->Run(BenchContext());
  EXPECT_EQ(r.group, "paper");
  EXPECT_FALSE(r.table_header.empty());
  for (const auto& row : r.table_rows) {
    EXPECT_EQ(row.size(), r.table_header.size()) << name;
  }
  EXPECT_EQ(r.timing.seconds.count, 1) << "paper scenarios are single-shot";
  std::map<std::string, double> counters;
  for (const auto& [key, value] : r.counters) counters[key] = value;
  return counters;
}

TEST(PaperScenariosTest, OneScenarioPerFigureOrTable) {
  RegisterBuiltinScenarios();
  std::vector<std::string> paper;
  for (const Scenario* s : ScenarioRegistry::Global().List()) {
    EXPECT_NE(s->name().rfind("pipelines/fig7-", 0), 0u) << s->name();
    if (s->info().group == "paper") {
      EXPECT_EQ(s->name().rfind("paper/", 0), 0u) << s->name();
      paper.push_back(s->name());
    }
  }
  EXPECT_EQ(paper.size(), 15u);
}

TEST(PaperScenariosTest, Figure3WorkedExampleMatchesThePaper) {
  const auto c = RunCounters("paper/fig3-lp-example");
  EXPECT_NEAR(c.at("exact_objective"), 128.157, 5e-4);
  EXPECT_NEAR(c.at("reduced_objective"), 130.199, 5e-4);
  EXPECT_DOUBLE_EQ(c.at("max_q"), 1.0);
  EXPECT_NEAR(c.at("A00"), 34.0 / std::sqrt(6.0), 1e-9);
  EXPECT_NEAR(c.at("A11"), 43.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(c.at("b1"), 101.0 / std::sqrt(2.0), 1e-9);
  EXPECT_DOUBLE_EQ(c.at("c1"), 50.0);
}

TEST(PaperScenariosTest, Figure1KarateColorings) {
  const auto c = RunCounters("paper/fig1-karate");
  EXPECT_EQ(c.at("stable_colors"), 27.0);
  EXPECT_EQ(c.at("c6_max_q"), 3.0);
  EXPECT_LE(c.at("q3_colors"), 6.0);
}

}  // namespace
}  // namespace bench
}  // namespace qsc
