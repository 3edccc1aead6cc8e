// Bench-JSON schema stability: the report writer emits schema-versioned
// documents whose "params"/"counters" sections are functions of
// (scenario, seed) alone — rerunning a scenario at a fixed seed must
// reproduce identical metric values (timings excluded), and the emitted
// JSON must parse back via the harness's own parser with the expected
// structure.

#include "qsc/bench/report.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "qsc/bench/compare.h"
#include "qsc/bench/scenario.h"

namespace qsc {
namespace bench {
namespace {

// A cheap deterministic scenario (no graph work) for structural tests.
Scenario TinyScenario() {
  Scenario::Info info;
  info.name = "test/tiny";
  info.group = "testgroup";
  info.description = "deterministic test scenario";
  info.smoke = true;
  return Scenario(std::move(info), [](const BenchContext& ctx) {
    ScenarioResult r;
    r.params = {{"size", 7.0}};
    r.counters = {{"value", static_cast<double>(ctx.seed) * 1.5}};
    r.timing = MeasureSeconds(ctx.measure, [] {});
    return r;
  });
}

BenchContext FastContext() {
  BenchContext ctx;
  ctx.measure.warmup = 0;
  ctx.measure.repeats = 1;
  return ctx;
}

TEST(BenchReportTest, GroupJsonParsesBackWithSchemaFields) {
  BenchReport report;
  report.suite = "custom";
  report.seed = 11;
  report.measure = FastContext().measure;
  BenchContext ctx = FastContext();
  ctx.seed = 11;
  report.results.push_back(TinyScenario().Run(ctx));

  const std::string json = ReportGroupJson(report, "testgroup", true);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc).ok()) << json;
  EXPECT_EQ(doc.Get("tool")->StringOr(""), "qsc_bench");
  EXPECT_EQ(doc.Get("schema_version")->NumberOr(-1), kBenchSchemaVersion);
  EXPECT_EQ(doc.Get("group")->StringOr(""), "testgroup");
  EXPECT_EQ(doc.Get("seed")->NumberOr(-1), 11);
  ASSERT_NE(doc.Get("scenarios"), nullptr);
  ASSERT_EQ(doc.Get("scenarios")->array.size(), 1u);
  const JsonValue& s = doc.Get("scenarios")->array[0];
  EXPECT_EQ(s.Get("name")->StringOr(""), "test/tiny");
  EXPECT_EQ(s.Get("params")->Get("size")->NumberOr(-1), 7.0);
  EXPECT_EQ(s.Get("counters")->Get("value")->NumberOr(-1), 16.5);
  ASSERT_NE(s.Get("timing"), nullptr);
  EXPECT_EQ(s.Get("timing")->Get("repeats")->NumberOr(-1), 1);
}

TEST(BenchReportTest, ScenariosAreSortedByNameRegardlessOfRunOrder) {
  BenchReport report;
  report.suite = "custom";
  BenchContext ctx = FastContext();
  ScenarioResult b = TinyScenario().Run(ctx);
  b.name = "test/b";
  ScenarioResult a = TinyScenario().Run(ctx);
  a.name = "test/a";
  report.results.push_back(std::move(b));
  report.results.push_back(std::move(a));

  JsonValue doc;
  ASSERT_TRUE(ParseJson(ReportGroupJson(report, "testgroup", false), &doc)
                  .ok());
  const auto& scenarios = doc.Get("scenarios")->array;
  ASSERT_EQ(scenarios.size(), 2u);
  EXPECT_EQ(scenarios[0].Get("name")->StringOr(""), "test/a");
  EXPECT_EQ(scenarios[1].Get("name")->StringOr(""), "test/b");
}

TEST(BenchReportTest, HeaderNamesTheSingleShotScenarios) {
  // Requested: 1 warmup, 7 repeats. One scenario follows it; one runs once
  // (kSingleShot), as the paper/ scenarios and the cold pipelines do.
  BenchReport report;
  report.suite = "custom";
  report.measure = MeasureOptions{1, 7};
  BenchContext ctx;
  ctx.measure = report.measure;
  ScenarioResult repeated = TinyScenario().Run(ctx);
  repeated.name = "test/repeated";
  ScenarioResult once = TinyScenario().Run(ctx);
  once.name = "test/once";
  once.timing = MeasureSeconds(kSingleShot, [] {});
  report.results = {repeated, once};

  JsonValue doc;
  ASSERT_TRUE(ParseJson(ReportGroupJson(report, "testgroup", false), &doc)
                  .ok());
  EXPECT_EQ(doc.Get("repeats")->NumberOr(-1), 7);
  const JsonValue* single = doc.Get("single_shot");
  ASSERT_NE(single, nullptr);
  ASSERT_EQ(single->array.size(), 1u);
  EXPECT_EQ(single->array[0].StringOr(""), "test/once");
  const auto& scenarios = doc.Get("scenarios")->array;
  EXPECT_EQ(scenarios[0].Get("timing")->Get("repeats")->NumberOr(-1), 1);
  EXPECT_EQ(scenarios[1].Get("timing")->Get("repeats")->NumberOr(-1), 7);

  // A run that itself asked for one shot lists nothing: the header's own
  // warmup and repeats are then true of every scenario.
  report.measure = kSingleShot;
  ASSERT_TRUE(ParseJson(ReportGroupJson(report, "testgroup", false), &doc)
                  .ok());
  EXPECT_TRUE(doc.Get("single_shot")->array.empty());
}

TEST(BenchReportTest, ReportGroupsAreDistinctAndSorted) {
  BenchReport report;
  ScenarioResult r1, r2, r3;
  r1.group = "pipelines";
  r2.group = "coloring";
  r3.group = "pipelines";
  report.results = {r1, r2, r3};
  EXPECT_EQ(ReportGroups(report),
            (std::vector<std::string>{"coloring", "pipelines"}));
  EXPECT_EQ(BenchFileName("coloring"), "BENCH_coloring.json");
}

// The reproducibility contract on a real registered scenario: same seed
// => bitwise-identical params and counters (timings are free to differ).
TEST(BenchReportTest, BuiltinScenarioCountersAreSeedDeterministic) {
  RegisterBuiltinScenarios();
  const Scenario* scenario =
      ScenarioRegistry::Global().Find("coloring/rothko-ba-10k-c64");
  ASSERT_NE(scenario, nullptr);
  BenchContext ctx = FastContext();
  ctx.seed = 5;
  const ScenarioResult first = scenario->Run(ctx);
  const ScenarioResult second = scenario->Run(ctx);
  EXPECT_EQ(first.params, second.params);
  EXPECT_EQ(first.counters, second.counters);
  ASSERT_FALSE(first.counters.empty());
}

TEST(BenchReportTest, WriteFileRejectsBadPath) {
  EXPECT_FALSE(WriteFile("/nonexistent-dir-qsc/x.json", "{}").ok());
}

}  // namespace
}  // namespace bench
}  // namespace qsc
