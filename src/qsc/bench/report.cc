#include "qsc/bench/report.h"

#include <algorithm>
#include <cstdio>

#include "qsc/eval/json.h"

namespace qsc {
namespace bench {

std::vector<std::string> ReportGroups(const BenchReport& report) {
  std::vector<std::string> groups;
  for (const ScenarioResult& r : report.results) {
    if (std::find(groups.begin(), groups.end(), r.group) == groups.end()) {
      groups.push_back(r.group);
    }
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

namespace {

void WriteScenarioJson(const ScenarioResult& r, eval::JsonWriter& w) {
  w.BeginObject();
  w.KV("name", r.name);
  w.Key("params");
  w.BeginObject();
  for (const auto& [key, value] : r.params) w.KV(key, value);
  w.EndObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [key, value] : r.counters) w.KV(key, value);
  w.EndObject();
  if (!r.gauges.empty()) {
    w.Key("gauges");
    w.BeginObject();
    for (const auto& [key, value] : r.gauges) w.KV(key, value);
    w.EndObject();
  }
  w.Key("timing");
  w.BeginObject();
  w.KV("repeats", r.timing.seconds.count);
  w.KV("median_s", r.timing.seconds.median);
  w.KV("mad_s", r.timing.seconds.mad);
  w.KV("min_s", r.timing.seconds.min);
  w.KV("max_s", r.timing.seconds.max);
  w.KV("mean_s", r.timing.seconds.mean);
  w.EndObject();
  w.KV("peak_rss_mib", r.timing.peak_rss_mib);
  w.EndObject();
}

}  // namespace

std::string ReportGroupJson(const BenchReport& report,
                            const std::string& group, bool pretty) {
  std::vector<const ScenarioResult*> selected;
  for (const ScenarioResult& r : report.results) {
    if (r.group == group) selected.push_back(&r);
  }
  std::sort(selected.begin(), selected.end(),
            [](const ScenarioResult* a, const ScenarioResult* b) {
              return a->name < b->name;
            });

  eval::JsonWriter w(pretty);
  w.BeginObject();
  w.KV("tool", "qsc_bench");
  w.KV("schema_version", kBenchSchemaVersion);
  w.KV("group", group);
  w.KV("suite", report.suite);
  w.KV("seed", report.seed);
  w.KV("warmup", static_cast<int64_t>(report.measure.warmup));
  w.KV("repeats", static_cast<int64_t>(report.measure.repeats));
  // The scenarios that ignored the requested warmup/repeats and ran once.
  w.Key("single_shot");
  w.BeginArray();
  for (const ScenarioResult* r : selected) {
    const MeasureOptions& ran = r->timing.protocol;
    if (ran.warmup == kSingleShot.warmup &&
        ran.repeats == kSingleShot.repeats &&
        (ran.warmup != report.measure.warmup ||
         ran.repeats != report.measure.repeats)) {
      w.Value(r->name);
    }
  }
  w.EndArray();
  w.KV("threads", static_cast<int64_t>(report.threads));
  w.Key("scenarios");
  w.BeginArray();
  for (const ScenarioResult* r : selected) WriteScenarioJson(*r, w);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string BenchFileName(const std::string& group) {
  return "BENCH_" + group + ".json";
}

Status WriteFile(const std::string& path, const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  const size_t written = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != contents.size() || !close_ok) {
    return Status::Internal("short write: " + path);
  }
  return Status::Ok();
}

}  // namespace bench
}  // namespace qsc
