// qsc_bench: the machine-readable performance harness (docs/BENCHMARKING.md).
//
// Run mode executes registered perf scenarios (steady-clock timing with
// warmup/repeat and median/MAD stats, peak-RSS sampling) and either prints
// human tables (with each scenario's detail table and counters, e.g. a
// paper/ figure) or, with --json, writes one schema-versioned artifact per
// scenario group, BENCH_<group>.json.
//
//   qsc_bench --list
//   qsc_bench --suite smoke --json          # the CI benchmark job
//   qsc_bench --scenario coloring/rothko-ba-100k-c256 --repeats 9
//   qsc_bench --scenario paper/fig3-lp-example
//   qsc_bench --scenario check/lp-qap --warmup 0 --repeats 1
//
// A run exits 1 after writing its report when a scenario reports a
// failure (a check/ invariant violation).
//
// Compare mode gates a fresh run against a committed baseline: counters
// must match exactly, medians within a noise tolerance.
//
//   qsc_bench --compare bench/baselines/BENCH_coloring.json
//             BENCH_coloring.json --tolerance 2.0   (one command line)

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "qsc/bench/compare.h"
#include "qsc/bench/report.h"
#include "qsc/bench/scenario.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/table.h"

namespace qsc {
namespace bench {
namespace {

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: qsc_bench [options]\n"
      "run mode (default):\n"
      "  --list                 list registered scenarios and exit\n"
      "  --suite=smoke|full     scenario selection (default smoke)\n"
      "  --scenario=NAME        run NAME (repeatable; overrides --suite)\n"
      "  --seed=N               uint64 instance seed (default 1)\n"
      "  --threads=N            worker threads, 1..1024 (counters are\n"
      "                         identical for any N; only timings change;\n"
      "                         default 1)\n"
      "  --warmup=N             un-timed runs per scenario (default 1)\n"
      "  --repeats=N            timed runs per scenario (default 5)\n"
      "  --json                 write BENCH_<group>.json artifacts\n"
      "  --out-dir=DIR          artifact directory (default .)\n"
      "  --compact              single-line JSON artifacts\n"
      "compare mode:\n"
      "  --compare BASE CURRENT gate CURRENT against committed BASE\n"
      "  --compare-counters A B gate counter identity only (no timings;\n"
      "                         scenario sets must match exactly)\n"
      "  --tolerance=X          max median slowdown, finite >= 1\n"
      "                         (default 2.0)\n"
      "  --min-median=S         timing-gate floor in seconds, finite >= 0\n"
      "                         (default 0.01)\n"
      "flags accept both --flag=value and --flag value forms\n");
}

// Matches `--name=value` or `--name value`; advances *i for the latter.
bool MatchFlag(int argc, char** argv, int* i, const char* name,
               std::string* value) {
  const char* arg = argv[*i];
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) return false;
  if (arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  if (arg[len] == '\0') {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "qsc_bench: %s needs a value\n", name);
      std::exit(2);
    }
    *value = argv[++*i];
    return true;
  }
  return false;
}

// A typo'd --threads must not ask the OS for millions of threads.
constexpr int kMaxThreads = 1024;

// Parses an integer in [lo, hi]; exits 2 on anything else (out-of-range
// values are rejected, never truncated to int).
int ParseInt(const std::string& value, const char* flag, int lo, int hi) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE || parsed < lo ||
      parsed > hi) {
    std::fprintf(stderr, "qsc_bench: bad %s value '%s' (want %d..%d)\n",
                 flag, value.c_str(), lo, hi);
    std::exit(2);
  }
  return static_cast<int>(parsed);
}

// Parses a finite double >= lo; exits 2 on anything else. NaN or inf
// would silently switch the timing gate off.
double ParseDouble(const std::string& value, const char* flag, double lo) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0' || !std::isfinite(parsed) ||
      parsed < lo) {
    std::fprintf(stderr, "qsc_bench: bad %s value '%s' (want finite >= %g)\n",
                 flag, value.c_str(), lo);
    std::exit(2);
  }
  return parsed;
}

int ListScenarios() {
  for (const Scenario* s : ScenarioRegistry::Global().List()) {
    std::printf("%-36s %-6s %s\n", s->name().c_str(),
                s->info().smoke ? "smoke" : "full",
                s->info().description.c_str());
  }
  return 0;
}

int RunCompare(const std::string& baseline_path,
               const std::string& current_path,
               const CompareOptions& options) {
  std::string baseline_text, current_text;
  Status status = ReadFile(baseline_path, &baseline_text);
  if (status.ok()) status = ReadFile(current_path, &current_text);
  JsonValue baseline, current;
  if (status.ok()) status = ParseJson(baseline_text, &baseline);
  if (status.ok()) status = ParseJson(current_text, &current);
  if (!status.ok()) {
    std::fprintf(stderr, "qsc_bench: %s\n", status.message().c_str());
    return 2;
  }

  const CompareReport report = CompareBenchReports(baseline, current, options);
  for (const std::string& note : report.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  for (const CompareViolation& v : report.violations) {
    std::printf("FAIL %s%s%s\n", v.scenario.c_str(),
                v.scenario.empty() ? "" : ": ", v.detail.c_str());
  }
  std::printf("%s: compared %d scenario(s) against %s: %zu violation(s)\n",
              report.ok() ? "OK" : "FAILED", report.compared,
              baseline_path.c_str(), report.violations.size());
  return report.ok() ? 0 : 1;
}

// Prints every scenario failure (a check/ invariant violation) and
// returns the run's exit code: 1 when any scenario failed, else 0.
int ReportFailures(const BenchReport& report) {
  std::fflush(stdout);  // the report first, then the failures after it
  int failed = 0;
  for (const ScenarioResult& r : report.results) {
    for (const std::string& failure : r.failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", r.name.c_str(), failure.c_str());
    }
    failed += r.failures.empty() ? 0 : 1;
  }
  if (failed > 0) {
    std::fprintf(stderr, "qsc_bench: %d scenario(s) failed\n", failed);
  }
  return failed > 0 ? 1 : 0;
}

int Main(int argc, char** argv) {
  RegisterBuiltinScenarios();

  BenchContext context;
  std::string suite = "smoke";
  std::vector<std::string> names;
  std::string out_dir = ".";
  bool list = false, json = false, pretty = true;
  bool compare = false;
  std::string baseline_path, current_path;
  CompareOptions compare_options;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strcmp(arg, "--compact") == 0) {
      pretty = false;
    } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    } else if (std::strcmp(arg, "--compare") == 0 ||
               std::strcmp(arg, "--compare-counters") == 0) {
      if (i + 2 >= argc) {
        std::fprintf(stderr, "qsc_bench: %s needs BASELINE and CURRENT\n",
                     arg);
        return 2;
      }
      compare = true;
      compare_options.counters_only =
          std::strcmp(arg, "--compare-counters") == 0;
      baseline_path = argv[++i];
      current_path = argv[++i];
    } else if (MatchFlag(argc, argv, &i, "--suite", &value)) {
      if (value != "smoke" && value != "full") {
        std::fprintf(stderr, "qsc_bench: unknown suite '%s'\n", value.c_str());
        return 2;
      }
      suite = value;
    } else if (MatchFlag(argc, argv, &i, "--scenario", &value)) {
      names.push_back(value);
    } else if (MatchFlag(argc, argv, &i, "--seed", &value)) {
      char* end = nullptr;
      context.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') {
        std::fprintf(stderr, "qsc_bench: bad seed '%s'\n", value.c_str());
        return 2;
      }
    } else if (MatchFlag(argc, argv, &i, "--threads", &value)) {
      context.threads = ParseInt(value, "--threads", 1, kMaxThreads);
    } else if (MatchFlag(argc, argv, &i, "--warmup", &value)) {
      context.measure.warmup = ParseInt(value, "--warmup", 0, INT_MAX);
    } else if (MatchFlag(argc, argv, &i, "--repeats", &value)) {
      context.measure.repeats = ParseInt(value, "--repeats", 1, INT_MAX);
    } else if (MatchFlag(argc, argv, &i, "--out-dir", &value)) {
      out_dir = value;
    } else if (MatchFlag(argc, argv, &i, "--tolerance", &value)) {
      compare_options.max_slowdown = ParseDouble(value, "--tolerance", 1.0);
    } else if (MatchFlag(argc, argv, &i, "--min-median", &value)) {
      compare_options.min_median_seconds =
          ParseDouble(value, "--min-median", 0.0);
    } else {
      std::fprintf(stderr, "qsc_bench: unknown argument '%s'\n", arg);
      PrintUsage(stderr);
      return 2;
    }
  }

  if (list) return ListScenarios();
  if (compare) {
    return RunCompare(baseline_path, current_path, compare_options);
  }

  // Size the process pool before any scenario runs; the parallel
  // scenarios pick it up via DefaultPool().
  SetDefaultPoolThreads(context.threads);

  const ScenarioRegistry& registry = ScenarioRegistry::Global();
  std::vector<const Scenario*> selected;
  if (!names.empty()) {
    suite = "custom";
    for (const std::string& name : names) {
      const Scenario* s = registry.Find(name);
      if (s == nullptr) {
        std::fprintf(stderr, "qsc_bench: unknown scenario '%s' (try --list)\n",
                     name.c_str());
        return 2;
      }
      selected.push_back(s);
    }
  } else {
    for (const Scenario* s : registry.List()) {
      if (suite == "full" || s->info().smoke) selected.push_back(s);
    }
  }

  BenchReport report;
  report.suite = suite;
  report.seed = context.seed;
  report.threads = context.threads;
  report.measure = context.measure;
  for (size_t i = 0; i < selected.size(); ++i) {
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, selected.size(),
                 selected[i]->name().c_str());
    report.results.push_back(selected[i]->Run(context));
    std::fprintf(stderr, "         median %s over %lld repeat(s)\n",
                 FormatSeconds(report.results.back().timing.seconds.median)
                     .c_str(),
                 static_cast<long long>(
                     report.results.back().timing.seconds.count));
  }

  if (json) {
    for (const std::string& group : ReportGroups(report)) {
      const std::string path = out_dir + "/" + BenchFileName(group);
      const Status status =
          WriteFile(path, ReportGroupJson(report, group, pretty) + "\n");
      if (!status.ok()) {
        std::fprintf(stderr, "qsc_bench: %s\n", status.message().c_str());
        return 2;
      }
      std::printf("wrote %s\n", path.c_str());
    }
    return ReportFailures(report);
  }

  for (const std::string& group : ReportGroups(report)) {
    std::printf("=== %s (suite: %s, seed: %llu) ===\n", group.c_str(),
                suite.c_str(), static_cast<unsigned long long>(report.seed));
    TablePrinter table(
        {"scenario", "median", "mad", "min", "repeats", "peak rss"});
    for (const ScenarioResult& r : report.results) {
      if (r.group != group) continue;
      table.AddRow({r.name, FormatSeconds(r.timing.seconds.median),
                    FormatSeconds(r.timing.seconds.mad),
                    FormatSeconds(r.timing.seconds.min),
                    std::to_string(r.timing.seconds.count),
                    FormatDouble(r.timing.peak_rss_mib, 1) + " MiB"});
    }
    table.Print(stdout);
    std::printf("\n");
    for (const ScenarioResult& r : report.results) {
      if (r.group != group || r.table_rows.empty()) continue;
      std::printf("--- %s ---\n", r.name.c_str());
      TablePrinter detail(r.table_header);
      for (const auto& row : r.table_rows) detail.AddRow(row);
      detail.Print(stdout);
      for (const auto& [name, value] : r.counters) {
        std::printf("%s = %.6g\n", name.c_str(), value);
      }
      std::printf("\n");
    }
  }
  return ReportFailures(report);
}

}  // namespace
}  // namespace bench
}  // namespace qsc

int main(int argc, char** argv) { return qsc::bench::Main(argc, argv); }
