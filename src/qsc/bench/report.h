// Machine-readable benchmark reports. One report file per scenario group
// ("BENCH_coloring.json", "BENCH_pipelines.json"), schema-versioned so the
// baseline comparator can refuse documents it does not understand.
//
// Schema v1 (see docs/BENCHMARKING.md for the field contract):
//
//   {
//     "tool": "qsc_bench",
//     "schema_version": 1,
//     "group": "coloring",
//     "suite": "smoke",
//     "seed": 1,
//     "warmup": 1,
//     "repeats": 5,
//     "single_shot": ["pipelines/compressor-cold-flow", ...],
//     "threads": 1,
//     "scenarios": [
//       {
//         "name": "coloring/rothko-ba-100k-c256",
//         "params":   {"nodes": 100000, ...},   // deterministic
//         "counters": {"num_colors": 256, ...}, // deterministic
//         "timing": {"repeats": 5, "median_s": ..., "mad_s": ...,
//                    "min_s": ..., "max_s": ..., "mean_s": ...},
//         "peak_rss_mib": 123.4
//       }, ...
//     ]
//   }
//
// "warmup" and "repeats" are the requested protocol; "single_shot" names
// the scenarios that ran once with no warmup instead (kSingleShot), whose
// "timing.repeats" is 1. "params" and "counters" are functions of
// (scenario, seed) and compare exactly across runs; "timing" and
// "peak_rss_mib" are machine-dependent.
// Doubles render via eval::JsonNumber, so equal values are textually equal.

#ifndef QSC_BENCH_REPORT_H_
#define QSC_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qsc/bench/scenario.h"
#include "qsc/util/status.h"

namespace qsc {
namespace bench {

constexpr int64_t kBenchSchemaVersion = 1;

// One qsc_bench invocation's worth of results (possibly several groups).
struct BenchReport {
  std::string suite;  // "smoke", "full", or "custom" (explicit --scenario)
  uint64_t seed = 1;
  // Worker threads the run used (--threads). Affects only the timing
  // section: counters are bit-identical across thread counts, which the
  // CI counter-identity gate (--compare-counters) enforces.
  int threads = 1;
  MeasureOptions measure;
  std::vector<ScenarioResult> results;
};

// Distinct groups present in `report`, sorted.
std::vector<std::string> ReportGroups(const BenchReport& report);

// Serializes the scenarios of `group` as one schema-v1 JSON document.
// Scenarios appear sorted by name regardless of execution order.
std::string ReportGroupJson(const BenchReport& report,
                            const std::string& group, bool pretty);

// Canonical artifact name for a group: "BENCH_<group>.json".
std::string BenchFileName(const std::string& group);

// Writes `contents` to `path` (error on I/O failure).
Status WriteFile(const std::string& path, const std::string& contents);

}  // namespace bench
}  // namespace qsc

#endif  // QSC_BENCH_REPORT_H_
