// The scenario registry of qsc_bench, the one experiment front-end. A
// scenario is one named, seeded measurement: instance construction is
// excluded from timing, the measured closure is a complete unit of work
// (e.g. one full Rothko refinement, one eval pipeline sweep), and every
// metric value a scenario reports is deterministic given (scenario, seed)
// — wall-clock and RSS are the only machine-dependent outputs. That split
// is what lets CI diff committed baseline JSON against a fresh run:
// counters must match exactly, timings within a noise tolerance
// (docs/BENCHMARKING.md).

#ifndef QSC_BENCH_SCENARIO_H_
#define QSC_BENCH_SCENARIO_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/bench/runner.h"

namespace qsc {
namespace bench {

// Cross-cutting run configuration, set from the qsc_bench CLI.
struct BenchContext {
  uint64_t seed = 1;  // instance seed; counters are a function of this
  // Worker threads (--threads); the CLI sizes the default pool to match.
  // Counters stay a function of the seed alone — the parallel scenarios
  // are bit-identical across thread counts (the CI counter-identity gate).
  int threads = 1;
  MeasureOptions measure;
};

struct ScenarioResult {
  std::string name;
  std::string group;  // report file: BENCH_<group>.json

  // Instance dimensions (node/arc counts, budgets, ...). Deterministic
  // given the seed.
  std::vector<std::pair<std::string, double>> params;

  // Workload metrics (colors reached, q-error, relative error, ...).
  // Deterministic given the seed; compared exactly against baselines.
  std::vector<std::pair<std::string, double>> counters;

  // Machine-dependent measurements; compared within a noise tolerance.
  Measurement timing;

  // Machine-dependent scalar metrics beyond wall time (tail latencies,
  // qps, cache byte gauges of the serving scenarios). Serialized under
  // "gauges" for trend tracking but never compared against baselines —
  // the comparator only inspects params/counters/timing.
  std::vector<std::pair<std::string, double>> gauges;

  // Optional human-readable detail (the figure or table of a paper/
  // scenario). Printed by qsc_bench's human mode, never serialized.
  std::vector<std::string> table_header;
  std::vector<std::vector<std::string>> table_rows;

  // Correctness failures (the invariant violations of a check/ scenario),
  // one line each. Any entry fails the run: qsc_bench prints them and
  // exits 1 after writing its report.
  std::vector<std::string> failures;
};

// One registered perf scenario.
class Scenario {
 public:
  struct Info {
    std::string name;   // "<group>/<scenario>", e.g. "coloring/rothko-ba-10k"
    std::string group;  // "coloring", "pipelines", "paper", ...
    std::string description;
    // Part of the fast CI suite (--suite=smoke). Full-only scenarios run
    // with --suite=full or by name.
    bool smoke = false;
  };

  using RunFn = std::function<ScenarioResult(const BenchContext&)>;

  Scenario(Info info, RunFn run)
      : info_(std::move(info)), run_(std::move(run)) {}

  const Info& info() const { return info_; }
  const std::string& name() const { return info_.name; }

  // Runs the scenario; fills name/group from info().
  ScenarioResult Run(const BenchContext& context) const;

 private:
  Info info_;
  RunFn run_;
};

// Process-wide name -> scenario map. Registration is append-only; names
// must be unique.
class ScenarioRegistry {
 public:
  static ScenarioRegistry& Global();

  void Register(Scenario scenario);

  // nullptr when absent.
  const Scenario* Find(const std::string& name) const;

  // All scenarios, sorted by name.
  std::vector<const Scenario*> List() const;

 private:
  ScenarioRegistry() = default;
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

// Registers the builtin perf scenarios (scenarios.cc): Rothko refinement
// on Barabási–Albert / Erdős–Rényi / segmentation-grid graphs at 10k-200k
// nodes, the solver kernels and session scenarios, and every group below.
// Idempotent; call before Find()/List().
void RegisterBuiltinScenarios();

// The "check" group (scenarios_check.cc): one scenario per small seeded
// instance, each running its area's pipeline and the DifferentialRunner
// invariants (eval/differential.h); a violation fails the run. Also
// registers the three pipelines/ end-to-end sweeps over the same
// instances. Called by RegisterBuiltinScenarios().
void RegisterCheckScenarios();

// The "serving" group (scenarios_serving.cc): seeded workload traces
// replayed against a Compressor session by the qsc/workload load runner.
// Called by RegisterBuiltinScenarios().
void RegisterServingScenarios();

// The "flow" group (scenarios_flow.cc): exact max-flow / min-cut solver
// kernels over the CSR ResidualNetwork on a shared vision-style grid
// instance. Called by RegisterBuiltinScenarios().
void RegisterFlowScenarios();

// The "backends" group (scenarios_backends.cc): every registered coloring
// backend swept over color budgets on one shared instance, emitting
// per-backend Pareto counters and a (backend, budget, colors, max q)
// detail table. Called by RegisterBuiltinScenarios().
void RegisterBackendScenarios();

// The "dynamic" group (scenarios_dynamic.cc): seeded edit-stream churn
// against a Compressor session — repair-path serving vs from-scratch
// recompute, with the incremental-vs-scratch q-error drift gated at
// exactly zero. Called by RegisterBuiltinScenarios().
void RegisterDynamicScenarios();

// The "paper" group (scenarios_paper.cc): one single-shot scenario per
// figure or table of the paper's Section 6 (docs/REPRODUCING.md), each
// filling table_header/table_rows with that figure's table. Called by
// RegisterBuiltinScenarios().
void RegisterPaperScenarios();

}  // namespace bench
}  // namespace qsc

#endif  // QSC_BENCH_SCENARIO_H_
