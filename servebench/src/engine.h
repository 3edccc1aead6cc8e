// Drives one workload through qsc::Compressor from one closed-loop client
// and reports its metrics (see README.md for what each one measures).

#ifndef SERVEBENCH_ENGINE_H_
#define SERVEBENCH_ENGINE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "plan.h"

namespace servebench {

// Test hook: what --corrupt falsifies before the checks see it, to show
// that each check catches a wrong answer.
enum class Corruption {
  kNone,
  kFlow,        // every MaxFlow upper bound becomes -1
  kLp,          // every reduced LP objective is raised by 1
  kCentrality,  // every first centrality score becomes -1
  kColoring,    // every served coloring becomes the one-color partition
  kResume,      // as kColoring, for up-budget continuations only
  kEdit,        // every ApplyEdits reports one repair too many
  kCache,       // the first loop op asks for a never-seen q_tolerance
};

std::optional<Corruption> ParseCorruption(const std::string& name);

struct ServeConfig {
  Workload workload = Workload::kWarmServe;
  uint64_t seed = 1;
  Sizes sizes;
  std::string dir;  // holds the inputs WriteInputs made
  // The loop runs until its ops have spent this much time in Compressor
  // calls (traced: in whole traced ops) ...
  double seconds = 10.0;
  // ... or, when positive, for exactly this many ops.
  int64_t ops = 0;
  int threads = 2;
  // Traced run: reproduce each call layer by layer, report per-layer
  // metrics, write the spans to `trace_out`.
  bool trace = false;
  std::string trace_out;
  Corruption corrupt = Corruption::kNone;
};

// Runs the workload, prints one JSON report line to stdout (progress and
// check failures go to stderr) and returns the process exit code: 0 when
// every correctness check passed, 1 otherwise.
int Serve(const ServeConfig& config);

}  // namespace servebench

#endif  // SERVEBENCH_ENGINE_H_
