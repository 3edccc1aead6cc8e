// qsc_servebench: the serving benchmark's binary (driven by run.py).
//
//   qsc_servebench gen   --workload W --seed S [--tiny] --dir D
//                        [--batches N]
//   qsc_servebench serve --workload W --seed S [--tiny] --dir D
//                        [--seconds T | --ops N] [--threads K]
//                        [--trace --trace-out F]
//                        [--corrupt flow|lp|centrality|coloring|resume|
//                                   edit|cache]
//
// `gen` writes the workload's inputs to D; `serve` runs the workload on
// them and prints one JSON report line.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "engine.h"
#include "plan.h"

namespace {

int Usage(const char* problem) {
  std::fprintf(stderr,
               "qsc_servebench: %s\n"
               "usage: qsc_servebench gen|serve --workload "
               "warm-serve|cold-compress|edit-churn --seed S --dir D "
               "[--tiny] [--batches N] [--seconds T] [--ops N] "
               "[--threads K] [--trace] "
               "[--trace-out F] [--corrupt KIND]\n",
               problem);
  return 2;
}

bool ParseInt(const char* text, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || v < 0) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using servebench::ServeConfig;
  if (argc < 2) return Usage("missing command");
  const std::string command = argv[1];
  if (command != "gen" && command != "serve") return Usage("unknown command");

  ServeConfig config;
  std::string workload;
  bool tiny = false;
  int64_t batches = 0;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    int64_t n = 0;
    if (flag == "--tiny") {
      tiny = true;
    } else if (flag == "--trace") {
      config.trace = true;
    } else if (value == nullptr) {
      return Usage(("missing value for " + flag).c_str());
    } else {
      ++i;
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--dir") {
        config.dir = value;
      } else if (flag == "--trace-out") {
        config.trace_out = value;
      } else if (flag == "--corrupt") {
        const std::optional<servebench::Corruption> corrupt =
            servebench::ParseCorruption(value);
        if (!corrupt) return Usage("unknown --corrupt kind");
        config.corrupt = *corrupt;
      } else if (flag == "--seed") {
        char* end = nullptr;
        errno = 0;
        config.seed = std::strtoull(value, &end, 10);
        if (end == value || *end != '\0' || errno != 0 || value[0] == '-') {
          return Usage("--seed must be an unsigned 64-bit integer");
        }
        have_seed = true;
      } else if (flag == "--seconds") {
        char* end = nullptr;
        config.seconds = std::strtod(value, &end);
        if (end == value || *end != '\0' || !(config.seconds > 0)) {
          return Usage("--seconds must be positive");
        }
      } else if (!ParseInt(value, &n)) {
        return Usage(("bad value for " + flag).c_str());
      } else if (flag == "--ops") {
        config.ops = n;
      } else if (flag == "--batches") {
        batches = n;
      } else if (flag == "--threads" && n >= 1 && n <= 64) {
        config.threads = static_cast<int>(n);
      } else {
        return Usage(("bad flag " + flag).c_str());
      }
    }
  }
  const std::optional<servebench::Workload> parsed =
      servebench::ParseWorkload(workload);
  if (!parsed) return Usage("unknown --workload");
  if (!have_seed || config.dir.empty()) {
    return Usage("--seed and --dir are required");
  }
  config.workload = *parsed;
  config.sizes = servebench::SizesFor(tiny);

  if (command == "gen") {
    const qsc::Status status =
        servebench::WriteInputs(config.workload, config.seed, config.sizes,
                                std::max<int64_t>(batches, 2), config.dir);
    if (!status.ok()) {
      std::fprintf(stderr, "gen failed: %s\n", status.ToString().c_str());
      return 2;
    }
    return 0;
  }
  return servebench::Serve(config);
}
