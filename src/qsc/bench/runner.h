// The measurement core of the perf harness: steady-clock timing with
// warmup and repeats, summarized robustly (median/MAD, see stats.h), plus
// peak-RSS sampling. Scenario code supplies a closure that performs one
// complete unit of work; the runner owns the repetition protocol so every
// scenario measures the same way.

#ifndef QSC_BENCH_RUNNER_H_
#define QSC_BENCH_RUNNER_H_

#include <functional>

#include "qsc/bench/stats.h"

namespace qsc {
namespace bench {

struct MeasureOptions {
  // Un-timed runs before measurement starts (cache/branch-predictor/page
  // warmup; the first run also absorbs lazy allocations).
  int warmup = 1;
  // Timed runs; the reported median is over these.
  int repeats = 5;
};

// One timed run, no warmup: for scenarios whose single pass is long
// enough (exact oracles, many colorings) that repeats only slow CI.
inline constexpr MeasureOptions kSingleShot{/*warmup=*/0, /*repeats=*/1};

struct Measurement {
  SampleStats seconds;  // per-repeat wall-clock seconds (steady clock)
  // The protocol the samples were taken under: the CLI's --warmup and
  // --repeats, or a scenario's own (kSingleShot).
  MeasureOptions protocol;
  // Growth of the process resident high-water mark across the whole
  // scenario (setup included), in MiB; filled in by Scenario::Run. 0 when
  // the scenario stayed under an earlier scenario's peak, or when the
  // platform reports no peak.
  double peak_rss_mib = 0.0;
};

// Runs `fn` warmup+repeats times and summarizes the timed repeats.
Measurement MeasureSeconds(const MeasureOptions& options,
                           const std::function<void()>& fn);

// Current process peak RSS in MiB (VmHWM on Linux, getrusage's ru_maxrss
// elsewhere); 0 when unavailable. A high-water mark: the OS never lowers
// it, so deltas across a scenario only show growth past the previous
// maximum.
double PeakRssMib();

// Current (not peak) resident-set size in MiB from /proc/self/statm;
// 0 when the platform has no procfs. Unlike PeakRssMib this moves both
// ways, so before/after deltas attribute footprint to a specific phase
// (the serving/mmap-* RSS gauges rely on this).
double CurrentRssMib();

}  // namespace bench
}  // namespace qsc

#endif  // QSC_BENCH_RUNNER_H_
