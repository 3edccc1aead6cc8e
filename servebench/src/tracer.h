// In-memory span recorder for the traced run of the serving benchmark.
//
// A span is one timed call into a layer: its name (the layer, e.g.
// "reduce.reduced_graph"), start and end on the steady clock, the span
// that was open when it started (its parent), and the id of the benchmark
// op it belongs to (-1 for set-up). Spans stay in memory until the run
// ends, so recording one costs two clock reads and a vector push; they
// are then written out as Chrome trace-event JSON (chrome://tracing,
// Perfetto) and folded into per-layer self times.
//
// The client loop is single-threaded and every span is opened and closed
// on it, so the recorder takes no locks.

#ifndef SERVEBENCH_TRACER_H_
#define SERVEBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t op_id = -1;
    int32_t parent = -1;  // index into spans(), -1 for a root span
    int64_t start_ns = 0;
    int64_t end_ns = 0;

    double Millis() const { return (end_ns - start_ns) * 1e-6; }
  };

  // Opens a span on construction and closes it on destruction. A null
  // tracer makes the scope a no-op, so untraced code paths share the same
  // call sites.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  Tracer();

  // Tags every span opened from now on with `op_id`.
  void set_op(int64_t op_id) { op_id_ = op_id; }

  const std::vector<Span>& spans() const { return spans_; }

  // Per span name: number of spans, their summed duration, and their
  // summed self time (duration minus the part covered by child spans).
  struct NameTotals {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> Totals(bool loop_only) const;

  // Writes every span as a complete ("ph":"X") trace event; false when the
  // file cannot be written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
  int64_t op_id_ = -1;
};

}  // namespace servebench

#endif  // SERVEBENCH_TRACER_H_
