// Workload definitions of the serving benchmark: the seeded inputs each
// workload serves and the op sequence its single client sends.
//
// Every input is a pure function of (workload, seed, size): the graph is a
// Barabási–Albert graph turned directed with Graph::FromArcs (the same
// for every seed), the query streams and LPs (MakeQapLikeLp) and the edit
// batches (dynamic::GenerateEditBatches) follow the seed.
// The graph and edit batches are written to disk by the `gen` step in a
// separate process, so the serving process maps the graph with
// Compressor::FromFile and its peak RSS is its own.

#ifndef SERVEBENCH_PLAN_H_
#define SERVEBENCH_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/lp/model.h"
#include "qsc/util/status.h"

namespace servebench {

enum class Workload { kWarmServe, kColdCompress, kEditChurn };

std::optional<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload workload);

// Input sizes. `full` is the reference graph of the ROADMAP (directed
// BA, 100k nodes, ~600k arcs); `tiny` keeps every code path but runs in
// well under a second, for the benchmark's own tests.
struct Sizes {
  qsc::NodeId nodes = 0;
  int32_t lp_scale = 0;
  int32_t edits_per_batch = 0;
  // cold-compress coloring-cache byte budget: room for about four
  // 64-color entries on this graph, so the loop evicts.
  int64_t cold_cache_budget_bytes = 0;
};
Sizes SizesFor(bool tiny);

using EditBatches = std::vector<std::vector<qsc::dynamic::EditOp>>;

std::string GraphPath(const std::string& dir);
std::string EditsPath(const std::string& dir);

// Writes the workload's on-disk inputs into `dir`: the graph in qsc-bin
// format, plus `num_batches` edit batches for edit-churn.
qsc::Status WriteInputs(Workload workload, uint64_t seed, const Sizes& sizes,
                        int64_t num_batches, const std::string& dir);
qsc::StatusOr<EditBatches> ReadEdits(const std::string& path);

// The Compressor call an op makes.
enum class Call {
  kMaxFlow,
  kMaxFlowBatch,
  kColoring,
  kSolveLp,
  kCentrality,
  kApplyEdits,
};

struct Op {
  Call call = Call::kMaxFlow;
  // Statistics class: latencies are summarized per class ("maxflow",
  // "batch", "coloring", "resume", "lp", "centrality", "edit").
  std::string cls;
  std::vector<std::pair<qsc::NodeId, qsc::NodeId>> pairs;  // MaxFlow(Batch)
  qsc::QueryOptions options;
  std::shared_ptr<const qsc::LpProblem> lp;                 // SolveLp
  const std::vector<qsc::dynamic::EditOp>* edits = nullptr;  // ApplyEdits
};

struct Plan {
  qsc::CompressorOptions session;
  // Warm-up ops; set-up time runs from FromFile to the end of these.
  std::vector<Op> setup;
  // The loop is a repetition of rounds of this many ops and stops only at
  // a round boundary, so every run serves the same op mix. The answer
  // digest covers set-up plus the first round.
  int64_t round_size = 1;
  // Percentile reported as op_tail_ms. Fixed per workload, so two commits
  // compare the same percentile: one that keeps at least ten samples
  // beyond it in a 20 s run, with margin for a slower machine, and that
  // falls inside one cost class of the round rather than on the boundary
  // between two.
  double tail_percentile = 50.0;
  // The i-th loop op; called with i = 0, 1, 2, ... in order. Empty when
  // the pre-generated inputs are used up.
  std::function<std::optional<Op>(int64_t)> next;
  // Workload sizes, reported next to the metrics.
  std::vector<std::pair<std::string, std::string>> sizes;
};

// `edits` must outlive the plan (edit-churn ops point into it).
Plan MakePlan(Workload workload, uint64_t seed, const Sizes& sizes,
              qsc::NodeId num_nodes, const EditBatches* edits);

}  // namespace servebench

#endif  // SERVEBENCH_PLAN_H_
