#include "engine.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/coloring/q_error.h"
#include "qsc/eval/json.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/graph/graph_view.h"
#include "qsc/graph/io.h"
#include "qsc/parallel/thread_pool.h"
#include "shadow.h"
#include "tracer.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using qsc::NodeId;

double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------- answers

struct Answer {
  std::vector<qsc::FlowQueryResult> flows;
  std::optional<qsc::ColoringResult> coloring;
  std::optional<qsc::LpQueryResult> lp;
  std::optional<qsc::CentralityQueryResult> centrality;
  std::optional<qsc::EditApplyResult> edit;
};

template <typename T>
qsc::Status Take(qsc::StatusOr<T> result, T* out) {
  if (!result.ok()) return result.status();
  *out = std::move(result).value();
  return qsc::Status::Ok();
}

template <typename T>
qsc::Status Take(qsc::StatusOr<T> result, std::optional<T>* out) {
  if (!result.ok()) return result.status();
  out->emplace(std::move(result).value());
  return qsc::Status::Ok();
}

qsc::Status Query(qsc::Compressor& session, const Op& op, Answer* a) {
  switch (op.call) {
    case Call::kMaxFlow:
      a->flows.resize(1);
      return Take(session.MaxFlow(op.pairs[0].first, op.pairs[0].second,
                                  op.options),
                  &a->flows[0]);
    case Call::kMaxFlowBatch:
      return Take(session.MaxFlowBatch(op.pairs, op.options), &a->flows);
    case Call::kColoring:
      return Take(session.Coloring(op.options), &a->coloring);
    case Call::kSolveLp:
      return Take(session.SolveLp(*op.lp, op.options), &a->lp);
    case Call::kCentrality:
      return Take(session.Centrality(op.options), &a->centrality);
    case Call::kApplyEdits:
      return Take(session.ApplyEdits(*op.edits), &a->edit);
  }
  return qsc::Status::Internal("unknown call");
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// FNV-1a over the bytes of every answer field that is a pure function of
// (graph, spec, budget); telemetry is left out.
class Digest {
 public:
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Double(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Word(bits);
  }
  void Doubles(const std::vector<double>& v) {
    Word(v.size());
    for (const double x : v) Double(x);
  }
  void Partition(const qsc::Partition& p) {
    Word(static_cast<uint64_t>(p.num_colors()));
    for (const qsc::ColorId c : p.color_of()) Word(static_cast<uint64_t>(c));
  }
  void Answer(const Answer& a) {
    for (const qsc::FlowQueryResult& f : a.flows) {
      Double(f.upper_bound);
      Partition(*f.coloring);
    }
    if (a.coloring) {
      Partition(*a.coloring->coloring);
      Double(a.coloring->max_q);
    }
    if (a.lp) {
      Word(static_cast<uint64_t>(a.lp->solution.status));
      Double(a.lp->solution.objective);
      Word(static_cast<uint64_t>(a.lp->reduced.lp.num_rows));
      Word(static_cast<uint64_t>(a.lp->reduced.lp.num_cols));
      Doubles(a.lp->lifted_x);
    }
    if (a.centrality) {
      Partition(*a.centrality->coloring);
      Doubles(a.centrality->scores);
    }
    if (a.edit) {
      Word(static_cast<uint64_t>(a.edit->edits_applied));
      Word(static_cast<uint64_t>(a.edit->repairs));
      Word(static_cast<uint64_t>(a.edit->fallbacks));
      Word(static_cast<uint64_t>(a.edit->repair_splits));
      Word(static_cast<uint64_t>(a.edit->graph_version));
    }
  }
  std::string Hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 14695981039346656037ull;
};

// ----------------------------------------------------------------- checks

// Violations are counted per check, named by `check`; `what` says what
// went wrong.
class Checks {
 public:
  void Fail(const char* check, const std::string& what) {
    if (violations_ < 20) {
      std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", check, what.c_str());
    }
    ++violations_;
    ++by_check_[check];
  }
  void Expect(bool ok, const char* check, const std::string& what) {
    if (!ok) Fail(check, what);
  }
  int64_t violations() const { return violations_; }
  const std::map<std::string, int64_t>& by_check() const { return by_check_; }

 private:
  int64_t violations_ = 0;
  std::map<std::string, int64_t> by_check_;
};

std::string OpName(int64_t index, const Op& op) {
  return (index < 0 ? std::string("setup ") : "op " + std::to_string(index) +
                                                  " ") +
         op.cls;
}

bool NearlyEqual(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

// The traced run's expectation for one call, computed from the layers.
struct Expected {
  std::vector<std::pair<const qsc::Partition*, double>> flows;
  const qsc::Partition* coloring = nullptr;
  double max_q = 0.0;
  std::vector<double> scores;
  std::optional<Shadow::LpAnswer> lp;
  std::optional<qsc::EditApplyResult> edit;
};

qsc::ColoringSpec SpecOf(const qsc::QueryOptions& o, double default_exponent,
                         std::vector<NodeId> pinned) {
  qsc::ColoringSpec spec;
  spec.alpha = o.alpha.value_or(default_exponent);
  spec.beta = o.beta.value_or(default_exponent);
  spec.q_tolerance = o.q_tolerance;
  spec.split_mean = o.split_mean;
  spec.pinned = std::move(pinned);
  return spec;
}

Expected Reproduce(Shadow& shadow, const Op& op) {
  Expected e;
  switch (op.call) {
    case Call::kMaxFlow:
    case Call::kMaxFlowBatch:
      for (const auto& [s, t] : op.pairs) {
        const qsc::Partition& p =
            shadow.Color(SpecOf(op.options, 0.0, {s, t}), op.options.max_colors)
                .partition();
        e.flows.emplace_back(&p, shadow.FlowUpperBound(s, t, p));
      }
      break;
    case Call::kColoring: {
      const qsc::ColoringBackend& r = shadow.Color(
          SpecOf(op.options, 0.0, op.options.pinned), op.options.max_colors);
      e.coloring = &r.partition();
      e.max_q = r.CurrentMaxError();
      break;
    }
    case Call::kCentrality: {
      const qsc::Partition& p =
          shadow.Color(SpecOf(op.options, 1.0, op.options.pinned),
                       op.options.max_colors)
              .partition();
      e.coloring = &p;
      e.scores = shadow.PivotScores(p, op.options.pivots_per_color,
                                    op.options.seed);
      break;
    }
    case Call::kSolveLp:
      e.lp = shadow.SolveLp(op.lp, op.options);
      break;
    case Call::kApplyEdits:
      e.edit = shadow.ApplyEdits(*op.edits);
      break;
  }
  return e;
}

void Compare(const Expected& e, const Answer& a, const std::string& name,
             Checks* checks) {
  const std::string where = name + ": layer rebuild differs from the call, ";
  if (e.flows.size() != a.flows.size()) {
    checks->Fail("rebuild_flow", where + "flow count");
    return;
  }
  for (size_t k = 0; k < e.flows.size(); ++k) {
    checks->Expect(*e.flows[k].first == *a.flows[k].coloring,
                   "rebuild_partition", where + "flow partition");
    checks->Expect(SameBits(e.flows[k].second, a.flows[k].upper_bound),
                   "rebuild_flow", where + "flow upper bound");
  }
  if (a.coloring) {
    checks->Expect(*e.coloring == *a.coloring->coloring, "rebuild_partition",
                   where + "coloring partition");
    checks->Expect(SameBits(e.max_q, a.coloring->max_q), "rebuild_partition",
                   where + "max_q");
  }
  if (a.centrality) {
    checks->Expect(*e.coloring == *a.centrality->coloring,
                   "rebuild_partition", where + "centrality partition");
    checks->Expect(SameBits(e.scores, a.centrality->scores),
                   "rebuild_centrality", where + "centrality scores");
  }
  if (a.lp) {
    checks->Expect(a.lp->solution.status == e.lp->solution.status,
                   "rebuild_lp", where + "LP status");
    checks->Expect(SameBits(a.lp->solution.objective, e.lp->solution.objective),
                   "rebuild_lp", where + "reduced LP objective");
    checks->Expect(SameBits(a.lp->lifted_x, e.lp->lifted_x), "rebuild_lp",
                   where + "lifted LP point");
  }
  if (a.edit) {
    checks->Expect(a.edit->repairs == e.edit->repairs &&
                       a.edit->fallbacks == e.edit->fallbacks &&
                       a.edit->repair_splits == e.edit->repair_splits,
                   "rebuild_edit", where + "edit repairs");
  }
}

// What the untraced checks need from the answers, gathered as they arrive
// (answers themselves are dropped right away: a centrality answer is a
// score per node).
struct Observed {
  // Theorem 6 candidates: (source, sink) -> distinct upper bounds served.
  std::map<std::pair<NodeId, NodeId>, std::set<double>> flow_uppers;
  // Colorings served so far, by address, for max_q_mean. An expired entry
  // means a new coloring at that address. Only weak references are kept,
  // so no served coloring outlives the session's hold on it.
  std::map<const qsc::Partition*, std::weak_ptr<const qsc::Partition>>
      served;
  // Colorings the current op served for the first time; scored right
  // after it (Run::ScoreNewColorings).
  std::vector<std::shared_ptr<const qsc::Partition>> unscored;
  // edit-churn: the batches applied, in order, and the queries (one pair
  // each) answered after the last of them.
  std::vector<const std::vector<qsc::dynamic::EditOp>*> batches;
  std::vector<std::pair<Op, qsc::FlowQueryResult>> last_cycle;
  // cold-compress: the previous answer's coloring, which a resume must
  // refine.
  std::shared_ptr<const qsc::Partition> previous;
};

// Warm-serve checks every pair; cold-compress the first few fresh ones
// (an exact max-flow on the full graph costs about 0.2 s).
constexpr size_t kColdFlowChecks = 4;

void NoteColoring(const std::shared_ptr<const qsc::Partition>& p,
                  Observed* seen) {
  std::weak_ptr<const qsc::Partition>& known = seen->served[p.get()];
  if (known.lock() == p) return;
  known = p;
  seen->unscored.push_back(p);
}

void Absorb(Workload workload, int64_t index, const Op& op, const Answer& a,
            Observed* seen, Checks* checks) {
  const std::string name = OpName(index, op);
  for (size_t k = 0; k < a.flows.size(); ++k) {
    const qsc::FlowQueryResult& f = a.flows[k];
    if (workload == Workload::kEditChurn) {
      Op single = op;
      single.call = Call::kMaxFlow;
      single.pairs = {op.pairs[k]};
      seen->last_cycle.emplace_back(single, f);
      continue;
    }
    if (workload == Workload::kWarmServe ||
        seen->flow_uppers.size() < kColdFlowChecks) {
      seen->flow_uppers[op.pairs[k]].insert(f.upper_bound);
    }
    NoteColoring(f.coloring, seen);
  }
  if (a.coloring) {
    const qsc::Partition& p = *a.coloring->coloring;
    for (const NodeId pin : op.options.pinned) {
      checks->Expect(p.ColorSize(p.ColorOf(pin)) == 1, "pinned_singleton",
                     name + ": pinned node is not a singleton");
    }
    checks->Expect(p.num_colors() <= op.options.max_colors, "budget",
                   name + ": coloring exceeds its budget");
    NoteColoring(a.coloring->coloring, seen);
  }
  const std::shared_ptr<const qsc::Partition> served =
      a.coloring ? a.coloring->coloring
                 : (a.flows.size() == 1 ? a.flows[0].coloring : nullptr);
  if (op.cls == "resume") {
    checks->Expect(seen->previous != nullptr && served != nullptr &&
                       served->IsRefinementOf(*seen->previous),
                   "resume_refines",
                   name + ": up-budget answer does not refine the previous "
                          "one (anytime property)");
  }
  seen->previous = served;
  if (a.lp) {
    const qsc::LpQueryResult& r = *a.lp;
    checks->Expect(r.solution.status == qsc::LpStatus::kOptimal, "lp_optimal",
                   name + ": reduced LP not optimal");
    double lifted = 0.0;
    for (size_t j = 0; j < r.lifted_x.size(); ++j) {
      lifted += op.lp->c[j] * r.lifted_x[j];
    }
    checks->Expect(r.lifted_x.size() == static_cast<size_t>(op.lp->num_cols) &&
                       NearlyEqual(lifted, r.solution.objective),
                   "lp_lift",
                   name + ": lifted objective differs from the reduced one");
  }
  if (a.centrality) {
    const std::vector<double>& scores = a.centrality->scores;
    checks->Expect(scores.size() == a.centrality->coloring->color_of().size(),
                   "centrality_scores",
                   name + ": one centrality score per node");
    for (const double s : scores) {
      if (!std::isfinite(s) || s < 0.0) {
        checks->Fail("centrality_scores",
                     name + ": centrality score not finite and >= 0");
        break;
      }
    }
    NoteColoring(a.centrality->coloring, seen);
  }
  if (a.edit) {
    checks->Expect(a.edit->edits_applied ==
                       static_cast<int64_t>(op.edits->size()),
                   "edits_applied", name + ": not every edit applied");
    seen->batches.push_back(op.edits);
    seen->last_cycle.clear();
  }
}

// Test hook (--corrupt): falsifies part of an answer before the checks.
void Corrupt(Corruption kind, const Op& op, Answer* a) {
  const auto one_color = [](std::shared_ptr<const qsc::Partition>* p) {
    *p = std::make_shared<const qsc::Partition>(
        qsc::Partition::Trivial((*p)->num_nodes()));
  };
  switch (kind) {
    case Corruption::kFlow:
      for (qsc::FlowQueryResult& f : a->flows) f.upper_bound = -1.0;
      break;
    case Corruption::kLp:
      if (a->lp) a->lp->solution.objective += 1.0;
      break;
    case Corruption::kCentrality:
      if (a->centrality && !a->centrality->scores.empty()) {
        a->centrality->scores[0] = -1.0;
      }
      break;
    case Corruption::kResume:
      if (op.cls != "resume") break;
      [[fallthrough]];
    case Corruption::kColoring:
      for (qsc::FlowQueryResult& f : a->flows) one_color(&f.coloring);
      if (a->coloring) one_color(&a->coloring->coloring);
      if (a->centrality) one_color(&a->centrality->coloring);
      break;
    case Corruption::kEdit:
      if (a->edit) ++a->edit->repairs;
      break;
    case Corruption::kNone:
    case Corruption::kCache:  // changes the op instead (Run::Loop)
      break;
  }
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------- metrics

struct Sample {
  std::string cls;
  double ms = 0.0;  // +inf for a failed op
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void WriteMetrics(qsc::eval::JsonWriter& w,
                  const std::vector<Metric>& metrics) {
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.KV("value", m.value);
    w.KV("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --------------------------------------------------------------- the run

class Run {
 public:
  explicit Run(const ServeConfig& config)
      : config_(config),
        pool_(config.threads),
        tracer_(config.trace ? &trace_ : nullptr) {}

  int Execute();

 private:
  bool LoadInputs();
  bool Setup();
  void Loop();
  // Runs one op (reproducing it layer by layer first when traced),
  // checks and digests its answer. Returns false if the call failed.
  bool RunOp(int64_t index, const Op& op, double* ms);
  // Scores the colorings the last op served for the first time, outside
  // the timed call, so the benchmark keeps no coloring alive and peak RSS
  // does not grow with the number of ops served.
  void ScoreNewColorings();
  // The checker's own view of the input graph, made on first use.
  const qsc::GraphView& CheckView();
  void CheckAfterLoop();
  void Report(double peak_rss_mib);
  std::vector<Metric> LayerMetrics(qsc::eval::JsonWriter& w) const;

  const ServeConfig& config_;
  qsc::ThreadPool pool_;
  Tracer trace_;
  Tracer* tracer_;
  std::string graph_path_;
  EditBatches edits_;
  Plan plan_;
  std::optional<qsc::Compressor> session_;
  std::shared_ptr<const qsc::MappedGraph> mapped_;  // the checker's own map
  std::optional<qsc::GraphView> check_view_;         // over mapped_
  std::unique_ptr<Shadow> shadow_;

  Checks checks_;
  Observed seen_;
  Digest digest_;
  double setup_s_ = 0.0;
  double open_ms_ = 0.0;
  std::vector<Sample> samples_;
  double busy_s_ = 0.0;
  int64_t failed_ = 0;
  bool exhausted_ = false;
  std::vector<double> max_q_;  // per distinct coloring, for max_q_mean
  qsc::CompressorStats stats_before_;
  qsc::CompressorStats stats_after_;
  Shadow::Counts counts_before_;
};

bool Run::LoadInputs() {
  graph_path_ = GraphPath(config_.dir);
  if (config_.workload == Workload::kEditChurn) {
    qsc::StatusOr<EditBatches> edits = ReadEdits(EditsPath(config_.dir));
    if (!edits.ok()) {
      std::fprintf(stderr, "%s\n", edits.status().ToString().c_str());
      return false;
    }
    edits_ = std::move(edits).value();
  }
  plan_ = MakePlan(config_.workload, config_.seed, config_.sizes,
                   config_.sizes.nodes, &edits_);
  qsc::StatusOr<qsc::MappedGraph> mapped = qsc::MapBinary(graph_path_);
  if (!mapped.ok()) {
    std::fprintf(stderr, "%s\n", mapped.status().ToString().c_str());
    return false;
  }
  mapped_ = std::make_shared<const qsc::MappedGraph>(std::move(mapped).value());
  if (config_.trace) {
    if (config_.workload == Workload::kEditChurn) {
      auto owned = std::make_shared<const qsc::Graph>(mapped_->Materialize());
      shadow_ = std::make_unique<Shadow>(qsc::GraphView(*owned), owned, owned,
                                         &pool_, tracer_);
    } else {
      shadow_ = std::make_unique<Shadow>(qsc::GraphView::Of(*mapped_), nullptr,
                                         mapped_, &pool_, tracer_);
    }
  }
  return true;
}

bool Run::RunOp(int64_t index, const Op& op, double* ms) {
  trace_.set_op(index);
  Answer answer;
  Expected expected;
  qsc::Status status;
  {
    const Tracer::Scope op_scope(tracer_, ("op." + op.cls).c_str());
    const Clock::time_point t0 = Clock::now();
    if (shadow_ != nullptr) expected = Reproduce(*shadow_, op);
    const Clock::time_point call = Clock::now();
    {
      const Tracer::Scope api_scope(tracer_, "api.call");
      status = Query(*session_, op, &answer);
    }
    *ms = MillisSince(shadow_ != nullptr ? t0 : call);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", OpName(index, op).c_str(),
                 status.ToString().c_str());
    return false;
  }
  Corrupt(config_.corrupt, op, &answer);
  if (shadow_ != nullptr) {
    Compare(expected, answer, OpName(index, op), &checks_);
  }
  Absorb(config_.workload, index, op, answer, &seen_, &checks_);
  if (index < plan_.round_size) digest_.Answer(answer);
  return true;
}

bool Run::Setup() {
  trace_.set_op(-1);
  const Clock::time_point t0 = Clock::now();
  {
    const Tracer::Scope setup_scope(tracer_, "setup");
    {
      const Tracer::Scope open_scope(tracer_, "graph.open");
      qsc::StatusOr<qsc::Compressor> opened =
          qsc::Compressor::FromFile(graph_path_, &pool_, plan_.session);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return false;
      }
      session_.emplace(std::move(opened).value());
    }
    open_ms_ = MillisSince(t0);
    for (const Op& op : plan_.setup) {
      double ms = 0.0;
      if (!RunOp(-1, op, &ms)) return false;
    }
  }
  setup_s_ = MillisSince(t0) / 1e3;
  ScoreNewColorings();
  return true;
}

void Run::ScoreNewColorings() {
  for (const auto& p : seen_.unscored) {
    max_q_.push_back(qsc::ComputeQError(CheckView(), *p).max_q);
  }
  seen_.unscored.clear();
}

const qsc::GraphView& Run::CheckView() {
  if (!check_view_) check_view_.emplace(qsc::GraphView::Of(*mapped_));
  return *check_view_;
}

void Run::Loop() {
  stats_before_ = session_->stats();
  if (shadow_ != nullptr) counts_before_ = shadow_->counts();
  const int64_t round = plan_.round_size;
  // At least two rounds: a cold-compress round takes 4-7 s, and with one
  // round a process's share of the run could end after 8 samples.
  const int64_t min_ops = 2 * round;
  for (int64_t i = 0;; ++i) {
    if (i % round == 0 && (config_.ops > 0 ? i >= config_.ops
                                           : busy_s_ >= config_.seconds &&
                                                 i >= min_ops)) {
      break;
    }
    std::optional<Op> op = plan_.next(i);
    if (!op) {
      exhausted_ = true;
      break;
    }
    if (config_.corrupt == Corruption::kCache && i == 0) {
      op->options.q_tolerance += 0.5;  // a new cache key: a miss
    }
    double ms = 0.0;
    const bool ok = RunOp(i, *op, &ms);
    busy_s_ += ms / 1e3;
    if (!ok) ++failed_;
    samples_.push_back(
        {op->cls, ok ? ms : std::numeric_limits<double>::infinity()});
    ScoreNewColorings();
  }
  stats_after_ = session_->stats();
}

void Run::CheckAfterLoop() {
  // Theorem 6: the coloring's upper bound is never below the exact flow.
  for (const auto& [pair, uppers] : seen_.flow_uppers) {
    const double exact =
        qsc::MaxFlowPushRelabel(CheckView(), pair.first, pair.second);
    for (const double upper : uppers) {
      checks_.Expect(upper >= exact - 1e-9 * std::max(1.0, exact), "theorem6",
                     "Theorem 6: upper bound " + std::to_string(upper) +
                         " below the exact max-flow " + std::to_string(exact));
    }
  }

  if (config_.workload == Workload::kWarmServe) {
    const qsc::CacheStats& a = stats_before_.coloring;
    const qsc::CacheStats& b = stats_after_.coloring;
    checks_.Expect(
        b.lookups > a.lookups && b.hits - a.hits == b.lookups - a.lookups,
        "warm_all_hit", "warm-serve: a loop query missed the coloring cache");
    checks_.Expect(stats_after_.lp_hits - stats_before_.lp_hits ==
                       stats_after_.lp_lookups - stats_before_.lp_lookups,
                   "warm_all_hit",
                   "warm-serve: a loop SolveLp missed the LP cache");
  }

  if (config_.workload == Workload::kEditChurn) {
    // Replay every applied batch on an independent copy of the graph,
    // then answer the final cycle's queries from a fresh session on it:
    // one MaxFlowBatch per distinct options, so the colorings run on the
    // pool side by side.
    qsc::Graph mirror = mapped_->Materialize();
    for (const auto* batch : seen_.batches) {
      qsc::StatusOr<qsc::Graph> next =
          qsc::dynamic::ApplyEditBatch(mirror, *batch);
      QSC_CHECK(next.ok());
      mirror = std::move(next).value();
    }
    auto mutated = std::make_shared<const qsc::Graph>(std::move(mirror));
    qsc::Compressor fresh(mutated, &pool_);
    checks_.Expect(!seen_.last_cycle.empty(), "edit_last_cycle",
                   "edit-churn: no query after the last batch");
    std::map<std::pair<qsc::ColorId, double>, std::vector<size_t>> groups;
    for (size_t k = 0; k < seen_.last_cycle.size(); ++k) {
      const qsc::QueryOptions& o = seen_.last_cycle[k].first.options;
      groups[{o.max_colors, o.q_tolerance}].push_back(k);
    }
    std::vector<qsc::FlowQueryResult> scratch(seen_.last_cycle.size());
    for (const auto& [key, members] : groups) {
      Op batch = seen_.last_cycle[members[0]].first;
      batch.call = Call::kMaxFlowBatch;
      batch.pairs.clear();
      for (const size_t k : members) {
        batch.pairs.push_back(seen_.last_cycle[k].first.pairs[0]);
      }
      Answer answer;
      QSC_CHECK(Query(fresh, batch, &answer).ok());
      for (size_t j = 0; j < members.size(); ++j) {
        scratch[members[j]] = answer.flows[j];
      }
    }
    for (size_t k = 0; k < seen_.last_cycle.size(); ++k) {
      const auto& [op, served] = seen_.last_cycle[k];
      const qsc::FlowQueryResult& ref = scratch[k];
      const double q_served =
          qsc::ComputeQError(*mutated, *served.coloring).max_q;
      max_q_.push_back(q_served);
      if (op.options.q_tolerance == 0.0) {
        checks_.Expect(SameBits(served.upper_bound, ref.upper_bound) &&
                           *served.coloring == *ref.coloring,
                       "edit_fresh_equal",
                       "edit-churn: zero-tolerance answer differs from a fresh "
                       "session on the mutated graph");
      } else {
        const double q_scratch =
            qsc::ComputeQError(*mutated, *ref.coloring).max_q;
        checks_.Expect(
            q_served <= std::max(q_scratch, op.options.q_tolerance) + 1e-9,
            "edit_q_bound",
            "edit-churn: repaired coloring q " + std::to_string(q_served) +
                " above max(q_scratch " + std::to_string(q_scratch) +
                ", tolerance)");
      }
    }
  }
  plan_.sizes.insert(plan_.sizes.begin() + 2,
                     {"arcs", std::to_string(mapped_->num_arcs())});
}

// Per-layer metrics of the traced loop (set-up spans excluded, except the
// graph open), plus the per-class accounting written to `w`.
std::vector<Metric> Run::LayerMetrics(qsc::eval::JsonWriter& w) const {
  const std::map<std::string, Tracer::NameTotals> loop = trace_.Totals(true);
  const auto mean_ms = [&](const char* name) {
    const auto it = loop.find(name);
    return it == loop.end() ? 0.0
                            : Ratio(it->second.total_ms, it->second.count);
  };
  const auto calls = [&](const char* name) {
    const auto it = loop.find(name);
    return it == loop.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  const auto total_ms = [&](const char* name) {
    const auto it = loop.find(name);
    return it == loop.end() ? 0.0 : it->second.total_ms;
  };
  const std::map<std::string, Tracer::NameTotals> all = trace_.Totals(false);
  const double open_ms = all.at("graph.open").total_ms;

  // Per op: its class, api.call time and the time of its layer spans.
  struct OpTime {
    std::string cls;
    double call_ms = 0.0;
    std::map<std::string, double> layers;
  };
  std::map<int64_t, OpTime> ops;
  for (const Tracer::Span& span : trace_.spans()) {
    if (span.op_id < 0) continue;
    OpTime& op = ops[span.op_id];
    if (span.name.rfind("op.", 0) == 0) {
      op.cls = span.name.substr(3);
    } else if (span.name == "api.call") {
      op.call_ms += span.Millis();
    } else {
      op.layers[span.name] += span.Millis();
    }
  }
  double overhead_sum = 0.0;
  int64_t overhead_ops = 0;
  struct ClassTime {
    int64_t ops = 0;
    double call_ms = 0.0;
    std::map<std::string, double> layers;
  };
  std::map<std::string, ClassTime> classes;
  double call_total = 0.0;
  for (const auto& [id, op] : ops) {
    ClassTime& c = classes[op.cls];
    ++c.ops;
    c.call_ms += op.call_ms;
    call_total += op.call_ms;
    double layer_ms = 0.0;
    for (const auto& [name, ms] : op.layers) {
      c.layers[name] += ms;
      layer_ms += ms;
    }
    // A batch's layers are replayed one pair after another while the
    // call fans its pairs out over the pool, so its difference is the
    // fan-out saving, not overhead; it is reported per class only.
    if (op.cls != "batch") {
      overhead_sum += op.call_ms - layer_ms;
      ++overhead_ops;
    }
  }

  w.Key("accounting");
  w.BeginObject();
  for (const auto& [cls, c] : classes) {
    w.Key(cls);
    w.BeginObject();
    w.KV("ops", c.ops);
    w.KV("share_of_call_time", Ratio(c.call_ms, call_total));
    w.KV("call_ms_per_op", Ratio(c.call_ms, c.ops));
    double layer_ms = 0.0;
    w.Key("layer_ms_per_op");
    w.BeginObject();
    for (const auto& [name, ms] : c.layers) {
      w.KV(name, Ratio(ms, c.ops));
      layer_ms += ms;
    }
    w.EndObject();
    w.KV("overhead_ms_per_op", Ratio(c.call_ms - layer_ms, c.ops));
    w.EndObject();
  }
  w.EndObject();
  w.Key("self_ms");
  w.BeginObject();
  for (const auto& [name, t] : loop) w.KV(name, t.self_ms);
  w.EndObject();

  const qsc::CacheStats& a = stats_before_.coloring;
  const qsc::CacheStats& b = stats_after_.coloring;
  const double loop_ops = static_cast<double>(samples_.size());
  Shadow::Counts d = shadow_->counts();
  d.splits -= counts_before_.splits;
  d.reduced_arcs -= counts_before_.reduced_arcs;
  d.pivots -= counts_before_.pivots;
  d.repairs -= counts_before_.repairs;
  d.fallbacks -= counts_before_.fallbacks;
  d.repair_splits -= counts_before_.repair_splits;
  d.dirty_colors -= counts_before_.dirty_colors;
  const double batches = calls("dynamic.apply_batch");

  return {
      {"graph.open_ms", open_ms, "ms"},
      {"api.cache_hit_ratio", Ratio(b.hits - a.hits, b.lookups - a.lookups),
       "ratio"},
      {"api.cache_misses", Ratio(b.misses - a.misses, loop_ops), "1/op"},
      {"api.cache_evictions", Ratio(b.evictions - a.evictions, loop_ops),
       "1/op"},
      {"api.cache_peak_mib", b.peak_bytes / 1048576.0, "MiB"},
      {"api.lp_hit_ratio",
       Ratio(stats_after_.lp_hits - stats_before_.lp_hits,
             stats_after_.lp_lookups - stats_before_.lp_lookups),
       "ratio"},
      {"api.overhead_ms", Ratio(overhead_sum, overhead_ops), "ms"},
      {"coloring.build_rows_ms", mean_ms("coloring.build_rows"), "ms"},
      {"coloring.split_loop_ms", mean_ms("coloring.split_loop"), "ms"},
      {"coloring.splits", Ratio(d.splits, calls("coloring.split_loop")),
       "count"},
      {"coloring.us_per_split",
       Ratio(total_ms("coloring.split_loop") * 1e3, d.splits), "us"},
      {"reduce.reduced_graph_ms", mean_ms("reduce.reduced_graph"), "ms"},
      {"reduce.reduced_arcs",
       Ratio(d.reduced_arcs, calls("reduce.reduced_graph")), "count"},
      {"flow.push_relabel_ms", mean_ms("flow.push_relabel"), "ms"},
      {"centrality.pivot_scores_ms", mean_ms("centrality.pivot_scores"), "ms"},
      {"centrality.pivots", Ratio(d.pivots, calls("centrality.pivot_scores")),
       "count"},
      {"lp.refiner_build_ms", mean_ms("lp.refiner_build"), "ms"},
      {"lp.reduce_to_ms", mean_ms("lp.reduce_to"), "ms"},
      {"lp.simplex_ms", mean_ms("lp.simplex"), "ms"},
      {"lp.lift_ms", mean_ms("lp.lift"), "ms"},
      {"dynamic.apply_batch_ms", mean_ms("dynamic.apply_batch"), "ms"},
      {"dynamic.repair_ms", mean_ms("dynamic.repair"), "ms"},
      {"dynamic.repairs", Ratio(d.repairs, batches), "count"},
      {"dynamic.fallbacks", Ratio(d.fallbacks, batches), "count"},
      {"dynamic.repair_ratio", Ratio(d.repairs, d.repairs + d.fallbacks),
       "ratio"},
      {"dynamic.repair_splits", Ratio(d.repair_splits, batches), "count"},
      {"dynamic.dirty_colors", Ratio(d.dirty_colors, calls("dynamic.repair")),
       "count"},
      {"trace.ops_per_s", Ratio(loop_ops, busy_s_), "1/s"},
  };
}

void Run::Report(double peak_rss_mib) {
  qsc::eval::JsonWriter w;
  w.BeginObject();
  w.KV("workload", WorkloadName(config_.workload));
  w.KV("seed", config_.seed);
  w.KV("threads", static_cast<int64_t>(config_.threads));
  w.KV("trace", config_.trace);
  w.KV("correct", checks_.violations() == 0);
  w.KV("attempted", static_cast<int64_t>(samples_.size()));
  w.KV("failed", failed_);
  w.Key("details");
  w.BeginObject();
  w.KV("digest", digest_.Hex());
  w.KV("digest_covers", "set-up answers and the first " +
                            std::to_string(plan_.round_size) + " loop ops");
  w.KV("check_violations", checks_.violations());
  w.Key("violations_by_check");
  w.BeginObject();
  for (const auto& [check, count] : checks_.by_check()) w.KV(check, count);
  w.EndObject();
  w.KV("loop_busy_s", busy_s_);
  w.KV("inputs_exhausted", exhausted_);
  w.Key("sizes");
  w.BeginObject();
  for (const auto& [key, value] : plan_.sizes) w.KV(key, value);
  w.EndObject();
  w.KV("setup_s", setup_s_);
  w.Key("max_q");
  w.BeginArray();
  for (const double q : max_q_) w.Value(q);
  w.EndArray();
  w.KV("graph_open_ms", open_ms_);

  // Raw loop latencies per class, in the order they ran (null for a failed op);
  // run.py pools them across processes into the end-to-end metrics.
  std::map<std::string, std::vector<double>> by_class;
  for (const Sample& s : samples_) by_class[s.cls].push_back(s.ms);
  w.Key("samples_ms");
  w.BeginObject();
  for (const auto& [cls, ms] : by_class) {
    w.Key(cls);
    w.BeginArray();
    for (const double x : ms) w.Value(x);
    w.EndArray();
  }
  w.EndObject();
  w.KV("tail_percentile", plan_.tail_percentile);
  w.KV("peak_rss_mib", peak_rss_mib);
  const qsc::CacheStats& a = stats_before_.coloring;
  const qsc::CacheStats& b = stats_after_.coloring;
  w.Key("loop_cache");
  w.BeginObject();
  w.KV("lookups", b.lookups - a.lookups);
  w.KV("hits", b.hits - a.hits);
  w.KV("misses", b.misses - a.misses);
  w.KV("evictions", b.evictions - a.evictions);
  w.KV("peak_bytes", b.peak_bytes);
  w.KV("lp_lookups", stats_after_.lp_lookups - stats_before_.lp_lookups);
  w.KV("lp_hits", stats_after_.lp_hits - stats_before_.lp_hits);
  w.KV("repairs", b.repairs - a.repairs);
  w.KV("fallbacks", b.fallbacks - a.fallbacks);
  w.EndObject();

  std::vector<Metric> metrics;
  if (config_.trace) {
    metrics = LayerMetrics(w);
    w.KV("trace_file", config_.trace_out);
  }
  w.EndObject();  // details
  if (config_.trace) WriteMetrics(w, metrics);
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

int Run::Execute() {
  if (!LoadInputs() || !Setup()) return 2;
  Loop();
  const double peak_rss_mib = PeakRssMib();
  CheckAfterLoop();
  if (config_.trace) {
    for (const auto& [name, t] : trace_.Totals(true)) {
      std::fprintf(stderr, "self %-26s %8" PRId64 " spans %12.3f ms\n",
                   name.c_str(), t.count, t.self_ms);
    }
    if (!config_.trace_out.empty() &&
        !trace_.WriteChromeTrace(config_.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", config_.trace_out.c_str());
      return 2;
    }
  }
  Report(peak_rss_mib);
  return checks_.violations() == 0 ? 0 : 1;
}

}  // namespace

std::optional<Corruption> ParseCorruption(const std::string& name) {
  static const std::map<std::string, Corruption> kinds = {
      {"flow", Corruption::kFlow},         {"lp", Corruption::kLp},
      {"centrality", Corruption::kCentrality},
      {"coloring", Corruption::kColoring}, {"resume", Corruption::kResume},
      {"edit", Corruption::kEdit},         {"cache", Corruption::kCache}};
  const auto it = kinds.find(name);
  if (it == kinds.end()) return std::nullopt;
  return it->second;
}

int Serve(const ServeConfig& config) {
  Run run(config);
  return run.Execute();
}

}  // namespace servebench
