#include "shadow.h"

#include <algorithm>
#include <utility>

#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/coloring/rothko.h"
#include "qsc/dynamic/incremental.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/check.h"

namespace servebench {
namespace {

// Refiners the Shadow keeps alive: more than any workload's live specs
// (warm-serve and edit-churn use 5), so only cold-compress recycles.
constexpr size_t kMaxSpecs = 8;
constexpr size_t kMaxLps = 4;

template <typename Key>
void Touch(std::list<Key>* lru, const Key& key) {
  lru->remove(key);
  lru->push_front(key);
}

}  // namespace

Shadow::Shadow(qsc::GraphView view, std::shared_ptr<const qsc::Graph> owned,
               std::shared_ptr<const void> keepalive, qsc::ThreadPool* pool,
               Tracer* tracer)
    : view_(std::move(view)),
      owned_(std::move(owned)),
      keepalive_(std::move(keepalive)),
      pool_(pool),
      tracer_(tracer) {}

Shadow::~Shadow() = default;

const qsc::ColoringBackend& Shadow::Color(const qsc::ColoringSpec& spec,
                                          qsc::ColorId budget) {
  auto it = entries_.find(spec);
  if (it == entries_.end()) {
    if (entries_.size() >= kMaxSpecs) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    Tracer::Scope scope(tracer_, "coloring.build_rows");
    qsc::ColoringParams params;
    params.alpha = spec.alpha;
    params.beta = spec.beta;
    params.q_tolerance = spec.q_tolerance;
    params.split_mean = spec.split_mean;
    params.pool = pool_;
    const qsc::Partition initial =
        qsc::InitialPartition(spec, view_.num_nodes());
    Entry entry;
    if (owned_ != nullptr) {
      entry.refiner = std::make_unique<qsc::dynamic::IncrementalRecolorer>(
          owned_, qsc::kDefaultColoringBackend, initial, params);
    } else {
      qsc::RothkoOptions options;
      static_cast<qsc::ColoringParams&>(options) = params;
      entry.refiner =
          std::make_unique<qsc::RothkoRefiner>(view_, initial, options);
    }
    entry.initial_colors = entry.refiner->partition().num_colors();
    it = entries_.emplace(spec, std::move(entry)).first;
  }
  Touch(&lru_, spec);

  Entry& entry = it->second;
  // The same loop as ColoringCache::Refine, so the partition is the one
  // the session serves. The workloads never ask a spec for fewer colors
  // than it already has.
  budget = std::max(budget, entry.initial_colors);
  QSC_CHECK(entry.refiner->partition().num_colors() <= budget);
  Tracer::Scope scope(tracer_, "coloring.split_loop");
  const qsc::ColorId before = entry.refiner->partition().num_colors();
  while (!entry.converged && entry.refiner->partition().num_colors() < budget) {
    if (!entry.refiner->Step(budget)) entry.converged = true;
  }
  counts_.splits += entry.refiner->partition().num_colors() - before;
  return *entry.refiner;
}

double Shadow::FlowUpperBound(qsc::NodeId s, qsc::NodeId t,
                              const qsc::Partition& p) {
  qsc::Graph reduced;
  {
    Tracer::Scope scope(tracer_, "reduce.reduced_graph");
    reduced = qsc::BuildReducedGraph(view_, p, qsc::ReducedWeight::kSum);
  }
  counts_.reduced_arcs += reduced.num_arcs();
  Tracer::Scope scope(tracer_, "flow.push_relabel");
  return qsc::MaxFlowPushRelabel(reduced, p.ColorOf(s), p.ColorOf(t));
}

std::vector<double> Shadow::PivotScores(const qsc::Partition& p,
                                        int32_t pivots_per_color,
                                        uint64_t seed) {
  for (qsc::ColorId c = 0; c < p.num_colors(); ++c) {
    counts_.pivots += std::min<int64_t>(pivots_per_color, p.ColorSize(c));
  }
  Tracer::Scope scope(tracer_, "centrality.pivot_scores");
  return qsc::ColorPivotScores(view_, p, pivots_per_color, seed, pool_);
}

Shadow::LpAnswer Shadow::SolveLp(
    const std::shared_ptr<const qsc::LpProblem>& lp,
    const qsc::QueryOptions& options) {
  auto it = lps_.find(lp.get());
  if (it == lps_.end()) {
    if (lps_.size() >= kMaxLps) {
      lps_.erase(lp_lru_.back());
      lp_lru_.pop_back();
    }
    Tracer::Scope scope(tracer_, "lp.refiner_build");
    // The options SolveLp derives from QueryOptions.
    qsc::LpReduceOptions reduce;
    reduce.max_colors = options.max_colors;
    reduce.q_tolerance = options.q_tolerance;
    reduce.alpha = options.alpha.value_or(reduce.alpha);
    reduce.beta = options.beta.value_or(reduce.beta);
    reduce.split_mean = options.split_mean;
    reduce.variant = options.lp_variant;
    reduce.backend = qsc::kDefaultColoringBackend;
    reduce.pool = pool_;
    auto refiner = std::make_unique<qsc::LpColoringRefiner>(*lp, reduce);
    it = lps_.emplace(lp.get(), std::make_pair(lp, std::move(refiner))).first;
  }
  Touch(&lp_lru_, lp.get());

  LpAnswer answer;
  {
    Tracer::Scope scope(tracer_, "lp.reduce_to");
    answer.reduced = it->second.second->ReduceTo(options.max_colors);
  }
  {
    Tracer::Scope scope(tracer_, "lp.simplex");
    answer.solution = qsc::SolveSimplex(answer.reduced.lp);
  }
  if (answer.solution.status == qsc::LpStatus::kOptimal) {
    Tracer::Scope scope(tracer_, "lp.lift");
    answer.lifted_x = qsc::LiftSolution(answer.reduced, answer.solution.x);
  }
  return answer;
}

qsc::EditApplyResult Shadow::ApplyEdits(
    const std::vector<qsc::dynamic::EditOp>& edits) {
  QSC_CHECK(owned_ != nullptr);
  std::shared_ptr<const qsc::Graph> mutated;
  {
    Tracer::Scope scope(tracer_, "dynamic.apply_batch");
    qsc::StatusOr<qsc::Graph> next =
        qsc::dynamic::ApplyEditBatch(*owned_, edits);
    QSC_CHECK(next.ok());
    mutated = std::make_shared<const qsc::Graph>(std::move(next).value());
  }
  qsc::EditApplyResult result;
  result.edits_applied = static_cast<int64_t>(edits.size());
  qsc::dynamic::RepairOptions repair;
  repair.max_repair_splits = qsc::EditApplyOptions().max_repair_splits;
  for (auto& [spec, entry] : entries_) {
    Tracer::Scope scope(tracer_, "dynamic.repair");
    auto* recolorer =
        static_cast<qsc::dynamic::IncrementalRecolorer*>(entry.refiner.get());
    const qsc::dynamic::RepairOutcome outcome =
        recolorer->ApplyGraph(mutated, edits, repair);
    entry.converged = outcome.converged;
    counts_.dirty_colors += outcome.dirty_colors;
    if (outcome.repaired) {
      ++result.repairs;
      result.repair_splits += outcome.splits;
    } else {
      ++result.fallbacks;
    }
  }
  counts_.repairs += result.repairs;
  counts_.fallbacks += result.fallbacks;
  counts_.repair_splits += result.repair_splits;
  owned_ = std::move(mutated);
  view_ = qsc::GraphView(*owned_);
  keepalive_ = owned_;
  return result;
}

}  // namespace servebench
