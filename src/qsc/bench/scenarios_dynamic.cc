// The "dynamic" scenario group (docs/DYNAMIC.md): seeded edit-stream
// churn against a live Compressor session. Each scenario colors a BA
// graph once, then alternates ApplyEdits batches with coloring
// checkpoints — the repair path — and, outside the timed closure,
// recomputes every checkpoint from scratch on the mutated graph.
//
// Gated counters: the edit/repair/fallback/split totals (deterministic
// given the seed — the repair contract makes them a pure function of
// the edit stream) and `abs_q_error_diff_vs_scratch`, the summed
// violation of the dynamic serving bound
//     q_inc <= max(q_scratch, q_tolerance)
// across checkpoints. The committed baseline pins that counter at
// exactly 0: incremental serving is never worse than from-scratch
// recoloring beyond the requested tolerance. Wall-clock comparisons
// are machine-dependent and land in gauges: repair_seconds (edit batches
// plus the checkpoint colorings), apply_edits_seconds (the ApplyEdits
// calls alone: the batch merge and every cached coloring's patch and
// repair), scratch_seconds and the speedup ratio.
//
// `dynamic/apply-batch-ba-100k` times the edit layer alone:
// ApplyEditBatch over a stream of 32-edit batches on servebench's
// reference graph, with the result gated bitwise against FromArcs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/compressor.h"
#include "qsc/bench/scenario.h"
#include "qsc/dynamic/edit_stream.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/parallel/thread_pool.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace bench {
namespace {

// Shape of one churn scenario: graph size, edit stream, and the one
// ColoringSpec every checkpoint queries.
struct ChurnConfig {
  NodeId num_nodes = 10000;
  int64_t num_batches = 6;
  int64_t edits_per_batch = 16;
  ColorId max_colors = 4096;   // generous: convergence is tolerance-driven
  double q_tolerance = 8.0;    // must be reachable, else repairs can't land
  int64_t max_repair_splits = 256;
};

QueryOptions ChurnQuery(const ChurnConfig& config) {
  QueryOptions options;
  options.max_colors = config.max_colors;
  options.q_tolerance = config.q_tolerance;
  return options;
}

void RegisterChurn(const char* name, const char* description,
                   uint64_t salt, const ChurnConfig& config) {
  Scenario::Info info;
  info.name = name;
  info.group = "dynamic";
  info.description = description;
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [salt, config](const BenchContext& ctx) {
        const uint64_t seed = ctx.seed ^ salt;
        Rng rng(seed);
        const Graph ba = BarabasiAlbert(config.num_nodes, 3, rng);
        const Graph g =
            Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);

        // The edit stream is part of the instance, not the measured work.
        dynamic::EditStreamOptions stream;
        stream.seed = seed + 1;
        stream.num_batches = config.num_batches;
        stream.edits_per_batch = config.edits_per_batch;
        StatusOr<std::vector<std::vector<dynamic::EditOp>>> batches =
            dynamic::GenerateEditBatches(g, stream);
        QSC_CHECK_OK(batches);

        const QueryOptions query = ChurnQuery(config);
        EditApplyOptions apply;
        apply.max_repair_splits = config.max_repair_splits;

        // The measured unit: a cold session colors the graph once, then
        // serves every edit batch through ApplyEdits (repairing the
        // cached coloring in place) with a coloring checkpoint after
        // each batch. Counters come from the last repeat.
        int64_t edits_applied = 0, repairs = 0, fallbacks = 0;
        int64_t repair_splits = 0;
        double q_checkpoint_sum = 0.0;
        double repair_seconds = 0.0;
        double apply_edits_seconds = 0.0;
        ColorId final_colors = 0;
        std::vector<double> q_inc(batches->size(), 0.0);
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          edits_applied = repairs = fallbacks = repair_splits = 0;
          q_checkpoint_sum = 0.0;
          repair_seconds = 0.0;
          apply_edits_seconds = 0.0;
          Compressor session(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &g),
              DefaultPool());
          StatusOr<ColoringResult> warm = session.Coloring(query);
          QSC_CHECK_OK(warm);
          WallTimer timer;
          for (size_t b = 0; b < batches->size(); ++b) {
            StatusOr<EditApplyResult> applied =
                session.ApplyEdits((*batches)[b], apply);
            QSC_CHECK_OK(applied);
            apply_edits_seconds += applied->seconds;
            edits_applied += applied->edits_applied;
            repairs += applied->repairs;
            fallbacks += applied->fallbacks;
            repair_splits += applied->repair_splits;
            StatusOr<ColoringResult> checkpoint = session.Coloring(query);
            QSC_CHECK_OK(checkpoint);
            q_inc[b] = checkpoint->max_q;
            q_checkpoint_sum += checkpoint->max_q;
            final_colors = checkpoint->coloring->num_colors();
          }
          repair_seconds = timer.ElapsedSeconds();
        });

        // The from-scratch oracle, outside the timed closure: replay the
        // edit stream on a plain Graph and recolor each checkpoint in a
        // fresh session. The bound counter sums how far each incremental
        // checkpoint lands above max(scratch, tolerance) — gated at 0.
        double abs_diff = 0.0;
        double scratch_seconds = 0.0;
        Graph current = g;
        for (size_t b = 0; b < batches->size(); ++b) {
          StatusOr<Graph> next =
              dynamic::ApplyEditBatch(current, (*batches)[b]);
          QSC_CHECK_OK(next);
          current = std::move(next).value();
          Compressor scratch(
              std::shared_ptr<const Graph>(std::shared_ptr<const Graph>(),
                                           &current),
              DefaultPool());
          WallTimer timer;
          StatusOr<ColoringResult> cold = scratch.Coloring(query);
          scratch_seconds += timer.ElapsedSeconds();
          QSC_CHECK_OK(cold);
          abs_diff += std::max(
              0.0, q_inc[b] - std::max(cold->max_q, config.q_tolerance));
        }

        r.params = {
            {"nodes", static_cast<double>(g.num_nodes())},
            {"arcs", static_cast<double>(g.num_arcs())},
            {"batches", static_cast<double>(config.num_batches)},
            {"edits_per_batch",
             static_cast<double>(config.edits_per_batch)},
            {"max_colors", static_cast<double>(config.max_colors)},
            {"q_tolerance", config.q_tolerance},
            {"max_repair_splits",
             static_cast<double>(config.max_repair_splits)},
        };
        r.counters = {
            {"edits_applied", static_cast<double>(edits_applied)},
            {"repairs", static_cast<double>(repairs)},
            {"fallbacks", static_cast<double>(fallbacks)},
            {"repair_splits", static_cast<double>(repair_splits)},
            {"final_colors", static_cast<double>(final_colors)},
            {"q_checkpoint_sum", q_checkpoint_sum},
            {"abs_q_error_diff_vs_scratch", abs_diff},
        };
        r.gauges = {
            {"repair_seconds", repair_seconds},
            {"apply_edits_seconds", apply_edits_seconds},
            {"scratch_seconds", scratch_seconds},
            {"repair_speedup",
             scratch_seconds / std::max(repair_seconds, 1e-12)},
        };
        return r;
      }));
}

// True when `g` differs from FromArcs over its own arc list in any field
// the mutator contract names (graph.h): arcs, both rows, the weight
// caches bit for bit, the edge count or the exact-size footprint.
bool DiffersFromRebuild(const Graph& g) {
  const Graph want = Graph::FromArcs(g.num_nodes(), g.Arcs(), g.undirected());
  const auto same_bits = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  if (!(g == want) || g.num_edges() != want.num_edges() ||
      g.MemoryBytes() != want.MemoryBytes() ||
      !same_bits(g.TotalWeight(), want.TotalWeight())) {
    return true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NeighborRange a = g.InNeighbors(v);
    const NeighborRange b = want.InNeighbors(v);
    if (!same_bits(g.OutWeight(v), want.OutWeight(v)) ||
        !same_bits(g.InWeight(v), want.InWeight(v)) || a.size() != b.size() ||
        !std::equal(a.nodes(), a.nodes() + a.size(), b.nodes()) ||
        std::memcmp(a.weights(), b.weights(), a.size() * sizeof(double)) !=
            0) {
      return true;
    }
  }
  return false;
}

void RegisterApplyBatch() {
  Scenario::Info info;
  info.name = "dynamic/apply-batch-ba-100k";
  info.group = "dynamic";
  info.description =
      "ApplyEditBatch alone over 16 batches of 32 mixed edits on "
      "servebench's directed BA-100k reference graph; gates the final "
      "arc/weight checksum and 0 mismatches against FromArcs";
  info.smoke = true;
  ScenarioRegistry::Global().Register(Scenario(
      std::move(info), [](const BenchContext& ctx) {
        constexpr int64_t kBatches = 16;
        constexpr int64_t kEditsPerBatch = 32;
        // servebench's reference graph (servebench/src/plan.cc).
        Rng rng(20220901);
        const Graph ba = BarabasiAlbert(100000, 3, rng);
        const Graph g =
            Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
        dynamic::EditStreamOptions stream;
        stream.seed = ctx.seed ^ 0xd1a2;
        stream.num_batches = kBatches;
        stream.edits_per_batch = kEditsPerBatch;
        StatusOr<std::vector<std::vector<dynamic::EditOp>>> batches =
            dynamic::GenerateEditBatches(g, stream);
        QSC_CHECK_OK(batches);

        // The measured unit: the whole stream, each batch applied to the
        // previous batch's result.
        Graph current;
        ScenarioResult r;
        r.timing = MeasureSeconds(ctx.measure, [&] {
          const Graph* base = &g;
          for (const std::vector<dynamic::EditOp>& batch : *batches) {
            StatusOr<Graph> next = dynamic::ApplyEditBatch(*base, batch);
            QSC_CHECK_OK(next);
            current = std::move(next).value();
            base = &current;
          }
        });

        // Outside the timed closure: every intermediate graph against a
        // rebuild from its own arcs.
        int64_t mismatches = 0;
        Graph replay = g;
        for (const std::vector<dynamic::EditOp>& batch : *batches) {
          StatusOr<Graph> next = dynamic::ApplyEditBatch(replay, batch);
          QSC_CHECK_OK(next);
          replay = std::move(next).value();
          if (DiffersFromRebuild(replay)) ++mismatches;
        }
        if (!(replay == current)) ++mismatches;

        r.params = {
            {"nodes", static_cast<double>(g.num_nodes())},
            {"arcs", static_cast<double>(g.num_arcs())},
            {"batches", static_cast<double>(kBatches)},
            {"edits_per_batch", static_cast<double>(kEditsPerBatch)},
        };
        r.counters = {
            {"final_arcs", static_cast<double>(current.num_arcs())},
            {"final_edges", static_cast<double>(current.num_edges())},
            {"arc_checksum", ArcChecksum(current)},
            {"fromarcs_mismatches", static_cast<double>(mismatches)},
        };
        r.gauges = {
            {"ms_per_batch", r.timing.seconds.median * 1e3 / kBatches},
        };
        return r;
      }));
}

}  // namespace

void RegisterDynamicScenarios() {
  RegisterApplyBatch();
  {
    ChurnConfig config;
    config.num_nodes = 10000;
    config.num_batches = 6;
    config.edits_per_batch = 16;
    RegisterChurn(
        "dynamic/recolor-churn-ba-10k",
        "6 batches of 16 mixed insert/delete/update edits against a live "
        "session on a 10k-node BA graph, coloring after each batch; gates "
        "the incremental-vs-scratch q-error drift at exactly 0 plus the "
        "repair/fallback counters",
        0xd1a0, config);
  }
  {
    ChurnConfig config;
    config.num_nodes = 100000;
    config.num_batches = 4;
    config.edits_per_batch = 32;
    RegisterChurn(
        "dynamic/recolor-churn-ba-100k",
        "4 batches of 32 mixed edits on a 100k-node BA graph — the "
        "full-size churn run whose gauges track how much cheaper repairing "
        "the cached coloring is than from-scratch recompute per checkpoint",
        0xd1a1, config);
  }
}

}  // namespace bench
}  // namespace qsc
