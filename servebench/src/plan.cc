#include "plan.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/graph/io.h"
#include "qsc/lp/generators.h"
#include "qsc/util/check.h"
#include "qsc/util/random.h"

namespace servebench {
namespace {

using qsc::NodeId;
using qsc::Rng;

constexpr int32_t kBaEdgesPerNode = 3;
// The graph is the one reference graph for every run; --seed drives the
// query streams, LPs and edit batches. (With a seeded graph, max_q_mean
// moved 30% between seeds: the hub degrees of a BA graph are
// heavy-tailed, and that says nothing about the code under test.)
constexpr uint64_t kGraphSeed = 20220901;
constexpr const char* kEditsHeader = "qsc-servebench-edits-v1";

// Derives independent sub-seeds from the run seed (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Index in [0, n) with probability proportional to 1 / (index + 1).
int ZipfIndex(Rng& rng, int n) {
  double total = 0.0;
  for (int k = 0; k < n; ++k) total += 1.0 / (k + 1);
  double x = rng.UniformDouble() * total;
  for (int k = 0; k < n; ++k) {
    x -= 1.0 / (k + 1);
    if (x < 0.0) return k;
  }
  return n - 1;
}

// Terminal pairs never drawn before in this run (so each is a new
// coloring spec), with source != sink.
class PairSource {
 public:
  PairSource(uint64_t seed, NodeId num_nodes)
      : rng_(seed), num_nodes_(num_nodes) {}

  std::pair<NodeId, NodeId> Fresh() {
    while (true) {
      const NodeId s = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      const NodeId t = static_cast<NodeId>(rng_.NextBounded(num_nodes_));
      if (s != t && seen_.insert({s, t}).second) return {s, t};
    }
  }

  // `count` distinct nodes, as a pin set never drawn before.
  std::vector<NodeId> FreshPins(int count) {
    while (true) {
      std::set<NodeId> pins;
      while (static_cast<int>(pins.size()) < count) {
        pins.insert(static_cast<NodeId>(rng_.NextBounded(num_nodes_)));
      }
      std::vector<NodeId> v(pins.begin(), pins.end());
      if (seen_pins_.insert(v).second) return v;
    }
  }

 private:
  Rng rng_;
  NodeId num_nodes_;
  std::set<std::pair<NodeId, NodeId>> seen_;
  std::set<std::vector<NodeId>> seen_pins_;
};

Op FlowOp(const char* cls, std::pair<NodeId, NodeId> pair, qsc::ColorId colors,
          double q_tolerance = 0.0) {
  Op op;
  op.call = Call::kMaxFlow;
  op.cls = cls;
  op.pairs = {pair};
  op.options.max_colors = colors;
  op.options.q_tolerance = q_tolerance;
  return op;
}

Op LpOp(std::shared_ptr<const qsc::LpProblem> lp, qsc::ColorId colors) {
  Op op;
  op.call = Call::kSolveLp;
  op.cls = "lp";
  op.lp = std::move(lp);
  op.options.max_colors = colors;
  return op;
}

std::string Str(int64_t v) { return std::to_string(v); }

std::string LpShape(const qsc::LpProblem& lp) {
  return Str(lp.num_rows) + "x" + Str(lp.num_cols) + ", " +
         Str(static_cast<int64_t>(lp.entries.size())) + " nonzeros";
}

// warm-serve: every query hits the cache; the time goes into the work
// done after the hit (reduced-graph build, pivot passes, LP extraction).
Plan WarmServe(uint64_t seed, const Sizes& sizes, NodeId num_nodes) {
  constexpr qsc::ColorId kFlowColors = 64;
  constexpr int kPairs = 4;
  constexpr int kLps = 2;
  // One round: 12 MaxFlow + 5 MaxFlowBatch (4 pairs each) + 6 SolveLp +
  // 1 Centrality, shuffled. Measured on the full graph (Release, 4 vCPU)
  // this gives Centrality about 40% and MaxFlow plus batches about 50%
  // of the loop time, puts the median in the middle of the MaxFlow class
  // and the tail inside the Centrality class.
  const std::vector<std::pair<Call, int>> round_mix = {
      {Call::kMaxFlow, 12},
      {Call::kMaxFlowBatch, 5},
      {Call::kSolveLp, 6},
      {Call::kCentrality, 1}};

  Plan plan;
  PairSource pairs_source(SubSeed(seed, 1), num_nodes);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < kPairs; ++i) pairs.push_back(pairs_source.Fresh());
  std::vector<std::shared_ptr<const qsc::LpProblem>> lps;
  for (int i = 0; i < kLps; ++i) {
    lps.push_back(std::make_shared<const qsc::LpProblem>(
        qsc::MakeQapLikeLp(sizes.lp_scale, SubSeed(seed, 10 + i))));
  }
  Op centrality;
  centrality.call = Call::kCentrality;
  centrality.cls = "centrality";
  centrality.options.max_colors = 16;
  centrality.options.pivots_per_color = 1;
  centrality.options.seed = SubSeed(seed, 3);

  Op warm_pairs;
  warm_pairs.call = Call::kMaxFlowBatch;
  warm_pairs.cls = "batch";
  warm_pairs.pairs = pairs;
  warm_pairs.options.max_colors = kFlowColors;
  plan.setup = {warm_pairs, centrality};
  for (const auto& lp : lps) plan.setup.push_back(LpOp(lp, 64));

  int round_size = 0;
  for (const auto& [call, count] : round_mix) round_size += count;
  plan.round_size = round_size;
  plan.tail_percentile = 98.0;  // inside the Centrality class

  auto rng = std::make_shared<Rng>(SubSeed(seed, 4));
  auto round = std::make_shared<std::vector<Call>>();
  plan.next = [=](int64_t i) -> std::optional<Op> {
    if (i % round_size == 0) {
      round->clear();
      for (const auto& [call, count] : round_mix) {
        round->insert(round->end(), count, call);
      }
      for (int k = round_size - 1; k > 0; --k) {  // Fisher-Yates
        std::swap((*round)[k], (*round)[rng->NextBounded(k + 1)]);
      }
    }
    switch ((*round)[i % round_size]) {
      case Call::kMaxFlow:
        return FlowOp("maxflow", pairs[ZipfIndex(*rng, kPairs)], kFlowColors);
      case Call::kMaxFlowBatch: {
        Op op = warm_pairs;
        for (auto& pair : op.pairs) pair = pairs[ZipfIndex(*rng, kPairs)];
        return op;
      }
      case Call::kSolveLp:
        return LpOp(lps[ZipfIndex(*rng, kLps)], 64);
      default:
        return centrality;
    }
  };

  plan.sizes = {
      {"specs", "4 terminal pairs at 64 colors, 1 centrality spec at 16 "
                "colors (1 pivot per color), 2 LPs at 64 colors"},
      {"lp", LpShape(*lps[0])},
      {"round", "12 MaxFlow, 5 MaxFlowBatch(4 pairs), 6 SolveLp, 1 "
                "Centrality; pairs and LPs Zipf(1)-weighted"},
      {"cache_budget_bytes", "0 (unlimited)"}};
  return plan;
}

// cold-compress: every query needs new compression, so nearly all the
// time goes into the coloring layer (row build plus split loop).
Plan ColdCompress(uint64_t seed, const Sizes& sizes, NodeId num_nodes) {
  Plan plan;
  plan.session.coloring_cache_byte_budget = sizes.cold_cache_budget_bytes;
  auto source = std::make_shared<PairSource>(SubSeed(seed, 1), num_nodes);
  plan.setup = {FlowOp("maxflow", source->Fresh(), 64)};

  // One round, in order. A "resume" repeats the previous op's spec at
  // twice its budget: the cached refiner continues (anytime resume).
  // Fresh MaxFlows are mostly at 32 colors (about 0.45 s each; a 64-color
  // one is about 0.85 s), so a run holds enough of them for steady
  // medians, and three of the four share one cost class, which keeps
  // maxflow_p50_ms inside it.
  plan.round_size = 8;
  plan.tail_percentile = 65.0;  // inside the fresh 32-color class
  auto previous = std::make_shared<Op>();
  const int32_t lp_scale = sizes.lp_scale;
  plan.next = [=](int64_t i) -> std::optional<Op> {
    Op op;
    switch (i % 8) {
      case 0:
      case 4:
      case 7:
        op = FlowOp("maxflow", source->Fresh(), 32);
        break;
      case 5:
        op = FlowOp("maxflow", source->Fresh(), 64);
        break;
      case 2:
        op.call = Call::kColoring;
        op.cls = "coloring";
        op.options.max_colors = 32;
        op.options.pinned = source->FreshPins(4);
        break;
      case 1:
      case 3:
        op = *previous;
        op.cls = "resume";
        op.options.max_colors *= 2;
        break;
      default: {
        const uint64_t lp_seed = SubSeed(seed, 1000 + static_cast<uint64_t>(i));
        op = LpOp(std::make_shared<const qsc::LpProblem>(
                      qsc::MakeQapLikeLp(lp_scale, lp_seed)),
                  64);
        break;
      }
    }
    *previous = op;
    return op;
  };

  plan.sizes = {
      {"specs", "every MaxFlow/Coloring/SolveLp is a never-seen spec"},
      {"lp", LpShape(qsc::MakeQapLikeLp(sizes.lp_scale, SubSeed(seed, 1000)))},
      {"round", "MaxFlow@32, resume@64, Coloring@32 (4 fresh pins), "
                "resume@64, MaxFlow@32, MaxFlow@64, SolveLp@64 (fresh LP), "
                "MaxFlow@32"},
      {"cache_budget_bytes", Str(sizes.cold_cache_budget_bytes)}};
  return plan;
}

// edit-churn: writes mixed with reads; ApplyEdits and the repair of the
// cached colorings dominate.
Plan EditChurn(uint64_t seed, const Sizes& sizes, NodeId num_nodes,
               const EditBatches* edits) {
  QSC_CHECK(edits != nullptr && !edits->empty());
  Plan plan;
  PairSource source(SubSeed(seed, 1), num_nodes);
  std::vector<Op> queries;
  Op tolerant;
  tolerant.call = Call::kMaxFlowBatch;
  tolerant.cls = "batch";
  tolerant.options.max_colors = 128;
  tolerant.options.q_tolerance = 16.0;
  for (int i = 0; i < 4; ++i) {
    tolerant.pairs.push_back(source.Fresh());
    queries.push_back(FlowOp("maxflow", tolerant.pairs.back(), 128, 16.0));
  }
  queries.push_back(FlowOp("maxflow", source.Fresh(), 32));

  Op first_batch;
  first_batch.call = Call::kApplyEdits;
  first_batch.cls = "edit";
  first_batch.edits = &(*edits)[0];
  // The first batch also pays the session's one-time copy-on-write
  // materialization, so it belongs to set-up.
  plan.setup = {tolerant, queries.back(), first_batch};

  plan.round_size = 1 + static_cast<int64_t>(queries.size());
  plan.tail_percentile = 75.0;  // inside the zero-tolerance recolor class
  const int64_t round_size = plan.round_size;
  plan.next = [=](int64_t i) -> std::optional<Op> {
    const int64_t cycle = i / round_size;
    const int64_t k = i % round_size;
    if (k > 0) return queries[k - 1];
    if (cycle + 1 >= static_cast<int64_t>(edits->size())) return std::nullopt;
    Op op = first_batch;
    op.edits = &(*edits)[cycle + 1];
    return op;
  };

  plan.sizes = {
      {"specs", "4 MaxFlow specs at 128 colors with q_tolerance 16, 1 "
                "zero-tolerance MaxFlow spec at 32 colors"},
      {"edits_per_batch", Str(sizes.edits_per_batch)},
      {"edit_batches_generated", Str(static_cast<int64_t>(edits->size()))},
      {"round", "ApplyEdits(1 batch), then MaxFlow on each of the 5 specs"},
      {"cache_budget_bytes", "0 (unlimited)"}};
  return plan;
}

}  // namespace

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kWarmServe, Workload::kColdCompress,
                     Workload::kEditChurn}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kWarmServe:
      return "warm-serve";
    case Workload::kColdCompress:
      return "cold-compress";
    case Workload::kEditChurn:
      return "edit-churn";
  }
  return "?";
}

Sizes SizesFor(bool tiny) {
  Sizes sizes;
  sizes.nodes = tiny ? 2000 : 100000;
  sizes.lp_scale = tiny ? 4 : 12;
  sizes.edits_per_batch = tiny ? 8 : 32;
  // One 64-color MaxFlow entry is about 21 MiB on the full graph and
  // 0.4 MiB on the tiny one.
  sizes.cold_cache_budget_bytes = tiny ? (2ll << 20) : (88ll << 20);
  return sizes;
}

std::string GraphPath(const std::string& dir) { return dir + "/graph.qscbin"; }
std::string EditsPath(const std::string& dir) { return dir + "/edits.txt"; }

qsc::Status WriteInputs(Workload workload, uint64_t seed, const Sizes& sizes,
                        int64_t num_batches, const std::string& dir) {
  Rng rng(kGraphSeed);
  const qsc::Graph ba = qsc::BarabasiAlbert(sizes.nodes, kBaEdgesPerNode, rng);
  const qsc::Graph g =
      qsc::Graph::FromArcs(ba.num_nodes(), ba.Arcs(), /*undirected=*/false);
  QSC_RETURN_IF_ERROR(qsc::WriteBinary(g, GraphPath(dir)));
  if (workload != Workload::kEditChurn) return qsc::Status::Ok();

  qsc::dynamic::EditStreamOptions stream;
  stream.seed = SubSeed(seed, 5);
  stream.num_batches = num_batches;
  stream.edits_per_batch = sizes.edits_per_batch;
  qsc::StatusOr<EditBatches> batches =
      qsc::dynamic::GenerateEditBatches(g, stream);
  if (!batches.ok()) return batches.status();
  std::ofstream out(EditsPath(dir));
  out << kEditsHeader << " " << batches->size() << " "
      << sizes.edits_per_batch << "\n";
  char line[128];
  for (const auto& batch : *batches) {
    for (const qsc::dynamic::EditOp& e : batch) {
      std::snprintf(line, sizeof(line), "%d %d %d %.17g\n",
                    static_cast<int>(e.kind), e.src, e.dst, e.weight);
      out << line;
    }
  }
  out.close();
  if (!out) return qsc::Status::Internal("cannot write " + EditsPath(dir));
  return qsc::Status::Ok();
}

qsc::StatusOr<EditBatches> ReadEdits(const std::string& path) {
  std::ifstream in(path);
  std::string header;
  int64_t num_batches = 0;
  int64_t per_batch = 0;
  if (!(in >> header >> num_batches >> per_batch) || header != kEditsHeader ||
      num_batches < 1 || per_batch < 1) {
    return qsc::Status::InvalidArgument("malformed edits file " + path);
  }
  EditBatches batches(num_batches);
  for (auto& batch : batches) {
    for (int64_t i = 0; i < per_batch; ++i) {
      int kind = 0;
      qsc::dynamic::EditOp e;
      if (!(in >> kind >> e.src >> e.dst >> e.weight) || kind < 0 ||
          kind >= qsc::dynamic::kNumEditKinds) {
        return qsc::Status::InvalidArgument("malformed edit in " + path);
      }
      e.kind = static_cast<qsc::dynamic::EditKind>(kind);
      batch.push_back(e);
    }
  }
  return batches;
}

Plan MakePlan(Workload workload, uint64_t seed, const Sizes& sizes,
              NodeId num_nodes, const EditBatches* edits) {
  Plan plan;
  switch (workload) {
    case Workload::kWarmServe:
      plan = WarmServe(seed, sizes, num_nodes);
      break;
    case Workload::kColdCompress:
      plan = ColdCompress(seed, sizes, num_nodes);
      break;
    case Workload::kEditChurn:
      plan = EditChurn(seed, sizes, num_nodes, edits);
      break;
  }
  plan.sizes.insert(plan.sizes.begin(),
                    {{"graph", "directed Barabasi-Albert (3 edges per node)"},
                     {"nodes", Str(num_nodes)}});
  return plan;
}

}  // namespace servebench
