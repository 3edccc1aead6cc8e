#include "qsc/api/compressor.h"

#include <algorithm>
#include <cmath>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "qsc/api/hashing.h"
#include "qsc/centrality/color_pivot.h"
#include "qsc/coloring/reduced_graph.h"
#include "qsc/flow/push_relabel.h"
#include "qsc/flow/uniform_flow.h"
#include "qsc/graph/graph_store.h"
#include "qsc/parallel/parallel_for.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

std::string NodeStr(NodeId v) { return std::to_string(v); }

// Shared option checks (satellite of the api_redesign issue: these used to
// abort via QSC_CHECK or silently index out of range).
Status ValidateCommonOptions(const QueryOptions& options) {
  if (options.max_colors <= 0) {
    return Status::InvalidArgument(
        "max_colors must be positive; got " +
        std::to_string(options.max_colors));
  }
  if (!std::isfinite(options.q_tolerance) || options.q_tolerance < 0.0) {
    return Status::InvalidArgument("q_tolerance must be finite and >= 0; got " +
                                   std::to_string(options.q_tolerance));
  }
  if (options.alpha.has_value() && !std::isfinite(*options.alpha)) {
    return Status::InvalidArgument("alpha must be finite; got " +
                                   std::to_string(*options.alpha));
  }
  if (options.beta.has_value() && !std::isfinite(*options.beta)) {
    return Status::InvalidArgument("beta must be finite; got " +
                                   std::to_string(*options.beta));
  }
  return Status::Ok();
}

// The backend half of the boundary contract (docs/API.md "Backends"):
// canonicalize, then check registration. Malformed names are
// InvalidArgument (the request can never be valid); well-formed names
// nobody registered are NotFound (the request might be valid against a
// process with that backend linked in).
StatusOr<std::string> ValidateBackend(const std::string& name) {
  StatusOr<std::string> canonical = CanonicalBackendName(name);
  if (!canonical.ok()) return canonical.status();
  const ColoringBackendRegistry& registry = ColoringBackendRegistry::Global();
  if (!registry.Contains(*canonical)) {
    std::string registered;
    for (const std::string& n : registry.Names()) {
      registered += registered.empty() ? n : ", " + n;
    }
    return Status::NotFound("unknown coloring backend \"" + *canonical +
                            "\"; registered: " + registered);
  }
  return canonical;
}

// One left-to-right pass, linear in the pin count: the first bad pin is
// reported, whether out of range or a repeat.
Status ValidatePins(const std::vector<NodeId>& pinned, NodeId num_nodes) {
  if (pinned.empty()) return Status::Ok();
  std::vector<char> seen(num_nodes, 0);
  for (const NodeId v : pinned) {
    if (v < 0 || v >= num_nodes) {
      return Status::InvalidArgument("pinned node id " + NodeStr(v) +
                                     " out of range [0, " +
                                     NodeStr(num_nodes) + ")");
    }
    if (seen[v]) {
      return Status::InvalidArgument("duplicate pinned node id " +
                                     NodeStr(v));
    }
    seen[v] = 1;
  }
  return Status::Ok();
}

// Builds the cache key from options, filling unset witness exponents with
// the area defaults (paper Sec 5.2). `backend` must already be canonical
// (the ValidateBackend result).
ColoringSpec SpecFor(const QueryOptions& options, double default_alpha,
                     double default_beta, std::vector<NodeId> pinned,
                     std::string backend) {
  ColoringSpec spec;
  spec.alpha = options.alpha.value_or(default_alpha);
  spec.beta = options.beta.value_or(default_beta);
  spec.q_tolerance = options.q_tolerance;
  spec.split_mean = options.split_mean;
  spec.backend = std::move(backend);
  spec.pinned = std::move(pinned);
  return spec;
}

// The derived artifacts the session memoizes on served snapshots
// (ColoringCache::DerivedKey::kind; the key's a/b are noted per kind).
enum DerivedKind : int32_t {
  kFlowUpper = 1,    // FlowGraphs without `lower`
  kFlowBounds = 2,   // FlowGraphs with `lower`; a = uniform_flow_tol bits
  kPivotScores = 3,  // centrality scores; a = pivots_per_color, b = seed
  kReducedLp = 4,    // ReducedLp; a = lp_variant
};

// The reduced graphs MaxFlow solves (Theorem 6): the c^2 graph with
// summed capacities, and, for a lower-bound request, the c^1 graph.
struct FlowGraphs {
  Graph upper;
  Graph lower;
};

template <typename T>
ColoringCache::Derived MakeDerived(T value, int64_t bytes) {
  return {std::make_shared<const T>(std::move(value)),
          static_cast<int64_t>(sizeof(T)) + bytes};
}

ColoringCache::Derived BuildFlowGraphs(const GraphView& g, const Partition& p,
                                       bool with_lower, double tol) {
  FlowGraphs graphs;
  graphs.upper = BuildReducedGraph(g, p, ReducedWeight::kSum);
  if (with_lower) {
    // c^1(i, j) = maxUFlow(P_i, P_j): the largest flow shippable between
    // the two colors with uniform per-node rates (Theorem 6).
    std::vector<EdgeTriple> arcs;
    for (const EdgeTriple& a : graphs.upper.Arcs()) {
      if (a.src == a.dst) continue;
      const double c1 =
          MaxUniformFlow(g, p.Members(a.src), p.Members(a.dst), tol);
      if (c1 > 0.0) {
        arcs.push_back({a.src, a.dst, c1});
      }
    }
    graphs.lower = Graph::FromEdges(p.num_colors(), arcs, /*undirected=*/false);
  }
  const int64_t bytes = graphs.upper.MemoryBytes() + graphs.lower.MemoryBytes();
  return MakeDerived(std::move(graphs), bytes);
}

ColoringCache::Derived BuildReducedLp(const LpProblem& lp, const Partition& p,
                                      LpReduction variant) {
  ReducedLp reduced = ExtractReducedLp(lp, p, variant);
  const int64_t bytes = static_cast<int64_t>(
      reduced.lp.entries.capacity() * sizeof(LpEntry) +
      (reduced.lp.b.capacity() + reduced.lp.c.capacity()) * sizeof(double) +
      (reduced.row_color.capacity() + reduced.col_color.capacity()) *
          sizeof(int32_t) +
      (reduced.row_color_size.capacity() + reduced.col_color_size.capacity()) *
          sizeof(int64_t));
  return MakeDerived(std::move(reduced), bytes);
}

template <typename T>
const T& DerivedAs(const ColoringCache::Handle& handle) {
  return *static_cast<const T*>(handle.derived.get());
}

}  // namespace

class Compressor::Impl {
 public:
  // `graph` is owning, mapped (Compressor::FromFile: queries run over a
  // view of the mapped payload until graph() or ApplyEdits materializes
  // it), or empty (an LP-only session).
  Impl(GraphStore graph, ThreadPool* pool, const CompressorOptions& options)
      : graph_(std::move(graph)),
        pool_(pool),
        cache_(graph_, pool_,
               ColoringCacheOptions{options.coloring_cache_byte_budget}) {}

  bool has_graph() const { return !graph_.empty(); }

  // A mapped store materializes once, thread-safely; queries keep serving
  // from its view, so this changes footprint, never results.
  const Graph& graph() const {
    const std::shared_lock<std::shared_mutex> lock(session_mutex_);
    return graph_.graph();
  }

  // FailedPrecondition (not InvalidArgument): the request may be fine, but
  // this session cannot serve graph queries.
  Status RequireGraph() const {
    if (graph_.empty()) {
      return Status::FailedPrecondition(
          "graph query on an LP-only session (no graph)");
    }
    if (graph_.view().num_nodes() == 0) {
      return Status::FailedPrecondition("session graph is empty");
    }
    return Status::Ok();
  }

  StatusOr<ColoringResult> Coloring(const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(
        ValidatePins(options.pinned, graph_.view().num_nodes()));
    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();

    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/0.0, /*default_beta=*/0.0,
                options.pinned, *std::move(backend));
    const ColoringCache::Handle handle =
        cache_.Refine(spec, options.max_colors);
    ColoringResult result;
    result.coloring = handle.partition;
    result.max_q = handle.max_error;
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;
    return result;
  }

  StatusOr<FlowQueryResult> MaxFlow(NodeId source, NodeId sink,
                                    const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateFlowQuery(source, sink, options));
    return MaxFlowUnchecked(source, sink, options);
  }

  StatusOr<std::vector<FlowQueryResult>> MaxFlowBatch(
      const std::vector<std::pair<NodeId, NodeId>>& st_pairs,
      const QueryOptions& options) {
    // The batch holds the session reader lock for its whole fan-out;
    // MaxFlowUnchecked runs on pool workers, whose tasks the pool
    // synchronizes with this thread, so the lock covers them too.
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    // Fail fast: validate every pair before serving any query, so a batch
    // either runs whole or not at all.
    for (const auto& [source, sink] : st_pairs) {
      QSC_RETURN_IF_ERROR(ValidateFlowQuery(source, sink, options));
    }
    // Fan the pairs out over the session pool (sequential when there is
    // none): each pair writes only its own slot and the coloring cache is
    // concurrency-safe, so the results match the sequential loop bit for
    // bit — distinct terminal pairs color concurrently, repeated pairs
    // queue on their shared spec and hit its cache.
    std::vector<FlowQueryResult> results(st_pairs.size());
    ParallelFor(pool_, static_cast<int64_t>(st_pairs.size()), /*grain=*/1,
                [&](int64_t i) {
                  StatusOr<FlowQueryResult> result = MaxFlowUnchecked(
                      st_pairs[i].first, st_pairs[i].second, options);
                  // Validated above; failures are internal bugs.
                  QSC_CHECK_OK(result);
                  results[i] = std::move(result).value();
                });
    return results;
  }

  StatusOr<LpQueryResult> SolveLp(const LpProblem& lp,
                                  const QueryOptions& options) {
    // LP colorings key on LP content, not the session graph, so edits
    // never invalidate them; the reader lock is only for the version
    // stamp and the uniform queries-concurrent/edits-exclusive contract.
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(ValidateLp(lp));
    if (options.max_colors < 4) {
      return Status::InvalidArgument(
          "SolveLp needs max_colors >= 4 (the two pinned singletons plus at "
          "least one row and one column color); got " +
          std::to_string(options.max_colors));
    }
    if (!options.pinned.empty()) {
      return Status::InvalidArgument(
          "SolveLp pins the objective row and rhs column internally; "
          "explicit pins are not supported");
    }
    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();

    ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/1.0, /*default_beta=*/0.0,
                /*pinned=*/{}, *std::move(backend));
    // Lent for the lookup: the cache copies the LP only when it inserts.
    spec.lp = std::shared_ptr<const LpProblem>(
        std::shared_ptr<const LpProblem>(), &lp);
    spec.lp_fingerprint = FingerprintLp(lp);
    const ColoringCache::DerivedRequest request{
        {kReducedLp, static_cast<uint64_t>(options.lp_variant)},
        [&](const Partition& p) {
          return BuildReducedLp(lp, p, options.lp_variant);
        }};
    const ColoringCache::Handle handle =
        cache_.Refine(spec, options.max_colors, &request);

    LpQueryResult result;
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;
    WallTimer timer;
    result.reduced = DerivedAs<ReducedLp>(handle);
    result.reduced.max_q = handle.max_error;
    result.reduced.coloring_seconds = handle.seconds;
    result.solution = SolveSimplex(result.reduced.lp);
    if (result.solution.status == LpStatus::kOptimal) {
      result.lifted_x = LiftSolution(result.reduced, result.solution.x);
    }
    result.telemetry.solve_seconds += timer.ElapsedSeconds();
    return result;
  }

  StatusOr<CentralityQueryResult> Centrality(const QueryOptions& options) {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    QSC_RETURN_IF_ERROR(
        ValidatePins(options.pinned, graph_.view().num_nodes()));
    if (options.pivots_per_color < 1) {
      return Status::InvalidArgument(
          "pivots_per_color must be >= 1; got " +
          std::to_string(options.pivots_per_color));
    }

    StatusOr<std::string> backend = ValidateBackend(options.backend);
    if (!backend.ok()) return backend.status();
    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/1.0, /*default_beta=*/1.0,
                options.pinned, *std::move(backend));
    const ColoringCache::DerivedRequest request{
        {kPivotScores, static_cast<uint64_t>(options.pivots_per_color),
         options.seed},
        [&](const Partition& p) {
          std::vector<double> scores = ColorPivotScores(
              graph_.view(), p, options.pivots_per_color, options.seed,
              pool_);
          const auto bytes =
              static_cast<int64_t>(scores.capacity() * sizeof(double));
          return MakeDerived(std::move(scores), bytes);
        }};
    const ColoringCache::Handle handle =
        cache_.Refine(spec, options.max_colors, &request);

    CentralityQueryResult result;
    result.coloring = handle.partition;
    result.num_colors = handle.partition->num_colors();
    result.max_q = handle.max_error;
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;
    WallTimer timer;
    result.scores = DerivedAs<std::vector<double>>(handle);
    result.telemetry.solve_seconds += timer.ElapsedSeconds();
    return result;
  }

  StatusOr<EditApplyResult> ApplyEdits(const std::vector<dynamic::EditOp>& edits,
                                       const EditApplyOptions& options) {
    if (options.max_repair_splits < 0) {
      return Status::InvalidArgument(
          "max_repair_splits must be >= 0; got " +
          std::to_string(options.max_repair_splits));
    }
    if (edits.empty()) {
      return Status::InvalidArgument("empty edit batch");
    }
    WallTimer timer;
    // Writer lock: no query is mid-flight while the graph version
    // changes, so a query's coloring and solve always agree on one graph.
    const std::unique_lock<std::shared_mutex> session_lock(session_mutex_);
    QSC_RETURN_IF_ERROR(RequireGraph());
    // Copy-on-write for mapped sessions: graph() materializes the mapping
    // once (bit-identical to it; the qsc-bin round-trip contract). A
    // failed batch leaves the session serving the unchanged store.
    StatusOr<Graph> mutated = dynamic::ApplyEditBatch(graph_.graph(), edits);
    if (!mutated.ok()) return mutated.status();
    GraphStore next(std::make_shared<const Graph>(std::move(mutated).value()));

    dynamic::RepairOptions repair;
    repair.max_repair_splits = options.max_repair_splits;
    const ColoringCache::EditApplyStats repaired =
        cache_.ApplyGraph(next, edits, repair);
    graph_ = std::move(next);  // releases the old graph and any mapping
    ++graph_version_;

    EditApplyResult result;
    result.edits_applied = static_cast<int64_t>(edits.size());
    result.repairs = repaired.repairs;
    result.fallbacks = repaired.fallbacks;
    result.repair_splits = repaired.repair_splits;
    result.graph_version = graph_version_;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }

  int64_t graph_version() const {
    const std::shared_lock<std::shared_mutex> session_lock(session_mutex_);
    return graph_version_;
  }

  CompressorStats stats() const {
    CompressorStats snapshot;
    snapshot.coloring = cache_.stats();
    snapshot.lp_lookups = snapshot.coloring.lp.lookups;
    snapshot.lp_hits = snapshot.coloring.lp.hits;
    snapshot.lp_misses = snapshot.coloring.lp.misses;
    snapshot.lp_recolorings = snapshot.coloring.lp.recolorings;
    return snapshot;
  }

 private:
  static QueryTelemetry TelemetryFor(const ColoringCache::Handle& handle) {
    QueryTelemetry t;
    t.coloring_cache_hit = handle.cache_hit;
    t.coloring_splits = handle.splits;
    t.coloring_seconds = handle.seconds;
    // Building a derived artifact is solve work; the rest of the solve
    // is added by the caller.
    t.solve_seconds = handle.derived_seconds;
    return t;
  }

  Status ValidateFlowQuery(NodeId source, NodeId sink,
                           const QueryOptions& options) const {
    QSC_RETURN_IF_ERROR(ValidateCommonOptions(options));
    {
      const StatusOr<std::string> backend = ValidateBackend(options.backend);
      if (!backend.ok()) return backend.status();
    }
    const NodeId n = graph_.view().num_nodes();
    if (source < 0 || source >= n) {
      return Status::InvalidArgument("source node id " + NodeStr(source) +
                                     " out of range [0, " + NodeStr(n) + ")");
    }
    if (sink < 0 || sink >= n) {
      return Status::InvalidArgument("sink node id " + NodeStr(sink) +
                                     " out of range [0, " + NodeStr(n) + ")");
    }
    if (source == sink) {
      return Status::InvalidArgument(
          "source and sink must differ; both are " + NodeStr(source));
    }
    if (graph_.view().undirected()) {
      return Status::InvalidArgument(
          "MaxFlow requires a directed session graph (capacities are "
          "per-arc)");
    }
    if (!options.pinned.empty()) {
      return Status::InvalidArgument(
          "MaxFlow pins its terminals itself; explicit pins are not "
          "supported");
    }
    if (!std::isfinite(options.uniform_flow_tol) ||
        options.uniform_flow_tol <= 0.0) {
      return Status::InvalidArgument(
          "uniform_flow_tol must be finite and positive; got " +
          std::to_string(options.uniform_flow_tol));
    }
    return Status::Ok();
  }

  // The Theorem-6 pipeline of ApproximateMaxFlow, with the coloring and
  // its reduced graphs served from the session cache. Inputs already
  // validated.
  StatusOr<FlowQueryResult> MaxFlowUnchecked(NodeId source, NodeId sink,
                                             const QueryOptions& options) {
    const ColoringSpec spec =
        SpecFor(options, /*default_alpha=*/0.0, /*default_beta=*/0.0,
                {source, sink},
                // Validated by ValidateFlowQuery; .value() cannot abort.
                CanonicalBackendName(options.backend).value());
    const bool with_lower = options.compute_lower_bound;
    const ColoringCache::DerivedRequest request{
        with_lower ? ColoringCache::DerivedKey{kFlowBounds,
                                               api_internal::DoubleBits(
                                                   options.uniform_flow_tol)}
                   : ColoringCache::DerivedKey{kFlowUpper},
        [&](const Partition& p) {
          return BuildFlowGraphs(graph_.view(), p, with_lower,
                                 options.uniform_flow_tol);
        }};
    const ColoringCache::Handle handle =
        cache_.Refine(spec, options.max_colors, &request);
    const Partition& p = *handle.partition;
    const FlowGraphs& graphs = DerivedAs<FlowGraphs>(handle);

    FlowQueryResult result;
    result.coloring = handle.partition;
    result.num_colors = p.num_colors();
    result.max_q = handle.max_error;
    result.telemetry = TelemetryFor(handle);
    result.telemetry.graph_version = graph_version_;

    WallTimer timer;
    const ColorId source_color = p.ColorOf(source);
    const ColorId sink_color = p.ColorOf(sink);
    result.upper_bound =
        MaxFlowPushRelabel(graphs.upper, source_color, sink_color);
    if (with_lower) {
      result.lower_bound =
          MaxFlowPushRelabel(graphs.lower, source_color, sink_color);
    }
    result.telemetry.solve_seconds += timer.ElapsedSeconds();
    return result;
  }

  // Queries hold this shared for their whole duration; ApplyEdits holds
  // it unique while it swaps graph_, repairs the cache, and bumps
  // graph_version_ (both guarded by it).
  mutable std::shared_mutex session_mutex_;
  GraphStore graph_;
  int64_t graph_version_ = 0;
  ThreadPool* pool_;
  // Every coloring the session serves, graph and LP alike.
  ColoringCache cache_;
};

Compressor::Compressor() : impl_(new Impl(GraphStore(), nullptr, {})) {}

Compressor::Compressor(Graph graph, ThreadPool* pool,
                       const CompressorOptions& options)
    : impl_(new Impl(std::make_shared<const Graph>(std::move(graph)), pool,
                     options)) {}

Compressor::Compressor(std::shared_ptr<const Graph> graph, ThreadPool* pool,
                       const CompressorOptions& options)
    : impl_(new Impl(std::move(graph), pool, options)) {}

StatusOr<Compressor> Compressor::FromFile(const std::string& path,
                                          ThreadPool* pool,
                                          const CompressorOptions& options) {
  StatusOr<GraphStore> mapped = GraphStore::Map(path);
  if (!mapped.ok()) return mapped.status();
  Compressor session;
  session.impl_ =
      std::make_unique<Impl>(std::move(mapped).value(), pool, options);
  return session;
}

Compressor::~Compressor() = default;
Compressor::Compressor(Compressor&&) noexcept = default;
Compressor& Compressor::operator=(Compressor&&) noexcept = default;

bool Compressor::has_graph() const { return impl_->has_graph(); }
const Graph& Compressor::graph() const { return impl_->graph(); }

StatusOr<ColoringResult> Compressor::Coloring(const QueryOptions& options) {
  return impl_->Coloring(options);
}

StatusOr<FlowQueryResult> Compressor::MaxFlow(NodeId source, NodeId sink,
                                              const QueryOptions& options) {
  return impl_->MaxFlow(source, sink, options);
}

StatusOr<std::vector<FlowQueryResult>> Compressor::MaxFlowBatch(
    const std::vector<std::pair<NodeId, NodeId>>& st_pairs,
    const QueryOptions& options) {
  return impl_->MaxFlowBatch(st_pairs, options);
}

StatusOr<LpQueryResult> Compressor::SolveLp(const LpProblem& lp,
                                            const QueryOptions& options) {
  return impl_->SolveLp(lp, options);
}

StatusOr<CentralityQueryResult> Compressor::Centrality(
    const QueryOptions& options) {
  return impl_->Centrality(options);
}

StatusOr<EditApplyResult> Compressor::ApplyEdits(
    const std::vector<dynamic::EditOp>& edits, const EditApplyOptions& options) {
  return impl_->ApplyEdits(edits, options);
}

int64_t Compressor::graph_version() const { return impl_->graph_version(); }

CompressorStats Compressor::stats() const { return impl_->stats(); }

}  // namespace qsc
