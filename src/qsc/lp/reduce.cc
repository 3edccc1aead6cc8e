#include "qsc/lp/reduce.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "qsc/coloring/color_pair_sums.h"
#include "qsc/graph/graph.h"
#include "qsc/util/timer.h"

namespace qsc {
namespace {

// Node layout of the matrix graph (see BuildMatrixGraph): rows 0..m-1,
// the objective row m, columns m+1..m+n, the rhs column m+n+1.
NodeId ObjectiveRow(const LpProblem& lp) { return lp.num_rows; }
NodeId ColumnBase(const LpProblem& lp) { return lp.num_rows + 1; }
NodeId RhsColumn(const LpProblem& lp) {
  return lp.num_rows + 1 + lp.num_cols;
}

}  // namespace

Graph BuildMatrixGraph(const LpProblem& lp) {
  const int32_t m = lp.num_rows;
  const int32_t n = lp.num_cols;
  const NodeId obj_row = ObjectiveRow(lp);
  const NodeId col_base = ColumnBase(lp);
  const NodeId rhs_col = RhsColumn(lp);
  std::vector<EdgeTriple> arcs;
  arcs.reserve(lp.entries.size() + m + n);
  for (const LpEntry& e : lp.entries) {
    arcs.push_back({e.row, col_base + e.col, e.value});
  }
  for (int32_t i = 0; i < m; ++i) {
    if (lp.b[i] != 0.0) arcs.push_back({i, rhs_col, lp.b[i]});
  }
  for (int32_t j = 0; j < n; ++j) {
    if (lp.c[j] != 0.0) arcs.push_back({obj_row, col_base + j, lp.c[j]});
  }
  return Graph::FromEdges(rhs_col + 1, arcs, /*undirected=*/false);
}

Partition MatrixGraphSeed(const LpProblem& lp) {
  // {rows}, {objective row}, {columns}, {rhs column}.
  std::vector<int32_t> labels(RhsColumn(lp) + 1, 2);
  std::fill(labels.begin(), labels.begin() + lp.num_rows, 0);
  labels[ObjectiveRow(lp)] = 1;
  labels[RhsColumn(lp)] = 3;
  return Partition::FromColorIds(labels);
}

ReducedLp ExtractReducedLp(const LpProblem& lp, const Partition& p,
                           LpReduction variant) {
  const int32_t m = lp.num_rows;
  const int32_t n = lp.num_cols;
  ReducedLp out;
  out.variant = variant;

  // Densify color ids separately for rows and columns, excluding the
  // pinned objective/rhs singletons.
  const ColorId obj_color = p.ColorOf(ObjectiveRow(lp));
  const ColorId rhs_color = p.ColorOf(RhsColumn(lp));
  std::vector<int32_t> row_id(p.num_colors(), -1);
  std::vector<int32_t> col_id(p.num_colors(), -1);
  int32_t k = 0, l = 0;
  out.row_color.resize(m);
  out.col_color.resize(n);
  for (int32_t i = 0; i < m; ++i) {
    const ColorId c = p.ColorOf(i);
    QSC_CHECK_NE(c, obj_color);
    QSC_CHECK_NE(c, rhs_color);
    if (row_id[c] < 0) row_id[c] = k++;
    out.row_color[i] = row_id[c];
  }
  for (int32_t j = 0; j < n; ++j) {
    const ColorId c = p.ColorOf(ColumnBase(lp) + j);
    QSC_CHECK_NE(c, obj_color);
    QSC_CHECK_NE(c, rhs_color);
    if (col_id[c] < 0) col_id[c] = l++;
    out.col_color[j] = col_id[c];
  }
  out.row_color_size.assign(k, 0);
  out.col_color_size.assign(l, 0);
  for (int32_t i = 0; i < m; ++i) ++out.row_color_size[out.row_color[i]];
  for (int32_t j = 0; j < n; ++j) ++out.col_color_size[out.col_color[j]];

  // Block sums A(P_r, Q_s), b(P_r), c(Q_s).
  std::vector<double> b_sum(k, 0.0), c_sum(l, 0.0);
  for (int32_t i = 0; i < m; ++i) b_sum[out.row_color[i]] += lp.b[i];
  for (int32_t j = 0; j < n; ++j) c_sum[out.col_color[j]] += lp.c[j];

  out.lp.num_rows = k;
  out.lp.num_cols = l;
  const int64_t nnz = static_cast<int64_t>(lp.entries.size());
  SumColorPairs(
      nnz, k, l, nnz,
      [&](int64_t e) { return out.row_color[lp.entries[e].row]; },
      [&](int64_t e, auto add) {
        add(out.col_color[lp.entries[e].col], lp.entries[e].value);
      },
      [&](int32_t r, int32_t s, double sum) {
        const double pr = static_cast<double>(out.row_color_size[r]);
        const double qs = static_cast<double>(out.col_color_size[s]);
        const double value = variant == LpReduction::kSqrtNormalized
                                 ? sum / std::sqrt(pr * qs)
                                 : sum / qs;
        if (value != 0.0) out.lp.entries.push_back({r, s, value});
      });
  out.lp.b.resize(k);
  out.lp.c.resize(l);
  for (int32_t r = 0; r < k; ++r) {
    const double pr = static_cast<double>(out.row_color_size[r]);
    out.lp.b[r] = variant == LpReduction::kSqrtNormalized
                      ? b_sum[r] / std::sqrt(pr)
                      : b_sum[r];
  }
  for (int32_t s = 0; s < l; ++s) {
    const double qs = static_cast<double>(out.col_color_size[s]);
    out.lp.c[s] = variant == LpReduction::kSqrtNormalized
                      ? c_sum[s] / std::sqrt(qs)
                      : c_sum[s] / qs;
  }
  CanonicalizeLp(out.lp);
  return out;
}

LpColoringRefiner::LpColoringRefiner(const LpProblem& lp,
                                     const LpReduceOptions& options)
    : lp_(&lp), variant_(options.variant) {
  // Before the matrix graph: building it indexes b, c and the entries.
  QSC_CHECK_OK(ValidateLp(lp));
  matrix_graph_ = BuildMatrixGraph(lp);
  // CanonicalBackendName aborts on malformed names and Create on
  // unregistered ones; Compressor::SolveLp validates at the API boundary.
  refiner_ = ColoringBackendRegistry::Global().Create(
      CanonicalBackendName(options.backend).value(), matrix_graph_,
      MatrixGraphSeed(lp), static_cast<const ColoringParams&>(options));
}

ReducedLp LpColoringRefiner::ReduceTo(ColorId max_colors) {
  QSC_CHECK_GE(max_colors, 4);
  WallTimer timer;
  while (refiner_->partition().num_colors() < max_colors) {
    if (!refiner_->Step(max_colors)) break;
  }
  coloring_seconds_ += timer.ElapsedSeconds();
  ReducedLp out = ExtractReducedLp(*lp_, refiner_->partition(), variant_);
  out.max_q = refiner_->CurrentMaxError();
  out.coloring_seconds = coloring_seconds_;
  return out;
}

ReducedLp ReduceLp(const LpProblem& lp, const LpReduceOptions& options) {
  QSC_CHECK_OK(ValidateLp(lp));
  QSC_CHECK_GE(options.max_colors, 4);
  LpColoringRefiner refiner(lp, options);
  return refiner.ReduceTo(options.max_colors);
}

std::vector<double> LiftSolution(const ReducedLp& reduced,
                                 const std::vector<double>& reduced_x) {
  QSC_CHECK_EQ(static_cast<int32_t>(reduced_x.size()), reduced.lp.num_cols);
  std::vector<double> x(reduced.col_color.size());
  for (size_t j = 0; j < x.size(); ++j) {
    const int32_t s = reduced.col_color[j];
    const double qs = static_cast<double>(reduced.col_color_size[s]);
    x[j] = reduced.variant == LpReduction::kSqrtNormalized
               ? reduced_x[s] / std::sqrt(qs)
               : reduced_x[s] / qs;
  }
  return x;
}

}  // namespace qsc
