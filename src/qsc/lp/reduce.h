// LP dimensionality reduction via quasi-stable coloring (paper Sec 4.1).
//
// The LP is encoded as the weighted bipartite graph of its extended matrix
//   A_ext = [ A  b ]
//           [ c^T . ]
// whose rows and columns are colored by Rothko with two constraints: row
// and column nodes never share a color, and the objective row / rhs column
// are pinned to singleton colors. The reduced LP follows Eq. (6)
// (sqrt-normalized) or the Grohe et al. [16] variant; Theorem 2 bounds
// |OPT - OPT_reduced| by q * Delta.

#ifndef QSC_LP_REDUCE_H_
#define QSC_LP_REDUCE_H_

#include <memory>
#include <string>
#include <vector>

#include "qsc/coloring/backend.h"
#include "qsc/coloring/params.h"
#include "qsc/coloring/partition.h"
#include "qsc/coloring/rothko.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {

enum class LpReduction {
  kSqrtNormalized,  // Eq. (6): A^(r,s) = A(P_r,Q_s)/sqrt(|P_r||Q_s|)
  kGrohe,           // [16]:    A^(r,s) = A(P_r,Q_s)/|Q_s|, b^ = b(P_r)
};

// The shared coloring knobs (alpha, beta, q_tolerance, split_mean, pool)
// come from ColoringParams; the constructor flips alpha to the paper's LP
// default (alpha=1, beta=0). The pool never changes the reduction.
struct LpReduceOptions : ColoringParams {
  LpReduceOptions() { alpha = 1.0; }

  // Total number of colors for the bipartite matrix graph, including the
  // two pinned singletons (objective row, rhs column). Must be >= 4.
  ColorId max_colors = 40;
  LpReduction variant = LpReduction::kSqrtNormalized;

  // Coloring backend for the matrix graph (coloring/backend.h); "" means
  // kDefaultColoringBackend. Must canonicalize to a registered backend —
  // qsc::Compressor::SolveLp validates; direct construction aborts on
  // malformed or unknown names.
  std::string backend;
};

struct ReducedLp {
  LpProblem lp;  // the reduced LP
  // Color of each original row / column, as indices into the reduced LP
  // (0..reduced.num_rows-1 / 0..reduced.num_cols-1).
  std::vector<int32_t> row_color;
  std::vector<int32_t> col_color;
  std::vector<int64_t> row_color_size;
  std::vector<int64_t> col_color_size;
  LpReduction variant = LpReduction::kSqrtNormalized;
  double max_q = 0.0;  // q-error of the coloring on the matrix graph
  double coloring_seconds = 0.0;
};

ReducedLp ReduceLp(const LpProblem& lp, const LpReduceOptions& options);

// The two halves of a reduction around its coloring, shared by
// LpColoringRefiner and the session cache (qsc::Compressor::SolveLp).
// `lp` must be valid (ValidateLp).
//
// BuildMatrixGraph: the directed bipartite graph of A_ext. Nodes are the
// rows 0..m-1, the objective row m, the columns m+1..m+n and the rhs
// column m+n+1; arcs run row -> column with the coefficient as weight.
// MatrixGraphSeed: its initial partition {rows}, {objective row},
// {columns}, {rhs column}, which keeps rows and columns apart and pins the
// two singletons.
Graph BuildMatrixGraph(const LpProblem& lp);
Partition MatrixGraphSeed(const LpProblem& lp);

// The reduced LP of Eq. (6) (or the Grohe variant) for a coloring of
// BuildMatrixGraph(lp) refined from MatrixGraphSeed(lp). Leaves max_q and
// coloring_seconds at 0 for the caller to fill.
ReducedLp ExtractReducedLp(const LpProblem& lp, const Partition& coloring,
                           LpReduction variant);

// Anytime variant (paper Sec 5.2: Rothko as a co-routine). Holds the
// matrix-graph coloring across calls so successive budgets refine the same
// partition instead of recoloring from scratch:
//
//   LpColoringRefiner refiner(lp, options);
//   for (ColorId k : {10, 20, 50}) {
//     ReducedLp reduced = refiner.ReduceTo(k);
//     ... solve, check the approximation, stop when good enough ...
//   }
class LpColoringRefiner {
 public:
  // Keeps a reference to `lp`, which must outlive the refiner.
  LpColoringRefiner(const LpProblem& lp, const LpReduceOptions& options);

  LpColoringRefiner(const LpColoringRefiner&) = delete;
  LpColoringRefiner& operator=(const LpColoringRefiner&) = delete;

  // Refines until the matrix graph has `max_colors` colors (or the
  // coloring converges) and extracts the reduced LP. Budgets must be
  // non-decreasing across calls.
  ReducedLp ReduceTo(ColorId max_colors);

  // Colors of the current matrix-graph partition (>= 4 once constructed).
  // A budget at or above this is a valid ReduceTo argument.
  ColorId num_colors() const { return refiner_->partition().num_colors(); }

 private:
  const LpProblem* lp_;
  LpReduction variant_;
  Graph matrix_graph_;
  std::unique_ptr<ColoringBackend> refiner_;  // over matrix_graph_
  double coloring_seconds_ = 0.0;
};

// Lifts a reduced solution x^ back to the original variable space
// (x_j = x^_s / sqrt(|Q_s|) for Eq. (6), x_j = x^_s / |Q_s| for Grohe).
// The lifted point reproduces the reduced objective value but is not
// necessarily feasible for the original LP (Theorem 2 bounds the value,
// not the point).
std::vector<double> LiftSolution(const ReducedLp& reduced,
                                 const std::vector<double>& reduced_x);

}  // namespace qsc

#endif  // QSC_LP_REDUCE_H_
