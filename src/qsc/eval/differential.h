// Differential testing layer: fans an instance through the approximate
// solvers AND their exact oracles and checks the paper's invariants rather
// than golden numbers, so every seeded instance is a test case. qsc_bench's
// check/ scenarios run it on their instances, and any violation fails the
// run. Checked per area:
//
//   max-flow   - Dinic, Edmonds-Karp and push-relabel agree; the min cut
//                certifies the flow (strong duality); the c^2 reduced-graph
//                flow upper-bounds the exact value at every budget and the
//                finest bound does not exceed the coarsest (anytime
//                improvement); the optional c^1 bound lower-bounds it
//                (Theorem 6).
//   LP         - simplex and interior-point agree on seeded feasible LPs;
//                LiftSolution round-trips the reduced objective into the
//                original objective exactly; at q = 0 the reduced optimum
//                equals the exact optimum (Theorem 1 — the direction the
//                paper guarantees), including at the full budget, which
//                must drive the matrix coloring stable. The q-error at
//                capped budget checkpoints is only checked for validity,
//                not monotonicity: a color cap can truncate a monotone
//                refinement step mid-recovery (see docs/TESTING.md).
//   centrality - the color-pivot estimator under the discrete coloring
//                degenerates to exact Brandes; Spearman's rho against the
//                exact scores is a valid correlation.
//
// All areas additionally check the selected compression backend's
// ColoringBackend contract on the instance (coloring/backend.h): Step()
// never increases CurrentMaxError(), every Step() adds colors, and
// replaying the same step sequence from the same initial partition lands
// on the identical partition (determinism / resume-equals-fresh). For the
// rothko backend the history() color counts are additionally checked. The
// backend under test comes from EvalOptions::backend; an unresolvable
// name is itself a reported violation.

#ifndef QSC_EVAL_DIFFERENTIAL_H_
#define QSC_EVAL_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "qsc/dynamic/edit_stream.h"
#include "qsc/eval/pipelines.h"
#include "qsc/graph/generators.h"
#include "qsc/graph/graph.h"
#include "qsc/lp/model.h"

namespace qsc {
namespace eval {

// Knobs for DifferentialRunner::CheckDynamic: a seeded edit stream
// replayed over the instance graph, with the repair contract of
// dynamic/incremental.h under test.
struct DynamicCheckOptions {
  dynamic::EditStreamOptions stream;
  int64_t max_repair_splits = 256;
  // Tolerance of the coloring spec under test. > 0 enables the repair
  // path; 0 forces every batch onto the fallback, whose lazy recompute
  // must then be bitwise identical to from-scratch refinement.
  double q_tolerance = 1.0;
};

struct InvariantViolation {
  std::string invariant;  // short id, e.g. "flow/solver-agreement"
  std::string detail;     // human-readable evidence
};

struct DifferentialReport {
  int64_t checks = 0;  // individual assertions evaluated
  std::vector<InvariantViolation> violations;

  bool ok() const { return violations.empty(); }

  // "42 checks, 0 violations" or a newline-separated violation list; meant
  // for test failure messages.
  std::string Summary() const;
};

class DifferentialRunner {
 public:
  explicit DifferentialRunner(EvalOptions options);

  // Area entry points: each runs its area's invariant suite on the
  // instance over the budget sweep.
  DifferentialReport CheckMaxFlow(const FlowInstance& instance,
                                  std::vector<ColorId> budgets) const;
  DifferentialReport CheckLp(const LpProblem& lp,
                             std::vector<ColorId> budgets) const;
  DifferentialReport CheckCentrality(const Graph& g,
                                     std::vector<ColorId> budgets) const;

  // Incremental-recoloring oracle (docs/DYNAMIC.md): replays the seeded
  // edit stream over `g` through an IncrementalRecolorer on the selected
  // backend and checks, at every checkpoint and every budget of the
  // sweep {4, 8, 16, 32}, the dynamic serving bound
  //     q_incremental <= max(q_scratch, q_tolerance)
  // against a fresh from-scratch refiner on the mutated graph — exactly,
  // not within a tolerance. Batches that fall back (and every batch at
  // q_tolerance = 0) must additionally reproduce the scratch partition
  // bit for bit at every budget.
  DifferentialReport CheckDynamic(const Graph& g,
                                  const DynamicCheckOptions& dyn) const;

 private:
  void CheckColoringAnytime(const Graph& g, double alpha, double beta,
                            DifferentialReport& report) const;

  EvalOptions options_;
};

}  // namespace eval
}  // namespace qsc

#endif  // QSC_EVAL_DIFFERENTIAL_H_
