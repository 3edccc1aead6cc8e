// Differential tests for the LP stack: simplex and interior-point must
// agree on seeded feasible LPs from lp/generators, and the coloring
// reduction must round-trip objectives in the directions the paper
// guarantees — LiftSolution reproduces the reduced objective in the
// original objective exactly (both reduction variants), and a stable
// (q = 0) coloring loses nothing (Theorem 1).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "qsc/eval/differential.h"
#include "qsc/eval/pipelines.h"
#include "qsc/lp/generators.h"
#include "qsc/lp/interior_point.h"
#include "qsc/lp/model.h"
#include "qsc/lp/reduce.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"

namespace qsc {
namespace {

void ExpectOraclesAgree(const LpProblem& lp, const char* label) {
  const LpResult simplex = SolveSimplex(lp);
  const IpmResult ipm = SolveInteriorPoint(lp);
  ASSERT_EQ(simplex.status, LpStatus::kOptimal) << label;
  ASSERT_EQ(ipm.status, LpStatus::kOptimal) << label;
  EXPECT_NEAR(RelativeError(simplex.objective, ipm.objective), 1.0, 1e-3)
      << label << ": simplex " << simplex.objective << " vs interior point "
      << ipm.objective;
}

class LpDifferentialTest : public testing::TestWithParam<uint64_t> {};

TEST_P(LpDifferentialTest, OraclesAgreeAcrossGeneratorFamilies) {
  const uint64_t seed = GetParam();
  ExpectOraclesAgree(MakeQapLikeLp(4, seed), "qap");
  ExpectOraclesAgree(MakeWideSupportLp(5, seed), "wide");
  ExpectOraclesAgree(MakeTallLp(4, seed), "tall");
  BlockLpSpec spec;
  spec.num_row_groups = 3;
  spec.num_col_groups = 3;
  spec.rows_per_group = 5;
  spec.cols_per_group = 5;
  spec.seed = seed;
  ExpectOraclesAgree(MakeBlockLp(spec), "block");
}

TEST_P(LpDifferentialTest, LiftRoundTripsReducedObjective) {
  const LpProblem lp = MakeQapLikeLp(4, GetParam());
  for (const LpReduction variant :
       {LpReduction::kSqrtNormalized, LpReduction::kGrohe}) {
    LpReduceOptions options;
    options.max_colors = 16;
    options.variant = variant;
    const ReducedLp reduced = ReduceLp(lp, options);
    const LpResult red = SolveSimplex(reduced.lp);
    ASSERT_EQ(red.status, LpStatus::kOptimal);
    const std::vector<double> lifted = LiftSolution(reduced, red.x);
    EXPECT_NEAR(Objective(lp, lifted), red.objective,
                1e-9 * std::max(1.0, std::abs(red.objective)));
  }
}

TEST_P(LpDifferentialTest, StableColoringPreservesOptimum) {
  // Noise-free block LPs with block-constant b admit a q = 0 coloring of
  // the extended matrix; Theorem 1 then guarantees the reduced optimum
  // equals the exact one.
  BlockLpSpec spec;
  spec.num_row_groups = 3;
  spec.num_col_groups = 3;
  spec.rows_per_group = 4;
  spec.cols_per_group = 4;
  spec.noise = 0.0;
  spec.seed = GetParam();
  LpProblem lp = MakeBlockLp(spec);
  for (int32_t i = 0; i < lp.num_rows; ++i) lp.b[i] = lp.b[(i / 4) * 4];

  const LpResult exact = SolveSimplex(lp);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);

  LpReduceOptions options;
  options.max_colors = 10;
  options.q_tolerance = 0.0;
  const ReducedLp reduced = ReduceLp(lp, options);
  ASSERT_NEAR(reduced.max_q, 0.0, 1e-9);
  const LpResult red = SolveSimplex(reduced.lp);
  ASSERT_EQ(red.status, LpStatus::kOptimal);
  EXPECT_NEAR(RelativeError(exact.objective, red.objective), 1.0, 1e-6);
}

TEST_P(LpDifferentialTest, FullRefinementRecoversExactOptimum) {
  // The anytime refiner driven to an unlimited budget degenerates to the
  // identity reduction: stable matrix coloring (q = 0) and the exact
  // optimum. (Across *capped* budgets max_q may wiggle — a cap can
  // truncate a monotone refinement step mid-recovery — so monotonicity is
  // only asserted for uncapped Step(), in coloring_rothko_property_test.)
  const LpProblem lp = MakeNugentLikeLp(5, GetParam());
  const LpResult exact = SolveSimplex(lp);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);

  LpReduceOptions options;
  LpColoringRefiner refiner(lp, options);
  ReducedLp previous = refiner.ReduceTo(10);  // capped checkpoint first
  EXPECT_GE(previous.max_q, 0.0);
  const ReducedLp full =
      refiner.ReduceTo(static_cast<ColorId>(lp.num_rows + lp.num_cols + 2));
  EXPECT_NEAR(full.max_q, 0.0, 1e-9);
  const LpResult red = SolveSimplex(full.lp);
  ASSERT_EQ(red.status, LpStatus::kOptimal);
  EXPECT_NEAR(RelativeError(exact.objective, red.objective), 1.0, 1e-6);
}

TEST_P(LpDifferentialTest, EvalRunnerFindsNoViolations) {
  eval::EvalOptions options;
  options.seed = GetParam();
  const eval::DifferentialReport report =
      eval::DifferentialRunner(options).CheckLp(MakeWideSupportLp(5, GetParam()),
                                                {8, 16, 24});
  EXPECT_TRUE(report.ok()) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpDifferentialTest,
                         testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

}  // namespace
}  // namespace qsc
