#include "qsc/lp/reduce.h"

#include <gtest/gtest.h>

#include <cmath>

#include "qsc/lp/generators.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/stats.h"

namespace qsc {
namespace {

TEST(ReduceLpTest, Figure3ReproducesPaperNumbers) {
  // The paper's Figure 3: the 5x3 LP has optimum 128.157; the q=1 coloring
  // {rows 0-2}, {rows 3-4}, {cols 0-1}, {col 2} yields a reduced LP with
  // optimum 130.199.
  const LpProblem lp = Figure3Lp();
  LpReduceOptions options;
  options.max_colors = 6;  // 2 row + 2 col colors + 2 pinned
  const ReducedLp reduced = ReduceLp(lp, options);
  EXPECT_EQ(reduced.lp.num_rows, 2);
  EXPECT_EQ(reduced.lp.num_cols, 2);

  // The witness-split coloring should find the paper's block structure.
  EXPECT_EQ(reduced.row_color[0], reduced.row_color[1]);
  EXPECT_EQ(reduced.row_color[1], reduced.row_color[2]);
  EXPECT_EQ(reduced.row_color[3], reduced.row_color[4]);
  EXPECT_NE(reduced.row_color[0], reduced.row_color[3]);
  EXPECT_EQ(reduced.col_color[0], reduced.col_color[1]);
  EXPECT_NE(reduced.col_color[0], reduced.col_color[2]);

  const LpResult r = SolveSimplex(reduced.lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 130.199, 1e-2);  // paper: 130.199
}

TEST(ReduceLpTest, Figure3ReducedMatrixEntries) {
  // Check the reduced matrix against Figure 3(b): A^(0,0) = 34/sqrt(3*2).
  const LpProblem lp = Figure3Lp();
  LpReduceOptions options;
  options.max_colors = 6;
  const ReducedLp reduced = ReduceLp(lp, options);
  // Identify color ids.
  const int32_t r0 = reduced.row_color[0];  // rows {0,1,2}
  const int32_t r1 = reduced.row_color[3];  // rows {3,4}
  const int32_t s0 = reduced.col_color[0];  // cols {0,1}
  const int32_t s1 = reduced.col_color[2];  // col {2}
  auto entry = [&](int32_t r, int32_t s) {
    for (const LpEntry& e : reduced.lp.entries) {
      if (e.row == r && e.col == s) return e.value;
    }
    return 0.0;
  };
  EXPECT_NEAR(entry(r0, s0), 34.0 / std::sqrt(6.0), 1e-9);
  EXPECT_NEAR(entry(r0, s1), 5.0 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(entry(r1, s0), 9.0 / std::sqrt(4.0), 1e-9);
  EXPECT_NEAR(entry(r1, s1), 43.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(reduced.lp.b[r0], 61.0 / std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(reduced.lp.b[r1], 101.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(reduced.lp.c[s0], 19.0 / std::sqrt(2.0), 1e-9);
  EXPECT_NEAR(reduced.lp.c[s1], 50.0, 1e-9);
}

TEST(ReduceLpTest, FullColorsReproduceExactly) {
  // With one color per row/column the reduction is the identity (up to
  // normalization with |P|=1) and the optimum matches exactly.
  const LpProblem lp = Figure3Lp();
  LpReduceOptions options;
  options.max_colors = 5 + 3 + 2;
  const ReducedLp reduced = ReduceLp(lp, options);
  EXPECT_EQ(reduced.lp.num_rows, 5);
  EXPECT_EQ(reduced.lp.num_cols, 3);
  const LpResult exact = SolveSimplex(lp);
  const LpResult red = SolveSimplex(reduced.lp);
  EXPECT_NEAR(exact.objective, red.objective, 1e-6);
}

TEST(ReduceLpTest, GroheVariantAgreesAtQZero) {
  // On an exactly block-structured LP (noise 0) both reductions recover
  // the exact optimum (Theorem 2 with q = 0, and [16]).
  BlockLpSpec spec;
  spec.num_row_groups = 3;
  spec.num_col_groups = 3;
  spec.rows_per_group = 4;
  spec.cols_per_group = 4;
  spec.density = 0.6;
  spec.noise = 0.0;
  spec.seed = 5;
  LpProblem lp = MakeBlockLp(spec);
  // Noise-free blocks still have noisy b; flatten b within groups so the
  // coloring is exactly stable.
  for (int32_t i = 0; i < lp.num_rows; ++i) {
    lp.b[i] = lp.b[(i / 4) * 4];
  }
  const LpResult exact = SolveSimplex(lp);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);

  for (LpReduction variant :
       {LpReduction::kSqrtNormalized, LpReduction::kGrohe}) {
    LpReduceOptions options;
    options.max_colors = 10;  // 3 row + 3 col + wiggle room + pins
    options.q_tolerance = 0.0;
    options.variant = variant;
    const ReducedLp reduced = ReduceLp(lp, options);
    EXPECT_NEAR(reduced.max_q, 0.0, 1e-9);
    const LpResult red = SolveSimplex(reduced.lp);
    ASSERT_EQ(red.status, LpStatus::kOptimal);
    EXPECT_NEAR(RelativeError(exact.objective, red.objective), 1.0, 1e-6)
        << "variant " << static_cast<int>(variant);
  }
}

TEST(ReduceLpTest, LiftedSolutionReproducesObjective) {
  const LpProblem lp = MakeQapLikeLp(4, 7);
  LpReduceOptions options;
  options.max_colors = 20;
  const ReducedLp reduced = ReduceLp(lp, options);
  const LpResult red = SolveSimplex(reduced.lp);
  ASSERT_EQ(red.status, LpStatus::kOptimal);
  const std::vector<double> lifted = LiftSolution(reduced, red.x);
  ASSERT_EQ(static_cast<int32_t>(lifted.size()), lp.num_cols);
  // c^T x_lifted equals the reduced objective (see reduce.h).
  EXPECT_NEAR(Objective(lp, lifted), red.objective,
              1e-6 * (1 + std::abs(red.objective)));
}

TEST(ReduceLpTest, ErrorShrinksWithMoreColors) {
  const LpProblem lp = MakeQapLikeLp(5, 3);
  const LpResult exact = SolveSimplex(lp);
  ASSERT_EQ(exact.status, LpStatus::kOptimal);
  double err_small = 0.0, err_large = 0.0;
  for (ColorId k : {8, 60}) {
    LpReduceOptions options;
    options.max_colors = k;
    const ReducedLp reduced = ReduceLp(lp, options);
    const LpResult red = SolveSimplex(reduced.lp);
    ASSERT_EQ(red.status, LpStatus::kOptimal);
    const double err = RelativeError(exact.objective, red.objective);
    if (k == 8) {
      err_small = err;
    } else {
      err_large = err;
    }
  }
  EXPECT_LE(err_large, err_small + 0.05);
  EXPECT_LE(err_large, 1.5);
}

TEST(ReduceLpTest, RowAndColumnColorsNeverMix) {
  const LpProblem lp = MakeWideSupportLp(4, 11);
  LpReduceOptions options;
  options.max_colors = 16;
  const ReducedLp reduced = ReduceLp(lp, options);
  // Sizes account for all rows/cols.
  int64_t rows = 0, cols = 0;
  for (int64_t s : reduced.row_color_size) rows += s;
  for (int64_t s : reduced.col_color_size) cols += s;
  EXPECT_EQ(rows, lp.num_rows);
  EXPECT_EQ(cols, lp.num_cols);
  // Reduced dimensions leave room for the two pinned singletons.
  EXPECT_LE(reduced.lp.num_rows + reduced.lp.num_cols + 2,
            options.max_colors + 1);
}

TEST(LpColoringRefinerTest, AnytimeMatchesFromScratch) {
  // Growing the same refiner must produce the same reductions as fresh
  // ReduceLp calls (the refinement is deterministic).
  const LpProblem lp = MakeQapLikeLp(5, 17);
  LpReduceOptions options;
  LpColoringRefiner refiner(lp, options);
  for (ColorId k : {8, 16, 32, 64}) {
    const ReducedLp incremental = refiner.ReduceTo(k);
    LpReduceOptions fresh_options;
    fresh_options.max_colors = k;
    const ReducedLp fresh = ReduceLp(lp, fresh_options);
    EXPECT_EQ(incremental.lp.num_rows, fresh.lp.num_rows) << k;
    EXPECT_EQ(incremental.lp.num_cols, fresh.lp.num_cols) << k;
    const LpResult a = SolveSimplex(incremental.lp);
    const LpResult b = SolveSimplex(fresh.lp);
    ASSERT_EQ(a.status, LpStatus::kOptimal);
    EXPECT_NEAR(a.objective, b.objective,
                1e-9 * (1.0 + std::abs(b.objective)))
        << k;
  }
}

TEST(LpColoringRefinerTest, ColoringTimeAccumulates) {
  const LpProblem lp = MakeQapLikeLp(5, 18);
  LpReduceOptions options;
  LpColoringRefiner refiner(lp, options);
  const ReducedLp first = refiner.ReduceTo(8);
  const ReducedLp second = refiner.ReduceTo(32);
  EXPECT_GE(second.coloring_seconds, first.coloring_seconds);
  EXPECT_LE(second.max_q, first.max_q + 1e-9);
}

TEST(ReduceLpTest, MaxQReportedMatchesTolerance) {
  const LpProblem lp = MakeNugentLikeLp(4, 13);
  LpReduceOptions options;
  options.max_colors = 1000;
  options.q_tolerance = 3.0;
  const ReducedLp reduced = ReduceLp(lp, options);
  EXPECT_LE(reduced.max_q, 3.0);
}

// The constructor validates before it builds the matrix graph, so a
// malformed LP trips the ValidateLp contract check instead of indexing
// out of range (a short b) or aborting deep inside Graph construction (a
// negative entry row).
TEST(LpColoringRefinerDeathTest, ValidatesBeforeBuildingTheMatrixGraph) {
  const LpReduceOptions options;
  LpProblem negative_row = Figure3Lp();
  negative_row.entries.front().row = -1;
  EXPECT_DEATH({ LpColoringRefiner refiner(negative_row, options); },
               "ValidateLp");

  LpProblem short_b = Figure3Lp();
  short_b.b.pop_back();
  EXPECT_DEATH({ LpColoringRefiner refiner(short_b, options); },
               "ValidateLp");
}

}  // namespace
}  // namespace qsc
