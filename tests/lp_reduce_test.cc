#include "qsc/lp/reduce.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "qsc/lp/generators.h"
#include "qsc/lp/simplex.h"
#include "qsc/util/random.h"
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

// The map-based ExtractReducedLp that preceded its dense accumulator, kept
// as the bit-identity reference: first-appearance color numbering, block
// sums in entry order.
ReducedLp ReferenceExtractReducedLp(const LpProblem& lp, const Partition& p,
                                    LpReduction variant) {
  const int32_t m = lp.num_rows;
  const int32_t n = lp.num_cols;
  ReducedLp out;
  out.variant = variant;
  std::map<ColorId, int32_t> row_id, col_id;
  for (int32_t i = 0; i < m; ++i) {
    const auto it = row_id.try_emplace(p.ColorOf(i),
                                       static_cast<int32_t>(row_id.size()));
    out.row_color.push_back(it.first->second);
  }
  for (int32_t j = 0; j < n; ++j) {
    const auto it = col_id.try_emplace(p.ColorOf(m + 1 + j),
                                       static_cast<int32_t>(col_id.size()));
    out.col_color.push_back(it.first->second);
  }
  const int32_t k = static_cast<int32_t>(row_id.size());
  const int32_t l = static_cast<int32_t>(col_id.size());
  out.row_color_size.assign(k, 0);
  out.col_color_size.assign(l, 0);
  for (int32_t i = 0; i < m; ++i) ++out.row_color_size[out.row_color[i]];
  for (int32_t j = 0; j < n; ++j) ++out.col_color_size[out.col_color[j]];
  std::map<std::pair<int32_t, int32_t>, double> block;
  for (const LpEntry& e : lp.entries) {
    block[{out.row_color[e.row], out.col_color[e.col]}] += e.value;
  }
  std::vector<double> b_sum(k, 0.0), c_sum(l, 0.0);
  for (int32_t i = 0; i < m; ++i) b_sum[out.row_color[i]] += lp.b[i];
  for (int32_t j = 0; j < n; ++j) c_sum[out.col_color[j]] += lp.c[j];
  const bool sqrt_norm = variant == LpReduction::kSqrtNormalized;
  out.lp.num_rows = k;
  out.lp.num_cols = l;
  for (const auto& [key, sum] : block) {
    const double pr = static_cast<double>(out.row_color_size[key.first]);
    const double qs = static_cast<double>(out.col_color_size[key.second]);
    const double value = sqrt_norm ? sum / std::sqrt(pr * qs) : sum / qs;
    if (value != 0.0) out.lp.entries.push_back({key.first, key.second, value});
  }
  for (int32_t r = 0; r < k; ++r) {
    const double pr = static_cast<double>(out.row_color_size[r]);
    out.lp.b.push_back(sqrt_norm ? b_sum[r] / std::sqrt(pr) : b_sum[r]);
  }
  for (int32_t s = 0; s < l; ++s) {
    const double qs = static_cast<double>(out.col_color_size[s]);
    out.lp.c.push_back(sqrt_norm ? c_sum[s] / std::sqrt(qs) : c_sum[s] / qs);
  }
  CanonicalizeLp(out.lp);
  return out;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ExtractReducedLpTest, BitIdenticalToMapReference) {
  // Unsorted entries with order-sensitive (1e16) and cancelling values;
  // from one row and column color each up to the discrete partition, so
  // both the single-block and the multi-block accumulator run.
  static constexpr double kValues[] = {1.0, -1.0, 1e16, -1e16, 0.5, -2.25};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    LpProblem lp;
    lp.num_rows = 20 + static_cast<int32_t>(rng.NextBounded(20));
    lp.num_cols = 20 + static_cast<int32_t>(rng.NextBounded(20));
    for (int32_t e = 0; e < 2 * lp.num_rows; ++e) {
      lp.entries.push_back(
          {static_cast<int32_t>(rng.NextBounded(lp.num_rows)),
           static_cast<int32_t>(rng.NextBounded(lp.num_cols)),
           kValues[rng.NextBounded(std::size(kValues))]});
    }
    for (int32_t i = 0; i < lp.num_rows; ++i) {
      lp.b.push_back(kValues[rng.NextBounded(std::size(kValues))]);
    }
    for (int32_t j = 0; j < lp.num_cols; ++j) {
      lp.c.push_back(kValues[rng.NextBounded(std::size(kValues))]);
    }
    for (int32_t colors = 1; colors <= lp.num_cols; ++colors) {
      // Matrix-graph labels: rows and columns drawn from disjoint label
      // ranges, the objective row and the rhs column singletons.
      const int32_t m = lp.num_rows, n = lp.num_cols;
      std::vector<int32_t> labels(m + n + 2);
      for (int32_t i = 0; i < m; ++i) {
        labels[i] = static_cast<int32_t>(rng.NextBounded(colors));
      }
      labels[m] = -1;
      for (int32_t j = 0; j < n; ++j) {
        labels[m + 1 + j] =
            1000 + static_cast<int32_t>(rng.NextBounded(colors));
      }
      labels[m + n + 1] = -2;
      const Partition p = Partition::FromColorIds(labels);
      for (const LpReduction variant :
           {LpReduction::kSqrtNormalized, LpReduction::kGrohe}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " colors " << colors);
        const ReducedLp got = ExtractReducedLp(lp, p, variant);
        const ReducedLp want = ReferenceExtractReducedLp(lp, p, variant);
        EXPECT_EQ(got.row_color, want.row_color);
        EXPECT_EQ(got.col_color, want.col_color);
        EXPECT_EQ(got.row_color_size, want.row_color_size);
        EXPECT_EQ(got.col_color_size, want.col_color_size);
        ASSERT_EQ(got.lp.num_rows, want.lp.num_rows);
        ASSERT_EQ(got.lp.num_cols, want.lp.num_cols);
        ASSERT_EQ(got.lp.entries.size(), want.lp.entries.size());
        for (size_t e = 0; e < want.lp.entries.size(); ++e) {
          EXPECT_EQ(got.lp.entries[e].row, want.lp.entries[e].row);
          EXPECT_EQ(got.lp.entries[e].col, want.lp.entries[e].col);
          EXPECT_TRUE(
              SameBits(got.lp.entries[e].value, want.lp.entries[e].value))
              << got.lp.entries[e].value << " vs " << want.lp.entries[e].value;
        }
        for (int32_t r = 0; r < want.lp.num_rows; ++r) {
          EXPECT_TRUE(SameBits(got.lp.b[r], want.lp.b[r]));
        }
        for (int32_t s = 0; s < want.lp.num_cols; ++s) {
          EXPECT_TRUE(SameBits(got.lp.c[s], want.lp.c[s]));
        }
      }
    }
  }
}

}  // namespace
}  // namespace qsc
