// Dense per-(row color, column color) sums: the aggregation step of the
// reduced graph (BuildReducedGraph, paper Sec. 3.2) and of the reduced LP
// (ExtractReducedLp, Eq. (4)).
//
// Every cell total is the sum, starting from +0.0, of its terms in
// ascending source order and then term order. That is the order one pass
// over the sources into a hash map would use, so totals are bit-identical
// to it, but the cells live in a flat array instead of hash buckets.

#ifndef QSC_COLORING_COLOR_PAIR_SUMS_H_
#define QSC_COLORING_COLOR_PAIR_SUMS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace qsc {

// Sources s = 0..num_sources-1 each have a row color `row_of(s)` in
// [0, rows) and terms visited by `for_each_term(s, add)`, which calls
// `add(col, value)` with col in [0, cols) once per term; `num_terms` is
// the number of terms over all sources. Calls `emit(row, col, total)` once
// per cell whose total is nonzero (NaN counts as nonzero; a total is never
// -0.0). Cells that sum to zero are skipped.
//
// The accumulator holds at most max(cols, num_terms) cells. When all
// rows * cols cells fit, one pass fills them and `emit` runs in (row, col)
// order. Otherwise the sources are bucketed stably by blocks of row colors
// (a stable bucketing keeps each cell's term order) and each block is
// emitted, in no particular order, from the list of cells it touched, so
// the cost stays linear in num_sources + num_terms + rows.
template <typename RowOf, typename ForEachTerm, typename Emit>
void SumColorPairs(int64_t num_sources, int32_t rows, int32_t cols,
                   int64_t num_terms, RowOf row_of, ForEachTerm for_each_term,
                   Emit emit) {
  const int64_t capacity = std::max<int64_t>(cols, num_terms);
  const int64_t cells = static_cast<int64_t>(rows) * cols;
  if (cells <= capacity) {
    std::vector<double> totals(cells, 0.0);
    for (int64_t s = 0; s < num_sources; ++s) {
      double* row = totals.data() + static_cast<int64_t>(row_of(s)) * cols;
      for_each_term(s, [row](int32_t col, double value) { row[col] += value; });
    }
    for (int32_t r = 0; r < rows; ++r) {
      const double* row = totals.data() + static_cast<int64_t>(r) * cols;
      for (int32_t c = 0; c < cols; ++c) {
        if (row[c] != 0.0) emit(r, c, row[c]);
      }
    }
    return;
  }

  // cells > capacity >= cols, so 1 <= width < rows.
  const int32_t width = static_cast<int32_t>(capacity / cols);
  const int32_t num_blocks = (rows - 1) / width + 1;
  std::vector<int64_t> block_start(num_blocks + 1, 0);
  for (int64_t s = 0; s < num_sources; ++s) {
    ++block_start[row_of(s) / width + 1];
  }
  for (int32_t b = 0; b < num_blocks; ++b) {
    block_start[b + 1] += block_start[b];
  }
  std::vector<int64_t> order(num_sources);
  {
    std::vector<int64_t> next(block_start.begin(), block_start.end() - 1);
    for (int64_t s = 0; s < num_sources; ++s) {
      order[next[row_of(s) / width]++] = s;
    }
  }

  const int64_t block_cells = static_cast<int64_t>(width) * cols;
  std::vector<double> totals(block_cells, 0.0);
  std::vector<uint8_t> seen(block_cells, 0);
  std::vector<int64_t> touched;
  for (int32_t b = 0; b < num_blocks; ++b) {
    const int32_t first_row = b * width;
    for (int64_t i = block_start[b]; i < block_start[b + 1]; ++i) {
      const int64_t s = order[i];
      const int64_t offset = static_cast<int64_t>(row_of(s) - first_row) * cols;
      for_each_term(s, [&](int32_t col, double value) {
        const int64_t cell = offset + col;
        if (!seen[cell]) {
          seen[cell] = 1;
          touched.push_back(cell);
        }
        totals[cell] += value;
      });
    }
    for (const int64_t cell : touched) {
      if (totals[cell] != 0.0) {
        emit(first_row + static_cast<int32_t>(cell / cols),
             static_cast<int32_t>(cell % cols), totals[cell]);
      }
      totals[cell] = 0.0;
      seen[cell] = 0;
    }
    touched.clear();
  }
}

}  // namespace qsc

#endif  // QSC_COLORING_COLOR_PAIR_SUMS_H_
