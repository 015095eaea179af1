#pragma once
// Sparse LU factorization of a simplex basis (PA = LU, partial pivoting).
//
// This is the textbook right-looking dense elimination with the zero work
// left out, not a reordering sparse LU: step k pivots column k on its
// largest |a(i,k)| over current positions i >= k (ties to the smallest
// position), whole rows swap, the multiplier is a(i,k) * (1 / a(k,k)) and
// only the pivot row's nonzeros update the rows below (a fill-in entry is
// 0.0 - l * a(k,j)). Every stored value is therefore the one the dense
// algorithm computes, bit for bit, and the triangular solves sum in the
// dense loops' order: `solve` walks rows of L then rows of U, and
// `solve_transpose` walks columns of U then columns of L, each in ascending
// index order. The ±0 products of the skipped structural zeros are replayed
// where they matter (they can only turn a -0 sum into +0), so even the signs
// of zero results match the dense solves. Exposed for the oracle test.

#include <vector>

#include "mth/lp/model.hpp"

namespace mth::lp::detail {

class SparseLu {
 public:
  /// Factorize the n x n matrix whose column c is slice c of `cols`
  /// (n = cols.ptr.size() - 1; a row index appears at most once per column;
  /// explicit zeros are skipped, as the model's compiled views never hold
  /// any). Returns false when a step finds no pivot above `tol`, which
  /// includes a column with no nonzero left at the unpivoted positions.
  bool factorize(const SparseView& cols, double tol);

  /// b := A^{-1} b.
  void solve(std::vector<double>& b) const;

  /// b := A^{-T} b.
  void solve_transpose(std::vector<double>& b) const;

 private:
  /// Working-matrix entry, threaded on its row list and its column list.
  struct Entry {
    int row, col;
    int next_in_row, next_in_col;
    double val;
  };

  void add_entry(int row, int col, double val);
  void build_factors();

  int n_ = 0;
  // Elimination state, reused across factorizations. Rows are keyed by
  // their original index; perm_[p] is the row at position p and pos_ its
  // inverse.
  std::vector<Entry> ent_;
  std::vector<int> row_head_, col_head_, perm_, pos_;
  std::vector<int> pivot_mark_, seen_;
  std::vector<double> pivot_val_;
  // Factors by position: unit-lower L and strictly-upper U, each stored
  // row-wise and column-wise with ascending indices, plus U's diagonal.
  SparseView l_rows_, l_cols_, u_rows_, u_cols_;
  std::vector<double> diag_;
  mutable std::vector<double> x_;
};

}  // namespace mth::lp::detail
