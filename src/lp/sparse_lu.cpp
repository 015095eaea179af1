#include "mth/lp/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <utility>

namespace mth::lp::detail {

namespace {

inline std::size_t at(int i) { return static_cast<std::size_t>(i); }

bool neg_zero(double v) { return v == 0.0 && std::signbit(v); }

/// Number of entries k of slice i with pred(idx[k]).
template <class Pred>
int count_in_slice(const SparseView& f, int i, Pred pred) {
  int c = 0;
  for (int k = f.ptr[at(i)]; k < f.ptr[at(i) + 1]; ++k) c += pred(f.idx[at(k)]) ? 1 : 0;
  return c;
}

/// Subtract slice i's products from s in ascending index order.
double slice_sum(double s, const SparseView& f, int i, const std::vector<double>& x) {
  for (int k = f.ptr[at(i)]; k < f.ptr[at(i) + 1]; ++k) {
    s -= f.val[at(k)] * x[at(f.idx[at(k)])];
  }
  return s;
}

/// `out` := `in` with slices and indices swapped (CSC <-> CSR); indices come
/// out ascending within each slice because slices are scanned in order.
void transpose(const SparseView& in, int n, SparseView& out) {
  out.ptr.assign(at(n) + 1, 0);
  for (const int i : in.idx) ++out.ptr[at(i) + 1];
  for (int i = 0; i < n; ++i) out.ptr[at(i) + 1] += out.ptr[at(i)];
  out.idx.resize(in.idx.size());
  out.val.resize(in.val.size());
  std::vector<int> fill(out.ptr.begin(), out.ptr.end() - 1);
  for (int s = 0; s < n; ++s) {
    for (int k = in.ptr[at(s)]; k < in.ptr[at(s) + 1]; ++k) {
      const int dst = fill[at(in.idx[at(k)])]++;
      out.idx[at(dst)] = s;
      out.val[at(dst)] = in.val[at(k)];
    }
  }
}

}  // namespace

void SparseLu::add_entry(int row, int col, double val) {
  ent_.push_back(Entry{row, col, row_head_[at(row)], col_head_[at(col)], val});
  const int e = static_cast<int>(ent_.size()) - 1;
  row_head_[at(row)] = e;
  col_head_[at(col)] = e;
}

bool SparseLu::factorize(const SparseView& cols, double tol) {
  const int n = static_cast<int>(cols.ptr.size()) - 1;
  n_ = n;
  ent_.clear();
  row_head_.assign(at(n), -1);
  col_head_.assign(at(n), -1);
  for (int c = 0; c < n; ++c) {
    for (int k = cols.ptr[at(c)]; k < cols.ptr[at(c) + 1]; ++k) {
      if (cols.val[at(k)] != 0.0) add_entry(cols.idx[at(k)], c, cols.val[at(k)]);
    }
  }
  perm_.resize(at(n));
  pos_.resize(at(n));
  std::iota(perm_.begin(), perm_.end(), 0);
  std::iota(pos_.begin(), pos_.end(), 0);
  pivot_mark_.assign(at(n), -1);
  pivot_val_.resize(at(n));
  seen_.assign(at(n), -1);
  int stamp = 0;

  for (int k = 0; k < n; ++k) {
    // Partial pivot: largest |a(i,k)| over positions i >= k, ties to the
    // smallest position (the dense ascending scan with a strict '>').
    double best = 0.0;
    int piv = k, piv_entry = -1;
    for (int e = col_head_[at(k)]; e >= 0; e = ent_[at(e)].next_in_col) {
      const int p = pos_[at(ent_[at(e)].row)];
      if (p < k) continue;
      const double v = std::abs(ent_[at(e)].val);
      if (v > best || (v == best && p < piv)) {
        best = v;
        piv = p;
        piv_entry = e;
      }
    }
    if (best <= tol) return false;
    if (piv != k) {
      std::swap(perm_[at(k)], perm_[at(piv)]);
      pos_[at(perm_[at(k)])] = k;
      pos_[at(perm_[at(piv)])] = piv;
    }
    const int prow = perm_[at(k)];
    const double inv = 1.0 / ent_[at(piv_entry)].val;
    for (int e = row_head_[at(prow)]; e >= 0; e = ent_[at(e)].next_in_row) {
      const int j = ent_[at(e)].col;
      if (j > k) {
        pivot_mark_[at(j)] = k;
        pivot_val_[at(j)] = ent_[at(e)].val;
      }
    }
    for (int e = col_head_[at(k)]; e >= 0; e = ent_[at(e)].next_in_col) {
      const int r = ent_[at(e)].row;
      if (pos_[at(r)] <= k) continue;
      const double l = ent_[at(e)].val * inv;
      ent_[at(e)].val = l;
      if (l == 0.0) continue;
      ++stamp;
      for (int f = row_head_[at(r)]; f >= 0; f = ent_[at(f)].next_in_row) {
        const int j = ent_[at(f)].col;
        if (j > k && pivot_mark_[at(j)] == k) {
          ent_[at(f)].val -= l * pivot_val_[at(j)];
          seen_[at(j)] = stamp;
        }
      }
      for (int f = row_head_[at(prow)]; f >= 0; f = ent_[at(f)].next_in_row) {
        const int j = ent_[at(f)].col;
        if (j > k && seen_[at(j)] != stamp) add_entry(r, j, 0.0 - l * pivot_val_[at(j)]);
      }
    }
  }
  build_factors();
  return true;
}

void SparseLu::build_factors() {
  // A structural zero is +0 in U and +0 * (1 / u(c,c)) in column c of L.
  // Entries holding exactly that value are dropped: the solves replay them.
  diag_.resize(at(n_));
  const auto structural = [&](int p, int c, double v) {
    return v == 0.0 && std::signbit(v) == (c < p && std::signbit(diag_[at(c)]));
  };
  l_cols_.ptr.assign(at(n_) + 1, 0);
  u_cols_.ptr.assign(at(n_) + 1, 0);
  for (int p = 0; p < n_; ++p) {
    for (int e = row_head_[at(perm_[at(p)])]; e >= 0; e = ent_[at(e)].next_in_row) {
      const Entry& en = ent_[at(e)];
      if (en.col == p) {
        diag_[at(p)] = en.val;
      } else if (!structural(p, en.col, en.val)) {
        ++(en.col < p ? l_cols_ : u_cols_).ptr[at(en.col) + 1];
      }
    }
  }
  for (SparseView* f : {&l_cols_, &u_cols_}) {
    for (int c = 0; c < n_; ++c) f->ptr[at(c) + 1] += f->ptr[at(c)];
    f->idx.resize(at(f->ptr[at(n_)]));
    f->val.resize(at(f->ptr[at(n_)]));
  }
  // Rows are scanned by ascending position, so column slices come out in
  // ascending row order.
  std::vector<int> l_fill(l_cols_.ptr.begin(), l_cols_.ptr.end() - 1);
  std::vector<int> u_fill(u_cols_.ptr.begin(), u_cols_.ptr.end() - 1);
  for (int p = 0; p < n_; ++p) {
    for (int e = row_head_[at(perm_[at(p)])]; e >= 0; e = ent_[at(e)].next_in_row) {
      const Entry& en = ent_[at(e)];
      if (en.col == p || structural(p, en.col, en.val)) continue;
      SparseView& f = en.col < p ? l_cols_ : u_cols_;
      const int dst = (en.col < p ? l_fill : u_fill)[at(en.col)]++;
      f.idx[at(dst)] = p;
      f.val[at(dst)] = en.val;
    }
  }
  transpose(l_cols_, n_, l_rows_);
  transpose(u_cols_, n_, u_rows_);
}

// The dense loops also subtract the products of structural zeros. A ±0
// product leaves a sum unchanged unless the sum is -0 and the product -0
// (then it becomes +0), so each pass counts the finished entries whose
// structural product would be -0 and fixes up a -0 sum when one exists.

void SparseLu::solve(std::vector<double>& b) const {
  x_.resize(at(n_));
  for (int i = 0; i < n_; ++i) x_[at(i)] = b[at(perm_[at(i)])];
  // Forward: L y = Pb. Structural L(i,j) is 0 with u(j,j)'s sign.
  const auto neg_l = [&](int j) {
    return std::signbit(diag_[at(j)]) != std::signbit(x_[at(j)]);
  };
  int negs = 0;
  for (int i = 0; i < n_; ++i) {
    double s = slice_sum(x_[at(i)], l_rows_, i, x_);
    if (neg_zero(s) && negs > count_in_slice(l_rows_, i, neg_l)) s = 0.0;
    x_[at(i)] = s;
    negs += neg_l(i) ? 1 : 0;
  }
  // Backward: U x = y. Structural U(i,j) is +0.
  const auto neg_u = [&](int j) { return std::signbit(x_[at(j)]); };
  negs = 0;
  for (int i = n_ - 1; i >= 0; --i) {
    double s = slice_sum(x_[at(i)], u_rows_, i, x_);
    if (neg_zero(s) && negs > count_in_slice(u_rows_, i, neg_u)) s = 0.0;
    x_[at(i)] = s / diag_[at(i)];
    negs += neg_u(i) ? 1 : 0;
  }
  std::copy(x_.begin(), x_.end(), b.begin());
}

void SparseLu::solve_transpose(std::vector<double>& b) const {
  x_.assign(b.begin(), b.end());
  const auto neg = [&](int j) { return std::signbit(x_[at(j)]); };
  // U^T y = b (forward). Structural U(j,i) is +0.
  int negs = 0;
  for (int i = 0; i < n_; ++i) {
    double s = slice_sum(x_[at(i)], u_cols_, i, x_);
    if (neg_zero(s) && negs > count_in_slice(u_cols_, i, neg)) s = 0.0;
    x_[at(i)] = s / diag_[at(i)];
    negs += neg(i) ? 1 : 0;
  }
  // L^T z = y (backward). Structural L(j,i) is 0 with u(i,i)'s sign, so its
  // product is -0 when x(j)'s sign differs from that.
  negs = 0;
  for (int i = n_ - 1; i >= 0; --i) {
    double s = slice_sum(x_[at(i)], l_cols_, i, x_);
    if (neg_zero(s)) {
      const int stored = l_cols_.ptr[at(i) + 1] - l_cols_.ptr[at(i)];
      const int structural_negs = negs - count_in_slice(l_cols_, i, neg);
      const int flips = std::signbit(diag_[at(i)])
                            ? (n_ - 1 - i - stored) - structural_negs
                            : structural_negs;
      if (flips > 0) s = 0.0;
    }
    x_[at(i)] = s;
    negs += neg(i) ? 1 : 0;
  }
  for (int i = 0; i < n_; ++i) b[at(perm_[at(i)])] = x_[at(i)];
}

}  // namespace mth::lp::detail
