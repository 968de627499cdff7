#include "la/csr_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/kernels.hpp"
#include "support/error.hpp"

namespace hetero::la {

CsrMatrix CsrMatrix::from_triplets(int rows, int cols,
                                   std::span<const Triplet> triplets) {
  HETERO_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  std::vector<Triplet> sorted(triplets.begin(), triplets.end());
  for (const auto& t : sorted) {
    HETERO_REQUIRE(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols,
                   "triplet index out of range");
  }
  std::sort(sorted.begin(), sorted.end(), [](const Triplet& a,
                                             const Triplet& b) {
    return a.row < b.row || (a.row == b.row && a.col < b.col);
  });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
  m.col_idx_.reserve(sorted.size());
  m.values_.reserve(sorted.size());
  std::size_t i = 0;
  for (int r = 0; r < rows; ++r) {
    while (i < sorted.size() && sorted[i].row == r) {
      const int c = sorted[i].col;
      double v = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        v += sorted[i].value;
        ++i;
      }
      m.col_idx_.push_back(c);
      m.values_.push_back(v);
    }
    m.row_ptr_[static_cast<std::size_t>(r) + 1] =
        static_cast<std::int64_t>(m.col_idx_.size());
  }
  return m;
}

void CsrMatrix::multiply(std::span<const double> x,
                         std::span<double> y) const {
  multiply_impl(x, y, /*accumulate=*/false);
}

void CsrMatrix::multiply_add(std::span<const double> x,
                             std::span<double> y) const {
  multiply_impl(x, y, /*accumulate=*/true);
}

void CsrMatrix::multiply_impl(std::span<const double> x, std::span<double> y,
                              bool accumulate) const {
  HETERO_REQUIRE(static_cast<int>(x.size()) == cols_ &&
                     static_cast<int>(y.size()) == rows_,
                 "spmv: size mismatch");
  const std::int64_t nnz = nonzeros();
  // 2 flops per stored entry; bytes = val+col streams, row_ptr, the y
  // write-back (plus read when accumulating), and one x gather per entry.
  spmv_work().add(2 * nnz,
                  nnz * (8 + 4 + 8) + static_cast<std::int64_t>(rows_) *
                                          (8 + (accumulate ? 16 : 8)));

  if (kernel_mode() == KernelMode::kReference) {
    for (int r = 0; r < rows_; ++r) {
      double acc =
          accumulate ? y[static_cast<std::size_t>(r)] : 0.0;
      const auto begin =
          static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r)]);
      const auto end =
          static_cast<std::size_t>(row_ptr_[static_cast<std::size_t>(r) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        acc += values_[k] * x[static_cast<std::size_t>(col_idx_[k])];
      }
      y[static_cast<std::size_t>(r)] = acc;
    }
    return;
  }

  // Fast path: four rows in lockstep. Each row keeps a private accumulator
  // fed in ascending-slot order — the same chain as the reference loop, so
  // results are bit-identical — while the four chains overlap in the
  // pipeline instead of serializing on one accumulator's latency.
  const std::int64_t* rp = row_ptr_.data();
  const int* ci = col_idx_.data();
  const double* v = values_.data();
  const double* xp = x.data();
  double* yp = y.data();
  int r = 0;
  for (; r + 4 <= rows_; r += 4) {
    std::int64_t k0 = rp[r], k1 = rp[r + 1], k2 = rp[r + 2], k3 = rp[r + 3];
    const std::int64_t e0 = rp[r + 1], e1 = rp[r + 2], e2 = rp[r + 3],
                       e3 = rp[r + 4];
    double a0 = accumulate ? yp[r] : 0.0;
    double a1 = accumulate ? yp[r + 1] : 0.0;
    double a2 = accumulate ? yp[r + 2] : 0.0;
    double a3 = accumulate ? yp[r + 3] : 0.0;
    const std::int64_t m = std::min(std::min(e0 - k0, e1 - k1),
                                    std::min(e2 - k2, e3 - k3));
    for (std::int64_t j = 0; j < m; ++j) {
      a0 += v[k0 + j] * xp[ci[k0 + j]];
      a1 += v[k1 + j] * xp[ci[k1 + j]];
      a2 += v[k2 + j] * xp[ci[k2 + j]];
      a3 += v[k3 + j] * xp[ci[k3 + j]];
    }
    for (std::int64_t k = k0 + m; k < e0; ++k) a0 += v[k] * xp[ci[k]];
    for (std::int64_t k = k1 + m; k < e1; ++k) a1 += v[k] * xp[ci[k]];
    for (std::int64_t k = k2 + m; k < e2; ++k) a2 += v[k] * xp[ci[k]];
    for (std::int64_t k = k3 + m; k < e3; ++k) a3 += v[k] * xp[ci[k]];
    yp[r] = a0;
    yp[r + 1] = a1;
    yp[r + 2] = a2;
    yp[r + 3] = a3;
  }
  for (; r < rows_; ++r) {
    double acc = accumulate ? yp[r] : 0.0;
    const std::int64_t end = rp[r + 1];
    for (std::int64_t k = rp[r]; k < end; ++k) {
      acc += v[k] * xp[ci[k]];
    }
    yp[r] = acc;
  }
}

double CsrMatrix::at(int row, int col) const {
  const std::int64_t s = slot(row, col);
  return s < 0 ? 0.0 : values_[static_cast<std::size_t>(s)];
}

std::int64_t CsrMatrix::slot(int row, int col) const {
  HETERO_REQUIRE(row >= 0 && row < rows_, "slot: row out of range");
  const auto begin = row_ptr_[static_cast<std::size_t>(row)];
  const auto end = row_ptr_[static_cast<std::size_t>(row) + 1];
  const auto* first = col_idx_.data() + begin;
  const auto* last = col_idx_.data() + end;
  const auto* it = std::lower_bound(first, last, col);
  if (it == last || *it != col) {
    return -1;
  }
  return begin + (it - first);
}

double CsrMatrix::symmetry_error() const {
  const int n = std::min(rows_, cols_);
  double err = 0.0;
  for (int r = 0; r < n; ++r) {
    const auto begin = row_ptr_[static_cast<std::size_t>(r)];
    const auto end = row_ptr_[static_cast<std::size_t>(r) + 1];
    for (auto k = begin; k < end; ++k) {
      const int c = col_idx_[static_cast<std::size_t>(k)];
      if (c >= n || c < r) {
        continue;  // scan the upper triangle once
      }
      const double upper = values_[static_cast<std::size_t>(k)];
      const double lower = at(c, r);
      err = std::max(err, std::fabs(upper - lower));
    }
  }
  return err;
}

double CsrMatrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v * v;
  }
  return std::sqrt(sum);
}

std::vector<double> CsrMatrix::diagonal() const {
  std::vector<double> d(static_cast<std::size_t>(rows_), 0.0);
  for (int r = 0; r < rows_ && r < cols_; ++r) {
    d[static_cast<std::size_t>(r)] = at(r, r);
  }
  return d;
}

}  // namespace hetero::la
