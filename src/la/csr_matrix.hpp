#pragma once

/// \file csr_matrix.hpp
/// Serial compressed-sparse-row matrix: the local block every rank holds.
/// Provides the kernels the solvers are built from (spmv, triangular solves
/// for ILU(0)) plus a COO-triplet builder with duplicate merging.
///
/// SpMV dispatches on la::kernel_mode(): the reference path is the original
/// scalar row loop; the fast path runs four rows in lockstep so the four
/// independent accumulator chains overlap in the pipeline. Each row's
/// products are still added in ascending-slot order, so both paths produce
/// bit-identical results.

#include <cstdint>
#include <span>
#include <vector>

namespace hetero::la {

/// (row, col, value) assembly triplet with *local* indices.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds from triplets; duplicates are summed in input order. `rows`/
  /// `cols` give the matrix shape (cols may exceed rows: ghost columns).
  static CsrMatrix from_triplets(int rows, int cols,
                                 std::span<const Triplet> triplets);

  /// The pattern of the entries (entry_row[k], entry_col[k]), every value
  /// 0, and in `slots` the value slot of each entry: a counting pass over
  /// rows, then a sort of each row's (col, k) keys.
  static CsrMatrix from_pattern(int rows, int cols,
                                std::span<const std::int32_t> entry_row,
                                std::span<const std::int32_t> entry_col,
                                std::vector<std::int32_t>& slots);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::int64_t nonzeros() const {
    return static_cast<std::int64_t>(values_.size());
  }

  std::span<const std::int64_t> row_ptr() const { return row_ptr_; }
  std::span<const int> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }
  /// Mutable values (the assembly replay and Dirichlet elimination
  /// rewrite them in place; the sparsity pattern is fixed).
  std::span<double> values_mut() { return values_; }

  /// y = A x. `x` must have cols() entries, `y` rows() entries.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y += A x.
  void multiply_add(std::span<const double> x, std::span<double> y) const;

  /// Value at (row, col) or 0 when not stored.
  double at(int row, int col) const;

  /// Pointer to the stored slot (row, col), or -1 when not present.
  std::int64_t slot(int row, int col) const;

  /// The main diagonal (missing entries read as 0).
  std::vector<double> diagonal() const;

  /// max |A(i,j) - A(j,i)| over the square part of the matrix (entries
  /// outside min(rows, cols) are ignored). 0 for symmetric matrices —
  /// a diagnostic the FEM tests use to certify assembled operators.
  double symmetry_error() const;

  /// Frobenius norm of the stored values.
  double frobenius_norm() const;

 private:
  void multiply_impl(std::span<const double> x, std::span<double> y,
                     bool accumulate) const;

  int rows_ = 0;
  int cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<int> col_idx_;
  std::vector<double> values_;
};

}  // namespace hetero::la
