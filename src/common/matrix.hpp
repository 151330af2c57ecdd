// Small dense linear-algebra kit for the RC thermal network.
//
// A row-major dense matrix with LU factorization (partial pivoting) and a
// scaling-and-squaring matrix exponential. RcNetwork::prepare builds its
// exact step operator from these once per (network, step, input map): expm
// plus two LU solves, O(n^3) in the node count, with n from 6 (the lumped
// quad-core) to a few hundred (fine grids). The related-work section of the
// paper notes that RC thermal models are "difficult to solve using direct
// mathematical techniques such as LU decomposition" at scale; at these node
// counts LU is exact, and the precomputed matrix exponential makes each
// simulation step a single matrix-vector product.
//
// The O(n^3) loops (the product, the elimination and the multi-right-hand-
// side solve) each reduce to one row update, y += a x, which runs through
// the widest entry point the host has (hostRowKernels()). The update is
// element-wise, so every entry point gives the same bits, and the results
// equal those of the textbook scalar loops.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace rltherm {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// Construct from nested initializer lists; all rows must have equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);
  [[nodiscard]] static Matrix diagonal(std::span<const double> entries);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool square() const noexcept { return rows_ == cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }

  /// Row r: cols() contiguous values.
  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    return {data_.data() + r * cols_, cols_};
  }

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  [[nodiscard]] Matrix operator+(const Matrix& other) const;
  [[nodiscard]] Matrix operator-(const Matrix& other) const;
  [[nodiscard]] Matrix operator*(const Matrix& other) const;
  [[nodiscard]] Matrix operator*(double scalar) const;

  /// Matrix-vector product; v.size() must equal cols().
  [[nodiscard]] std::vector<double> operator*(std::span<const double> v) const;

  /// Allocation-free matrix-vector product into a caller-provided buffer,
  /// with the same per-row accumulation order as operator* (so the two are
  /// bit-identical). out.size() must equal rows(); out must not alias v.
  void multiplyInto(std::span<const double> v, std::span<double> out) const;

  [[nodiscard]] Matrix transposed() const;

  /// Maximum absolute row sum (the induced infinity norm).
  [[nodiscard]] double normInf() const noexcept;

  /// Element-wise comparison within tolerance (absolute).
  [[nodiscard]] bool approxEquals(const Matrix& other, double tol) const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Factors once, solves
/// many right-hand sides; used for steady-state thermal solves G*T = P.
class LuFactorization {
 public:
  /// Factorizes a square matrix. Throws PreconditionError if not square and
  /// InvariantError if (numerically) singular.
  explicit LuFactorization(const Matrix& a);

  /// Solve A x = b for x. b.size() must equal the matrix dimension.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B. Every column of X equals solve(span) of that column of
  /// B, bit for bit; the substitutions run on all columns at once.
  [[nodiscard]] Matrix solve(const Matrix& b) const;

  /// Determinant (product of U diagonal with pivot sign).
  [[nodiscard]] double determinant() const noexcept;

 private:
  std::size_t n_ = 0;
  Matrix lu_;                    // packed L (unit diag, below) and U (on/above)
  std::vector<std::size_t> perm_;  // row permutation
  int pivotSign_ = 1;
};

/// y[j] += a * x[j] for j < n: the row update under the dense O(n^3) loops.
/// x and y must not overlap.
using RowUpdateFn = void (*)(double a, const double* x, double* y, std::size_t n) noexcept;

struct RowKernel {
  const char* name;  ///< "baseline", "avx2" or "avx512"
  RowUpdateFn apply;
};

/// Every entry point of the row update this host can run, baseline (2-wide
/// lanes) first and widest last (4-wide AVX2, 8-wide AVX-512F). All give
/// the same bits; the matrix routines take the last.
[[nodiscard]] std::span<const RowKernel> hostRowKernels() noexcept;

/// Matrix inverse via LU (only used for small package matrices).
[[nodiscard]] Matrix inverse(const Matrix& a);

/// Matrix exponential e^A via scaling-and-squaring with a Pade(6) approximant.
/// Accurate to ~1e-12 for the well-conditioned, diagonally dominant matrices
/// arising from RC thermal networks.
[[nodiscard]] Matrix expm(const Matrix& a);

}  // namespace rltherm
