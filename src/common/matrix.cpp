#include "common/matrix.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "common/error.hpp"
#include "common/isa.hpp"

namespace rltherm {

namespace {

// Two doubles: one SSE2 register on the baseline x86-64 ISA; four: one AVX2
// register; eight: one AVX-512 register (GCC/Clang vector extension).
using Lane2 = double __attribute__((vector_size(16)));
using Lane4 = double __attribute__((vector_size(32)));
using Lane8 = double __attribute__((vector_size(64)));
template <std::size_t Width>
using LaneOf = std::conditional_t<Width == 8, Lane8, std::conditional_t<Width == 4, Lane4, Lane2>>;

/// The one row-update body: y[j] += a * x[j] for j < n, `Width` values at a
/// time, then the tail at half the width, down to one value at a time.
/// Every element is one rounded product and one rounded add of its own, so
/// the result is the same bits at any width. This file is compiled with
/// -ffp-contract=off, so no entry point fuses the two, not even under a
/// target that has FMA.
template <std::size_t Width>
[[gnu::always_inline]] inline void addScaledRow(double a, const double* x, double* y,
                                                std::size_t n) noexcept {
  using Lane = LaneOf<Width>;
  std::size_t j = 0;
  for (; j + Width <= n; j += Width) {
    Lane xs;
    Lane ys;
    std::memcpy(&xs, x + j, sizeof(xs));
    std::memcpy(&ys, y + j, sizeof(ys));
    ys += a * xs;
    std::memcpy(y + j, &ys, sizeof(ys));
  }
  if constexpr (Width > 2) {
    addScaledRow<Width / 2>(a, x + j, y + j, n - j);
  } else {
    for (; j < n; ++j) y[j] += a * x[j];
  }
}

// Each entry point is pinned to a cache line, so its loop's alignment, and
// with it the cold-prepare time, does not depend on how much code the linker
// places before this file.
__attribute__((aligned(64))) void addScaledRowBaseline(double a, const double* x, double* y,
                                                       std::size_t n) noexcept {
  addScaledRow<2>(a, x, y, n);
}

#if defined(__x86_64__)
[[gnu::target("avx2")]] __attribute__((aligned(64))) void addScaledRowAvx2(
    double a, const double* x, double* y, std::size_t n) noexcept {
  addScaledRow<4>(a, x, y, n);
}

[[gnu::target("avx512f")]] __attribute__((aligned(64))) void addScaledRowAvx512(
    double a, const double* x, double* y, std::size_t n) noexcept {
  addScaledRow<8>(a, x, y, n);
}
#endif

/// The widest row update the host runs; the product, the factorization and
/// the multi-right-hand-side solve all take it.
RowUpdateFn widestRowUpdate() noexcept {
  static const RowUpdateFn kWidest = hostRowKernels().back().apply;
  return kWidest;
}

}  // namespace

std::span<const RowKernel> hostRowKernels() noexcept {
  static const auto kHost = [] {
    std::array<RowKernel, 3> all{};
    std::size_t count = 0;
    all[count++] = RowKernel{"baseline", &addScaledRowBaseline};
#if defined(__x86_64__)
    if (hostHasAvx2()) all[count++] = RowKernel{"avx2", &addScaledRowAvx2};
    if (hostHasAvx512()) all[count++] = RowKernel{"avx512", &addScaledRowAvx512};
#endif
    return std::pair{all, count};
  }();
  return std::span<const RowKernel>(kHost.first).first(kHost.second);
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows.size() == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    expects(row.size() == cols_, "Matrix initializer rows must have equal length");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(std::span<const double> entries) {
  Matrix m(entries.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) m(i, i) = entries[i];
  return m;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "Matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  expects(rows_ == other.rows_ && cols_ == other.cols_, "Matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix result = *this;
  result += other;
  return result;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix result = *this;
  result -= other;
  return result;
}

// The O(n^3) product dominates a cold RcNetwork::prepare. The i-k-j order
// makes the innermost loop a row update, so each output element sums its
// products in k order, as the textbook loop does, whatever the lane width.
Matrix Matrix::operator*(const Matrix& other) const {
  expects(cols_ == other.rows_, "Matrix shape mismatch in *");
  Matrix result(rows_, other.cols_);
  const RowUpdateFn addScaled = widestRowUpdate();
  for (std::size_t i = 0; i < rows_; ++i) {
    double* out = result.row(i).data();
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      addScaled(aik, other.row(k).data(), out, other.cols_);
    }
  }
  return result;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix result = *this;
  result *= scalar;
  return result;
}

std::vector<double> Matrix::operator*(std::span<const double> v) const {
  expects(v.size() == cols_, "Matrix-vector shape mismatch");
  std::vector<double> result(rows_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    result[i] = sum;
  }
  return result;
}

void Matrix::multiplyInto(std::span<const double> v, std::span<double> out) const {
  expects(v.size() == cols_, "Matrix-vector shape mismatch");
  expects(out.size() == rows_, "multiplyInto: output size mismatch");
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) sum += (*this)(i, j) * v[j];
    out[i] = sum;
  }
}

Matrix Matrix::transposed() const {
  Matrix result(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
  return result;
}

double Matrix::normInf() const noexcept {
  double best = 0.0;
  for (std::size_t i = 0; i < rows_; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < cols_; ++j) rowSum += std::abs((*this)(i, j));
    best = std::max(best, rowSum);
  }
  return best;
}

bool Matrix::approxEquals(const Matrix& other, double tol) const noexcept {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::abs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

LuFactorization::LuFactorization(const Matrix& a) : n_(a.rows()), lu_(a), perm_(a.rows()) {
  expects(a.square(), "LU factorization requires a square matrix");
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  const RowUpdateFn addScaled = widestRowUpdate();
  for (std::size_t col = 0; col < n_; ++col) {
    // Partial pivot: pick the largest magnitude entry in this column.
    std::size_t pivot = col;
    double best = std::abs(lu_(col, col));
    for (std::size_t row = col + 1; row < n_; ++row) {
      const double mag = std::abs(lu_(row, col));
      if (mag > best) {
        best = mag;
        pivot = row;
      }
    }
    ensures(best > 1e-300, "LU factorization: matrix is singular");
    if (pivot != col) {
      for (std::size_t j = 0; j < n_; ++j) std::swap(lu_(pivot, j), lu_(col, j));
      std::swap(perm_[pivot], perm_[col]);
      pivotSign_ = -pivotSign_;
    }
    // Row `row` -= factor * row `col`, right of the pivot. y - f*x and
    // y + (-f)*x round the same under round-to-nearest, so the row update
    // takes the negated factor.
    const double diag = lu_(col, col);
    const double* pivotRow = lu_.row(col).data() + col + 1;
    for (std::size_t row = col + 1; row < n_; ++row) {
      const double factor = lu_(row, col) / diag;
      lu_(row, col) = factor;
      addScaled(-factor, pivotRow, lu_.row(row).data() + col + 1, n_ - col - 1);
    }
  }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  expects(b.size() == n_, "LU solve: right-hand side size mismatch");
  std::vector<double> x(n_);
  // Forward substitution with permuted rhs (L has unit diagonal).
  for (std::size_t i = 0; i < n_; ++i) {
    double sum = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum;
  }
  // Back substitution.
  for (std::size_t i = n_; i-- > 0;) {
    double sum = x[i];
    for (std::size_t j = i + 1; j < n_; ++j) sum -= lu_(i, j) * x[j];
    x[i] = sum / lu_(i, i);
  }
  return x;
}

Matrix LuFactorization::solve(const Matrix& b) const {
  expects(b.rows() == n_, "LU solve: matrix right-hand side row mismatch");
  // Both substitutions run on every column at once, a row of X at a time:
  // each column sees the subtractions of solve(span), in the same order,
  // then the same division, so it gets the same bits.
  const std::size_t m = b.cols();
  Matrix x(n_, m);
  const RowUpdateFn addScaled = widestRowUpdate();
  for (std::size_t i = 0; i < n_; ++i) {
    double* xi = x.row(i).data();
    std::copy_n(b.row(perm_[i]).data(), m, xi);
    for (std::size_t j = 0; j < i; ++j) addScaled(-lu_(i, j), x.row(j).data(), xi, m);
  }
  for (std::size_t i = n_; i-- > 0;) {
    double* xi = x.row(i).data();
    for (std::size_t j = i + 1; j < n_; ++j) addScaled(-lu_(i, j), x.row(j).data(), xi, m);
    const double diag = lu_(i, i);
    for (std::size_t c = 0; c < m; ++c) xi[c] /= diag;
  }
  return x;
}

double LuFactorization::determinant() const noexcept {
  double det = pivotSign_;
  for (std::size_t i = 0; i < n_; ++i) det *= lu_(i, i);
  return det;
}

Matrix inverse(const Matrix& a) {
  const LuFactorization lu(a);
  return lu.solve(Matrix::identity(a.rows()));
}

Matrix expm(const Matrix& a) {
  expects(a.square(), "expm requires a square matrix");
  const std::size_t n = a.rows();

  // Scale A by 2^-s so that ||A/2^s||_inf <= 0.5, apply Pade(6), square s times.
  const double norm = a.normInf();
  int s = 0;
  if (norm > 0.5) {
    s = static_cast<int>(std::ceil(std::log2(norm / 0.5)));
  }
  Matrix scaled = a * std::pow(2.0, -s);

  // Pade(6): N = sum c_k A^k, D = sum (-1)^k c_k A^k with
  // c_k = (6! (12-k)!) / (12! k! (6-k)!).
  constexpr int kOrder = 6;
  std::vector<double> c(kOrder + 1);
  c[0] = 1.0;
  for (int k = 1; k <= kOrder; ++k) {
    c[static_cast<std::size_t>(k)] = c[static_cast<std::size_t>(k - 1)] *
                                     static_cast<double>(kOrder - k + 1) /
                                     static_cast<double>(k * (2 * kOrder - k + 1));
  }

  Matrix power = Matrix::identity(n);
  Matrix numer = Matrix::identity(n) * c[0];
  Matrix denom = Matrix::identity(n) * c[0];
  for (int k = 1; k <= kOrder; ++k) {
    power = power * scaled;
    const Matrix term = power * c[static_cast<std::size_t>(k)];
    numer += term;
    if (k % 2 == 0) {
      denom += term;
    } else {
      denom -= term;
    }
  }

  Matrix result = LuFactorization(denom).solve(numer);
  for (int i = 0; i < s; ++i) result = result * result;
  return result;
}

}  // namespace rltherm
