#include "common/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.hpp"

namespace rltherm {

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

// The O(n^3) product dominates a cold RcNetwork::prepare. Its entry is
// pinned to a cache line so the vectorized inner loop's alignment, and with
// it the cold-prepare time (about 20% apart between the two 32-byte phases),
// does not depend on how much code the linker places before this file.
__attribute__((aligned(64))) Matrix Matrix::operator*(const Matrix& other) const {
  expects(cols_ == other.rows_, "Matrix shape mismatch in *");
  Matrix result(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        result(i, j) += aik * other(k, j);
      }
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
    const double diag = lu_(col, col);
    for (std::size_t row = col + 1; row < n_; ++row) {
      const double factor = lu_(row, col) / diag;
      lu_(row, col) = factor;
      for (std::size_t j = col + 1; j < n_; ++j) lu_(row, j) -= factor * lu_(col, j);
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
  Matrix x(n_, b.cols());
  std::vector<double> column(n_);
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t i = 0; i < n_; ++i) column[i] = b(i, j);
    const std::vector<double> solved = solve(column);
    for (std::size_t i = 0; i < n_; ++i) x(i, j) = solved[i];
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
