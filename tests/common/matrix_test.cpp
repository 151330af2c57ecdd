#include "common/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rltherm {
namespace {

Matrix randomDiagonallyDominant(std::size_t n, Rng& rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = rng.uniform(-1.0, 1.0);
      rowSum += std::abs(a(i, j));
    }
    a(i, i) = rowSum + rng.uniform(0.5, 2.0);
  }
  return a;
}

TEST(MatrixTest, ZeroInitialized) {
  const Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  const Matrix m = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), PreconditionError);
}

TEST(MatrixTest, IdentityAndDiagonal) {
  const Matrix id = Matrix::identity(3);
  EXPECT_DOUBLE_EQ(id(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(id(0, 1), 0.0);
  const std::vector<double> d = {2.0, 5.0};
  const Matrix diag = Matrix::diagonal(d);
  EXPECT_DOUBLE_EQ(diag(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(diag(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(diag(0, 1), 0.0);
}

TEST(MatrixTest, AdditionSubtractionScaling) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{4.0, 3.0}, {2.0, 1.0}};
  const Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(sum(1, 1), 5.0);
  const Matrix diff = a - b;
  EXPECT_DOUBLE_EQ(diff(0, 0), -3.0);
  const Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, ShapeMismatchThrows) {
  const Matrix a(2, 2);
  const Matrix b(3, 3);
  EXPECT_THROW(a + b, PreconditionError);
  EXPECT_THROW(a * b, PreconditionError);
}

TEST(MatrixTest, KnownProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b = {{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  const std::vector<double> v = {1.0, 1.0};
  const std::vector<double> result = a * std::span<const double>(v);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_DOUBLE_EQ(result[0], 3.0);
  EXPECT_DOUBLE_EQ(result[1], 7.0);
}

TEST(MatrixTest, Transpose) {
  const Matrix a = {{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(MatrixTest, NormInf) {
  const Matrix a = {{1.0, -2.0}, {-3.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.normInf(), 7.0);
}

TEST(LuTest, SolvesKnownSystem) {
  const Matrix a = {{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b = {3.0, 5.0};
  const LuFactorization lu(a);
  const std::vector<double> x = lu.solve(b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(LuTest, DeterminantKnown) {
  const Matrix a = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_NEAR(LuFactorization(a).determinant(), -2.0, 1e-12);
}

TEST(LuTest, DeterminantWithPivoting) {
  // Requires a row swap; checks the pivot sign bookkeeping.
  const Matrix a = {{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuFactorization(a).determinant(), -1.0, 1e-12);
}

TEST(LuTest, SingularMatrixThrows) {
  const Matrix a = {{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(LuFactorization{a}, InvariantError);
}

TEST(LuTest, NonSquareThrows) {
  const Matrix a(2, 3);
  EXPECT_THROW(LuFactorization{a}, PreconditionError);
}

TEST(InverseTest, TimesOriginalIsIdentity) {
  const Matrix a = {{4.0, 7.0}, {2.0, 6.0}};
  const Matrix inv = inverse(a);
  EXPECT_TRUE((a * inv).approxEquals(Matrix::identity(2), 1e-12));
  EXPECT_TRUE((inv * a).approxEquals(Matrix::identity(2), 1e-12));
}

class LuRandomSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuRandomSweep, ResidualIsTiny) {
  Rng rng(GetParam() * 7919 + 1);
  const std::size_t n = GetParam();
  const Matrix a = randomDiagonallyDominant(n, rng);
  std::vector<double> b(n);
  for (double& v : b) v = rng.uniform(-10.0, 10.0);
  const std::vector<double> x = LuFactorization(a).solve(b);
  const std::vector<double> ax = a * std::span<const double>(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuRandomSweep, ::testing::Values(1, 2, 3, 5, 8, 16, 32));

TEST(ExpmTest, ZeroMatrixIsIdentity) {
  const Matrix z(3, 3);
  EXPECT_TRUE(expm(z).approxEquals(Matrix::identity(3), 1e-14));
}

TEST(ExpmTest, DiagonalMatrix) {
  const std::vector<double> d = {-1.0, 2.0};
  const Matrix e = expm(Matrix::diagonal(d));
  EXPECT_NEAR(e(0, 0), std::exp(-1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(2.0), 1e-10);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-12);
}

TEST(ExpmTest, NilpotentMatrixClosedForm) {
  // For strictly upper triangular N with N^2 = 0: e^N = I + N.
  const Matrix n = {{0.0, 3.0}, {0.0, 0.0}};
  const Matrix e = expm(n);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e(0, 1), 3.0, 1e-14);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-14);
}

TEST(ExpmTest, InverseProperty) {
  const Matrix a = {{-0.5, 0.2}, {0.1, -0.8}};
  const Matrix pos = expm(a);
  const Matrix neg = expm(a * -1.0);
  EXPECT_TRUE((pos * neg).approxEquals(Matrix::identity(2), 1e-10));
}

TEST(ExpmTest, SemigroupProperty) {
  const Matrix a = {{-1.2, 0.4, 0.0}, {0.3, -0.9, 0.2}, {0.0, 0.5, -1.5}};
  const Matrix whole = expm(a);
  const Matrix half = expm(a * 0.5);
  EXPECT_TRUE((half * half).approxEquals(whole, 1e-9));
}

TEST(ExpmTest, LargeNormUsesScaling) {
  // Norm far above the Pade radius exercises the scaling-and-squaring path.
  const Matrix a = Matrix::diagonal(std::vector<double>{-30.0, -10.0});
  const Matrix e = expm(a);
  EXPECT_NEAR(e(0, 0), std::exp(-30.0), 1e-18);
  EXPECT_NEAR(e(1, 1), std::exp(-10.0), 1e-9);
}

TEST(ExpmTest, NonSquareThrows) {
  EXPECT_THROW((void)expm(Matrix(2, 3)), PreconditionError);
}

TEST(MatrixTest, MultiplyIntoBitMatchesOperatorStar) {
  // multiplyInto is documented bit-identical to operator* (same accumulation
  // order) — the RC step kernel's bit-identity to the dense two-matvec
  // step leans on this fixed order.
  Rng rng(2024);
  for (const std::size_t n : {1u, 3u, 17u, 40u}) {
    const Matrix a = randomDiagonallyDominant(n, rng);
    std::vector<double> v(n);
    for (double& x : v) x = rng.uniform(-10.0, 10.0);
    const std::vector<double> reference = a * v;
    std::vector<double> out(n, -1.0);
    a.multiplyInto(v, out);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(reference[i], out[i]) << "row " << i << " of n=" << n;
    }
  }
}

TEST(MatrixTest, MultiplyIntoRejectsMismatchedSpans) {
  const Matrix a(2, 3);
  std::vector<double> v(3, 1.0);
  std::vector<double> bad(1, 0.0);
  std::vector<double> good(2, 0.0);
  EXPECT_THROW(a.multiplyInto(std::vector<double>(2, 1.0), good), PreconditionError);
  EXPECT_THROW(a.multiplyInto(v, bad), PreconditionError);
  a.multiplyInto(v, good);  // matching shapes pass
  EXPECT_DOUBLE_EQ(good[0], 0.0);
}

/// A value that exercises the corners of the row update: zeros of both
/// signs, subnormals, and ordinary magnitudes of both signs.
double edgyValue(Rng& rng) {
  switch (rng.uniformInt(6)) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng.uniformInt(1000));
    case 3:
      return -std::numeric_limits<double>::min() * rng.uniform(0.0, 1.0);  // subnormal
    default:
      return rng.uniform(-4.0, 4.0);
  }
}

// Every entry point of the row update gives the baseline's bits: lengths
// 1-70 cover every tail of the 2-, 4- and 8-wide lanes, 258 the largest
// grid, and the scale factors include zeros, subnormals and values whose
// product with x rounds (so a fused multiply-add would show).
TEST(RowKernelTest, EveryEntryPointMatchesBaselineBitwise) {
  const std::span<const RowKernel> kernels = hostRowKernels();
  ASSERT_STREQ(kernels.front().name, "baseline");
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 70; ++n) lengths.push_back(n);
  lengths.push_back(258);
  const double scales[] = {0.0, -0.0, std::numeric_limits<double>::denorm_min(), -1.0 / 3.0,
                           0.7853981633974483, 1e300};
  Rng rng(0x80A7);
  for (const std::size_t n : lengths) {
    std::vector<double> x(n);
    std::vector<double> y0(n);
    for (std::size_t j = 0; j < n; ++j) {
      x[j] = edgyValue(rng);
      y0[j] = edgyValue(rng);
    }
    for (const double a : scales) {
      std::vector<double> expected = y0;
      kernels.front().apply(a, x.data(), expected.data(), n);
      for (const RowKernel& kernel : kernels) {
        std::vector<double> y = y0;
        kernel.apply(a, x.data(), y.data(), n);
        EXPECT_EQ(0, std::memcmp(expected.data(), y.data(), n * sizeof(double)))
            << kernel.name << " differs from the baseline at n = " << n << ", a = " << a;
      }
    }
  }
}

// solve(Matrix) runs both substitutions on all columns at once; each column
// must still get exactly the bits solve(span) gives it.
TEST(LuTest, MultiRhsSolveMatchesColumnSolvesBitwise) {
  Rng rng(0x501E);
  for (const std::size_t n : {1u, 2u, 7u, 9u, 33u, 66u}) {
    Matrix a = randomDiagonallyDominant(n, rng);
    for (std::size_t i = 0; i < n; ++i) a(i, (i + 1) % n) += 3.0;  // force pivoting
    const LuFactorization lu(a);
    for (const std::size_t m : {1u, 4u, 17u, 66u}) {
      Matrix b(n, m);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < m; ++j) b(i, j) = edgyValue(rng);
      }
      const Matrix x = lu.solve(b);
      ASSERT_EQ(x.rows(), n);
      ASSERT_EQ(x.cols(), m);
      std::vector<double> column(n);
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t i = 0; i < n; ++i) column[i] = b(i, j);
        const std::vector<double> expected = lu.solve(column);
        for (std::size_t i = 0; i < n; ++i) {
          const double got = x(i, j);
          ASSERT_EQ(0, std::memcmp(&expected[i], &got, sizeof(double)))
              << "n = " << n << ", m = " << m << ": X(" << i << ", " << j << ") = " << got
              << ", solve(span) gives " << expected[i];
        }
      }
    }
  }
}

// The product keeps the i-k-j order and the zero skip of the scalar loop,
// so it gives that loop's bits.
TEST(MatrixTest, ProductMatchesScalarLoopBitwise) {
  Rng rng(0x9E0D);
  for (const std::size_t n : {1u, 5u, 8u, 13u, 66u}) {
    Matrix a(n, n);
    Matrix b(n, n + 3);
    for (double& v : std::span<double>(&a(0, 0), n * n)) {
      v = rng.uniformInt(4) == 0 ? 0.0 : edgyValue(rng);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n + 3; ++j) b(i, j) = edgyValue(rng);
    }
    Matrix expected(n, n + 3);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        if (a(i, k) == 0.0) continue;
        for (std::size_t j = 0; j < n + 3; ++j) {
          // Rounded on its own, whatever contraction this file is built with.
          const volatile double product = a(i, k) * b(k, j);
          expected(i, j) += product;
        }
      }
    }
    const Matrix got = a * b;
    EXPECT_EQ(0, std::memcmp(expected.data().data(), got.data().data(),
                             expected.data().size() * sizeof(double)))
        << "n = " << n;
  }
}

}  // namespace
}  // namespace rltherm
