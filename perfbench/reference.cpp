#include "reference.hpp"

#include <array>
#include <chrono>
#include <cstddef>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace perfbench {
namespace {

constexpr std::size_t kNodes = 66;
constexpr int kProducts = 600;
constexpr double kEntry = 0.001;  // each product scales the vector by 0.066

volatile double g_sink = 0.0;  // keeps the products observable

}  // namespace

double referenceSeconds() {
#if defined(__SSE__)
  const unsigned int csr = _mm_getcsr();
  _mm_setcsr(csr & ~0x8040U);  // clear flush-to-zero and denormals-are-zero
#endif
  static const std::array<double, kNodes * kNodes> matrix = [] {
    std::array<double, kNodes * kNodes> m{};
    m.fill(kEntry);
    return m;
  }();
  std::array<double, kNodes> x{};
  x.fill(1.0 + g_sink);
  std::array<double, kNodes> y{};
  const auto start = std::chrono::steady_clock::now();
  for (int p = 0; p < kProducts; ++p) {
    for (std::size_t i = 0; i < kNodes; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < kNodes; ++j) acc += matrix[i * kNodes + j] * x[j];
      y[i] = acc;
    }
    x = y;
  }
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
  g_sink = x[0];
#if defined(__SSE__)
  _mm_setcsr(csr);
#endif
  return elapsed.count();
}

}  // namespace perfbench
