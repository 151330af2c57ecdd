// The entry points of the packed RC step kernel (rc_network.cpp), for the
// equivalence test and the step-kernel benchmark. Library code calls
// RcNetwork::step(), which picks the entry point itself.
//
// All compute out = E temps + (F inputs + d) from one tile body: every
// output row accumulates in its own lane element in column order (products
// and sums, never a fused multiply-add), then h + (f + d). The results are
// therefore bit-identical; only the lane width and the pass plan differ.
// One planner, planPasses(), serves every entry point: it splits the tiles
// into the fewest passes of at most K tiles, pass sizes differing by at most
// one (K = 1 for the baseline, 3 for AVX2, 5 for AVX-512).
#pragma once

#include <cstddef>
#include <span>

#include "thermal/expop_cache.hpp"

namespace rltherm::thermal {

/// The pass plan every entry point shares: `tiles` tiles split into the
/// fewest passes of at most maxTiles tiles, pass sizes differing by at most
/// one, the longer passes first. A lone tail tile would be a latency-bound
/// pass with few accumulators: 9 tiles at maxTiles = 4 run as 3 + 3 + 3,
/// not 4 + 4 + 1.
struct PassPlan {
  std::size_t passes = 0;
  std::size_t shortPass = 0;   ///< tiles in each of the shorter passes
  std::size_t longPasses = 0;  ///< leading passes that take one tile more
  [[nodiscard]] constexpr std::size_t size(std::size_t pass) const noexcept {
    return shortPass + (pass < longPasses ? 1 : 0);
  }
};

[[nodiscard]] constexpr PassPlan planPasses(std::size_t tiles, std::size_t maxTiles) noexcept {
  const std::size_t passes = (tiles + maxTiles - 1) / maxTiles;
  return passes == 0 ? PassPlan{} : PassPlan{passes, tiles / passes, tiles % passes};
}

/// The portable kernel: 2-wide lanes (SSE2 on x86-64), one tile per pass.
/// `out` holds op.offset.size() values (whole tiles).
void applyTilesBaseline(const PreparedStep& op, const double* temps, const double* inputs,
                        double* out) noexcept;

#if defined(__x86_64__)
/// The AVX2 kernel: 4-wide lanes, passes of at most three tiles. Call it
/// only on a host with AVX2 (listed by hostStepKernels()).
void applyTilesAvx2(const PreparedStep& op, const double* temps, const double* inputs,
                    double* out) noexcept;

/// The AVX-512 kernel: 8-wide lanes (one register per tile column), passes
/// of at most five tiles. Call it only on a host with AVX-512F (listed by
/// hostStepKernels()).
void applyTilesAvx512(const PreparedStep& op, const double* temps, const double* inputs,
                      double* out) noexcept;
#endif

using StepKernelFn = void (*)(const PreparedStep&, const double*, const double*,
                              double*) noexcept;

struct StepKernel {
  const char* name;  ///< "baseline", "avx2" or "avx512"
  StepKernelFn apply;
};

/// Every entry point this host can run, baseline first and widest last
/// (each ISA detected once per process).
[[nodiscard]] std::span<const StepKernel> hostStepKernels() noexcept;

/// The entry point RcNetwork::step() takes for an operator of `nodes`
/// nodes: the widest in hostStepKernels() for a multi-tile operator, else
/// "baseline".
[[nodiscard]] const char* stepKernelName(std::size_t nodes) noexcept;

}  // namespace rltherm::thermal
