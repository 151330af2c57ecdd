// The two entry points of the packed RC step kernel (rc_network.cpp), for
// the equivalence test and the step-kernel benchmark. Library code calls
// RcNetwork::step(), which picks the entry point itself.
//
// Both compute out = E temps + (F inputs + d) from one tile body: every
// output row accumulates in its own lane element in column order (products
// and sums, never a fused multiply-add), then h + (f + d). The results are
// therefore bit-identical; only the lane width and the tiles per pass
// differ.
#pragma once

#include <cstddef>

#include "thermal/expop_cache.hpp"

namespace rltherm::thermal {

/// The portable kernel: 2-wide lanes (SSE2 on x86-64), one tile per pass.
/// `out` holds op.offset.size() values (whole tiles).
void applyTilesBaseline(const PreparedStep& op, const double* temps, const double* inputs,
                        double* out) noexcept;

#if defined(__x86_64__)
/// The AVX2 kernel: 4-wide lanes, two tiles per pass. Call it only on a
/// host with AVX2, i.e. when stepKernelName(n) is "avx2" for some n.
void applyTilesAvx2(const PreparedStep& op, const double* temps, const double* inputs,
                    double* out) noexcept;
#endif

/// The entry point RcNetwork::step() takes for an operator of `nodes`
/// nodes: "avx2" for multi-tile operators on an AVX2 host (detected once
/// per process), else "baseline".
[[nodiscard]] const char* stepKernelName(std::size_t nodes) noexcept;

}  // namespace rltherm::thermal
