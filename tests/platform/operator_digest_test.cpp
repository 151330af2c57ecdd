// Pinned digests of the cold operator build and the warm start.
//
// The packed step operator (expm, the LU solves, the products that fold in
// the input map) and the Machine's warm start (three steady-state solves)
// must not change one bit when the dense kernels under them change: every
// simulated temperature downstream starts here. The digests below were
// recorded with the scalar kernels (i-k-j product, one dot-product solve
// per right-hand-side column, one LU of G per steady-state call) and are
// compared at 1, 2, 4 and 8 cells per core side (6, 18, 66 and 258 nodes).
// They are pinned for x86-64 only, whose baseline ISA rounds every double
// operation the same way at any optimization level.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>

#include "platform/machine.hpp"
#include "thermal/expop_cache.hpp"
#include "thermal/grid_model.hpp"

namespace rltherm::platform {
namespace {

/// FNV-1a(64) over the bit patterns of `values`.
std::uint64_t fnv1a(std::span<const double> values) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const double v : values) {
    unsigned char raw[sizeof(v)];
    std::memcpy(raw, &v, sizeof(v));
    for (const unsigned char byte : raw) {
      hash ^= byte;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

struct PinnedDigest {
  std::size_t side;
  std::uint64_t tiles;
  std::uint64_t offset;
  std::uint64_t warmStart;
};

constexpr PinnedDigest kPinned[] = {
    {1, 0x28bbba0606602349ULL, 0x30d2bd281cd4bad1ULL, 0x1357b97bcf4e3adfULL},
    {2, 0xece2e4c7afdd969dULL, 0x2f33fa5d3cac0254ULL, 0xa1c8b1f894815ca3ULL},
    {4, 0xd673e24074a9a331ULL, 0xe03eddefbc678023ULL, 0xf25da1429d476632ULL},
    {8, 0xaf863990a0864ef7ULL, 0x524d5c8e656c2846ULL, 0xc8e9b1546f27dffaULL},
};

TEST(OperatorDigestTest, PreparedOperatorAndWarmStartMatchPinnedDigests) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "digests are pinned for x86-64";
#endif
  for (const PinnedDigest& pinned : kPinned) {
    MachineConfig config;
    config.thermalCellsPerCoreSide = pinned.side;
    thermal::GridPackage package(config.thermal, config.coreCount, pinned.side);
    package.prepare(config.tick);
    const thermal::PreparedStep& op = *package.network().preparedOperator();
    const Machine machine(config);
    const std::uint64_t tiles = fnv1a(op.tiles);
    const std::uint64_t offset = fnv1a(op.offset);
    const std::uint64_t warmStart = fnv1a(machine.trueCoreTemperatures());
    EXPECT_EQ(tiles, pinned.tiles) << "side " << pinned.side << ": tiles 0x" << std::hex << tiles;
    EXPECT_EQ(offset, pinned.offset)
        << "side " << pinned.side << ": offset 0x" << std::hex << offset;
    EXPECT_EQ(warmStart, pinned.warmStart)
        << "side " << pinned.side << ": warm start 0x" << std::hex << warmStart;
  }
}

}  // namespace
}  // namespace rltherm::platform
