// CPU affinity masks, the mechanism the paper uses to override the Linux
// scheduler's thread placement (pthread_setaffinity_np on the real platform).
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rltherm::sched {

/// A set of cores a thread may run on. Supports up to 32 cores.
class AffinityMask {
 public:
  /// Empty mask (allows nothing); invalid to schedule with.
  constexpr AffinityMask() noexcept = default;

  constexpr explicit AffinityMask(std::uint32_t bits) noexcept : bits_(bits) {}

  /// Mask allowing all of the first `coreCount` cores.
  static constexpr AffinityMask all(std::size_t coreCount) {
    return AffinityMask(coreCount >= 32 ? ~0u : ((1u << coreCount) - 1u));
  }

  /// Mask pinning to a single core.
  static constexpr AffinityMask single(CoreId core) {
    return AffinityMask(1u << static_cast<std::uint32_t>(core));
  }

  /// Mask from an explicit core list.
  static AffinityMask of(const std::vector<CoreId>& cores) {
    std::uint32_t bits = 0;
    for (const CoreId c : cores) {
      expects(c >= 0 && c < 32, "AffinityMask core id out of range");
      bits |= 1u << static_cast<std::uint32_t>(c);
    }
    return AffinityMask(bits);
  }

  [[nodiscard]] constexpr bool allows(CoreId core) const noexcept {
    return core >= 0 && core < 32 && (bits_ & (1u << static_cast<std::uint32_t>(core)));
  }

  [[nodiscard]] constexpr std::uint32_t bits() const noexcept { return bits_; }
  [[nodiscard]] constexpr bool empty() const noexcept { return bits_ == 0; }
  [[nodiscard]] int count() const noexcept { return std::popcount(bits_); }

  /// The cores in ascending order, e.g. "{0,2}".
  [[nodiscard]] std::string toString() const {
    std::string s = "{";
    for (std::uint32_t bits = bits_; bits != 0; bits &= bits - 1) {
      if (s.size() > 1) s += ",";
      s += std::to_string(std::countr_zero(bits));
    }
    return s + "}";
  }

  [[nodiscard]] constexpr bool operator==(const AffinityMask&) const noexcept = default;

 private:
  std::uint32_t bits_ = 0;
};

}  // namespace rltherm::sched
