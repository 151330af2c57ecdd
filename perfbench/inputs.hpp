// The benchmark's generated inputs, as pure functions of (seed, index).
// The workloads map them onto simulator types; perfbench_tests pins that
// one seed always yields the same inputs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct AppChoice {
  std::string family;
  int dataset = 1;

  bool operator==(const AppChoice&) const = default;
};

/// grid64_ondemand simulation i: one of the inter-application workloads
/// with a dataset, both chosen by the seed.
[[nodiscard]] inline AppChoice gridApp(std::uint64_t seed, std::size_t i) {
  static constexpr std::array<const char*, 3> kApps = {"mpeg_dec", "tachyon", "face_rec"};
  const std::uint64_t pick = deriveSeed(seed, Stream::kScenario, i);
  return {kApps.at(pick % kApps.size()), 1 + static_cast<int>((pick >> 16U) % 3)};
}

/// fleet_churn config families: gamma and the two bin counts are
/// fingerprinted, so each family has its own warm-start cache entry.
struct ConfigFamily {
  double gamma;
  std::size_t stressBins;
  std::size_t agingBins;
};
inline constexpr std::array<ConfigFamily, 5> kConfigFamilies = {
    {{0.75, 4, 4}, {0.60, 4, 4}, {0.90, 4, 4}, {0.75, 6, 4}, {0.75, 4, 6}}};
inline constexpr std::array<const char*, 5> kAppFamilies = {"tachyon", "mpeg_dec", "mpeg_enc",
                                                            "face_rec", "sphinx"};

struct TenantInput {
  std::size_t configFamily = 0;  ///< index into kConfigFamilies
  AppChoice app;
  std::uint64_t seed = 0;        ///< sensor + manager RNG seed

  bool operator==(const TenantInput&) const = default;
};

/// fleet_churn tenant i. Tenants 0..4 take config families 0..4 in order,
/// so the first cohort trains every family once; later tenants draw theirs.
[[nodiscard]] inline TenantInput tenantInput(std::uint64_t seed, std::size_t i) {
  TenantInput input;
  input.configFamily = i < kConfigFamilies.size()
                           ? i
                           : deriveSeed(seed, Stream::kTenantConfig, i) % kConfigFamilies.size();
  const std::uint64_t app = deriveSeed(seed, Stream::kTenantApp, i);
  input.app = {kAppFamilies.at(app % kAppFamilies.size()),
               1 + static_cast<int>((app >> 16U) % 3)};
  input.seed = deriveSeed(seed, Stream::kTenantSeed, i);
  return input;
}

}  // namespace perfbench
