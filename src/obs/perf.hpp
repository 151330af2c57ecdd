// Performance observability: the durable-perf-record primitives shared by
// every bench JSON emitter and by the perf gate in scripts/check.sh.
//
// Three pieces, all deliberately tiny:
//  - BuildFingerprint: what machine/build produced a measurement. Timing
//    numbers are meaningless without it — a baseline taken under ASan on a
//    laptop must never gate a release build on CI — so every perf-bearing
//    JSON artifact (BENCH_*.json, bench/baselines/) carries one, and the perf
//    gate refuses to compare across incompatible ones.
//  - RepStats: robust statistics over K repetitions of a measurement
//    (min/median/MAD/CV). Perf comparisons use the MEDIAN of K reps, never a
//    single shot; the robust CV says how far one report's medians can be
//    trusted.
//  - simSecondsPerWallSecond: the headline throughput metric from the
//    ROADMAP ("simulated seconds per wall second") relating RunResult
//    simulated time to measured wall time.
//
// The JSON field names written here are the schema contract with the perf
// gate in scripts/check.sh (the reader side); bump kPerfSchemaVersion on any
// breaking change. See docs/ARCHITECTURE.md "Performance observability".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rltherm::obs {

class JsonWriter;

/// Schema version stamped into every perf-bearing JSON artifact. Readers
/// (the perf gate in scripts/check.sh) refuse to compare across versions.
inline constexpr std::uint32_t kPerfSchemaVersion = 1;

/// What produced a measurement. Two fingerprints are timing-comparable only
/// when buildType/checked/sanitizers match exactly; a cpuModel mismatch is
/// only noted, since the gate compares reference-normalized times.
struct BuildFingerprint {
  std::string cpuModel;    ///< /proc/cpuinfo "model name", or "unknown"
  std::uint32_t coreCount = 0;
  std::string compiler;    ///< e.g. "gcc 12.2.0"
  std::string buildType;   ///< "optimized" (NDEBUG) or "debug"
  bool checked = false;    ///< runtime contracts compiled in (RLTHERM_CHECKED)
  std::string sanitizers;  ///< "none", "address", "thread", ...
  std::uint32_t schemaVersion = kPerfSchemaVersion;
};

/// The fingerprint of THIS process (computed once, then cached).
[[nodiscard]] const BuildFingerprint& currentFingerprint();

/// Emits `fp` as a JSON object value: the caller has already written the
/// member key (conventionally "fingerprint").
void writeFingerprint(JsonWriter& json, const BuildFingerprint& fp);

/// Robust repetition statistics over K samples of one measurement.
struct RepStats {
  std::size_t reps = 0;
  double min = 0.0;
  double median = 0.0;
  double mad = 0.0;   ///< median absolute deviation from the median
  double cv = 0.0;    ///< robust CV: 1.4826 * mad / median (0 if median == 0)
  double mean = 0.0;
  double max = 0.0;
};

/// Computes RepStats over `samples` (at least one required). Takes the
/// vector by value because the median computation sorts it.
[[nodiscard]] RepStats repStats(std::vector<double> samples);

/// The headline throughput metric: how many simulated seconds one wall-clock
/// second buys. Returns 0 when either input is non-positive (not measured).
[[nodiscard]] double simSecondsPerWallSecond(double simSeconds,
                                             double wallMs) noexcept;

/// Records the headline on the ambient metrics registry, if one is attached:
/// gauge `perf.headline.sim_rate` (simulated seconds per wall second) and
/// counter `perf.reports.write` (perf reports emitted this session). Called
/// by the bench JSON writer so the rate shows up in `--metrics` tables too.
void recordHeadline(double simSeconds, double wallMs);

}  // namespace rltherm::obs
