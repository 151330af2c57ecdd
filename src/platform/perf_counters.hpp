// Synthetic performance counters, standing in for Linux `perf` on the real
// platform. The counters the paper's Fig. 6 tracks (cache misses, page
// faults) are modelled from first-order causes: instructions retired scale
// with frequency and time; miss/fault rates have a workload-dependent base
// and spike after migrations (cold caches / remapped pages).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/types.hpp"

namespace rltherm::platform {

struct PerfCounterConfig {
  double baseIpc = 1.2;                    ///< instructions per cycle at speed 1
  double cacheMissPerInstruction = 2.0e-4; ///< steady-state miss rate
  double migrationMissMultiplier = 8.0;    ///< miss-rate multiplier during cooldown
  double pageFaultPerInstruction = 4.0e-6; ///< steady-state fault rate
  double migrationFaultMultiplier = 6.0;   ///< fault-rate multiplier during cooldown
};

struct PerfCounterSample {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  std::uint64_t cacheMisses = 0;
  std::uint64_t pageFaults = 0;
  std::uint64_t contextSwitches = 0;
  std::uint64_t migrations = 0;
};

/// Accumulates counters tick by tick.
class PerfCounters {
 public:
  explicit PerfCounters(PerfCounterConfig config = {}) : config_(config) {
    expects(config.baseIpc > 0.0, "Base IPC must be > 0");
    expects(config.cacheMissPerInstruction >= 0.0, "Cache miss rate must be >= 0");
    expects(config.pageFaultPerInstruction >= 0.0, "Page fault rate must be >= 0");
  }

  /// Account one tick of one running thread.
  /// @param frequency  the core's clock
  /// @param dt         tick length
  /// @param speed      thread speed factor (< 1 during migration cooldown)
  /// @param coolingDown whether the thread is in its post-migration window
  void recordExecution(Hertz frequency, Seconds dt, double speed, bool coolingDown) {
    expects(frequency > 0.0 && dt > 0.0, "recordExecution: bad frequency or dt");
    expects(speed > 0.0 && speed <= 1.0, "recordExecution: speed must be in (0, 1]");

    const double cycles = frequency * dt;
    const double instructions = cycles * config_.baseIpc * speed;
    const double missRate = config_.cacheMissPerInstruction *
                            (coolingDown ? config_.migrationMissMultiplier : 1.0);
    const double faultRate = config_.pageFaultPerInstruction *
                             (coolingDown ? config_.migrationFaultMultiplier : 1.0);

    cycleCarry_ += cycles;
    instrCarry_ += instructions;
    missCarry_ += instructions * missRate;
    faultCarry_ += instructions * faultRate;

    drain(cycleCarry_, sample_.cycles);
    drain(instrCarry_, sample_.instructions);
    drain(missCarry_, sample_.cacheMisses);
    drain(faultCarry_, sample_.pageFaults);
  }

  void recordContextSwitch() noexcept { ++sample_.contextSwitches; }
  void recordMigration() noexcept { ++sample_.migrations; }

  /// Account the cost of one monitoring pass (sensor read + metric update)
  /// by the run-time system — the source of Fig. 6's falling cache-miss and
  /// page-fault counts as the sampling interval grows.
  void recordMonitoringOverhead(std::uint64_t cacheMisses, std::uint64_t pageFaults) noexcept {
    sample_.cacheMisses += cacheMisses;
    sample_.pageFaults += pageFaults;
  }

  [[nodiscard]] const PerfCounterSample& sample() const noexcept { return sample_; }
  void reset() noexcept { sample_ = PerfCounterSample{}; }

 private:
  /// Moves the whole part of `carry` into `counter`. The carries are never
  /// negative and stay far below 2^53, so truncating to a signed integer
  /// (one instruction each way, where unsigned conversions branch) is
  /// exactly std::floor, without the libm call.
  static void drain(double& carry, std::uint64_t& counter) noexcept {
    const auto whole = static_cast<std::int64_t>(carry);
    counter += static_cast<std::uint64_t>(whole);
    carry -= static_cast<double>(whole);
  }

  PerfCounterConfig config_;
  PerfCounterSample sample_;
  double missCarry_ = 0.0;   // fractional-count carries so small ticks are not lost
  double faultCarry_ = 0.0;
  double instrCarry_ = 0.0;
  double cycleCarry_ = 0.0;
};

}  // namespace rltherm::platform
