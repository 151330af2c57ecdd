#include "platform/perf_counters.hpp"

#include "common/error.hpp"

namespace rltherm::platform {

PerfCounters::PerfCounters(PerfCounterConfig config) : config_(config) {
  expects(config.baseIpc > 0.0, "Base IPC must be > 0");
  expects(config.cacheMissPerInstruction >= 0.0, "Cache miss rate must be >= 0");
  expects(config.pageFaultPerInstruction >= 0.0, "Page fault rate must be >= 0");
}

void PerfCounters::recordExecution(Hertz frequency, Seconds dt, double speed,
                                   bool coolingDown) {
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

  // The carries are never negative and stay far below 2^53, so truncating
  // to an integer is exactly std::floor, without the libm call.
  const auto drain = [](double& carry, std::uint64_t& counter) {
    const auto whole = static_cast<std::uint64_t>(carry);
    counter += whole;
    carry -= static_cast<double>(whole);
  };
  drain(cycleCarry_, sample_.cycles);
  drain(instrCarry_, sample_.instructions);
  drain(missCarry_, sample_.cacheMisses);
  drain(faultCarry_, sample_.pageFaults);
}

}  // namespace rltherm::platform
