// On-board thermal sensor model.
//
// The paper's run-time system reads the platform's digital thermal sensors
// rather than predicting temperature with HotSpot. Real sensors (e.g. Intel
// coretemp) quantize to a fixed step and carry noise; the controller must be
// robust to both, so the model exposes exactly that: a Gaussian-noise +
// uniform-quantization readout of the true junction temperature.
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace rltherm::thermal {

struct SensorConfig {
  Celsius quantizationStep = 0.5;  ///< readout resolution; 0 disables quantization
  Celsius noiseSigma = 0.2;        ///< Gaussian noise added before quantization
  Celsius minReading = 0.0;        ///< clamp floor
  Celsius maxReading = 125.0;      ///< clamp ceiling
  /// What a Dead channel reports. The default (0 degC) sits below any
  /// plausible ambient, so a range check catches dead channels — downstream
  /// consumers must treat sub-ambient readings as implausible rather than
  /// map them to a valid low-aging state (see SafetySupervisor and
  /// ThermalManagerConfig::plausibleFloor). Deliberately NOT clamped to
  /// [minReading, maxReading]: a dead register returns its fixed pattern
  /// regardless of the readout's physical range.
  Celsius deadReading = 0.0;
};

/// Failure-injection modes for robustness testing. Digital thermal sensors
/// fail in characteristic ways: a register that stops updating (stuck-at),
/// a calibration offset that drifts in after aging, excess conversion noise
/// from a marginal supply, or a dead sensor that reads a fixed pattern.
enum class SensorFault {
  None,
  StuckAtLast,     ///< repeats the last healthy reading forever
  ConstantOffset,  ///< healthy reading + a fixed bias
  Dead,            ///< reads SensorConfig::deadReading
  NoiseBurst,      ///< healthy reading + extra N(0, parameter) noise
};

/// A bank of per-core sensors sharing one configuration and RNG stream.
class SensorBank {
 public:
  SensorBank(SensorConfig config, std::uint64_t seed);

  /// Sample the sensors: true temperatures in, noisy quantized readings out
  /// (with any injected faults applied per channel), one per input. `out`
  /// may be `trueTemps` itself.
  void read(std::span<const Celsius> trueTemps, std::span<Celsius> out);
  [[nodiscard]] std::vector<Celsius> read(std::span<const Celsius> trueTemps) {
    std::vector<Celsius> out(trueTemps.size());
    read(trueTemps, out);
    return out;
  }

  /// Sample channel 0 only, THROUGH its fault path — a fault injected on
  /// channel 0 affects readOne exactly as it affects read(). (Single-sensor
  /// callers observe the bank's first channel; there is no separate
  /// fault-free readout.)
  [[nodiscard]] Celsius readOne(Celsius trueTemp);

  /// Inject a fault into one channel. `parameter` is the bias for
  /// ConstantOffset, the extra noise sigma for NoiseBurst (> 0 expected)
  /// and ignored otherwise. Channels are created lazily on first read;
  /// faults may be injected for any channel index up front.
  void injectFault(std::size_t channel, SensorFault fault, Celsius parameter = 0.0);

  /// Heal a channel.
  void clearFault(std::size_t channel);

  [[nodiscard]] SensorFault fault(std::size_t channel) const;

  [[nodiscard]] const SensorConfig& config() const noexcept { return config_; }

 private:
  struct ChannelState {
    SensorFault fault = SensorFault::None;
    Celsius parameter = 0.0;
    Celsius lastHealthy = 0.0;
    bool hasLast = false;
  };

  /// Noise + quantization + clamp, no fault (the healthy readout chain).
  [[nodiscard]] Celsius readHealthy(Celsius trueTemp);
  /// One channel through its fault path; creates the channel if needed.
  [[nodiscard]] Celsius readChannel(std::size_t index, Celsius trueTemp);

  SensorConfig config_;
  Rng rng_;
  std::vector<ChannelState> channels_;
};

}  // namespace rltherm::thermal
