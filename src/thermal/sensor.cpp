#include "thermal/sensor.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::thermal {

SensorBank::SensorBank(SensorConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  expects(config.quantizationStep >= 0.0, "Sensor quantization step must be >= 0");
  expects(config.noiseSigma >= 0.0, "Sensor noise sigma must be >= 0");
  expects(config.minReading < config.maxReading, "Sensor clamp range is empty");
  expects(std::isfinite(config.deadReading), "Sensor deadReading must be finite");
}

Celsius SensorBank::readHealthy(Celsius trueTemp) {
  RLTHERM_EXPECT(isPhysicalTemperature(trueTemp),
                 "SensorBank: true temperature must be physical");
  Celsius reading = trueTemp;
  if (config_.noiseSigma > 0.0) reading += rng_.gaussian(0.0, config_.noiseSigma);
  if (config_.quantizationStep > 0.0) {
    reading = std::round(reading / config_.quantizationStep) * config_.quantizationStep;
  }
  return std::clamp(reading, config_.minReading, config_.maxReading);
}

Celsius SensorBank::readChannel(std::size_t index, Celsius trueTemp) {
  if (channels_.size() <= index) channels_.resize(index + 1);
  ChannelState& channel = channels_[index];
  const Celsius healthy = readHealthy(trueTemp);
  switch (channel.fault) {
    case SensorFault::None:
      channel.lastHealthy = healthy;
      channel.hasLast = true;
      return healthy;
    case SensorFault::StuckAtLast:
      return channel.hasLast ? channel.lastHealthy : healthy;
    case SensorFault::ConstantOffset:
      return std::clamp(healthy + channel.parameter, config_.minReading,
                        config_.maxReading);
    case SensorFault::Dead:
      return config_.deadReading;
    case SensorFault::NoiseBurst:
      return std::clamp(healthy + rng_.gaussian(0.0, channel.parameter),
                        config_.minReading, config_.maxReading);
  }
  return healthy;  // unreachable; switch covers every SensorFault
}

Celsius SensorBank::readOne(Celsius trueTemp) { return readChannel(0, trueTemp); }

void SensorBank::read(std::span<const Celsius> trueTemps, std::span<Celsius> out) {
  expects(out.size() == trueTemps.size(), "SensorBank::read: one reading per channel");
  if (channels_.size() < trueTemps.size()) channels_.resize(trueTemps.size());
  for (std::size_t i = 0; i < trueTemps.size(); ++i) out[i] = readChannel(i, trueTemps[i]);
}

void SensorBank::injectFault(std::size_t channel, SensorFault fault, Celsius parameter) {
  if (channels_.size() <= channel) channels_.resize(channel + 1);
  channels_[channel].fault = fault;
  channels_[channel].parameter = parameter;
  RLTHERM_ENSURE(channels_[channel].fault == fault,
                 "injectFault: fault must be recorded on the channel");
}

void SensorBank::clearFault(std::size_t channel) {
  injectFault(channel, SensorFault::None);
}

SensorFault SensorBank::fault(std::size_t channel) const {
  return channel < channels_.size() ? channels_[channel].fault : SensorFault::None;
}

}  // namespace rltherm::thermal
