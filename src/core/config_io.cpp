#include "core/config_io.hpp"

#include <limits>
#include <string>

#include "common/error.hpp"

namespace rltherm::core {

namespace {

/// A count key, or `fallback` when absent. Rejects values outside
/// [lo, hi] before any conversion to std::size_t, naming section and key.
std::size_t getCount(const ConfigFile& config, const std::string& section,
                     const std::string& key, std::size_t fallback, long long lo,
                     long long hi = std::numeric_limits<long long>::max()) {
  const long long value = config.getInt(section, key, static_cast<long long>(fallback));
  if (value < lo || value > hi) {
    const std::string range = hi == std::numeric_limits<long long>::max()
                                  ? ">= " + std::to_string(lo)
                                  : "in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    throw PreconditionError("config [" + section + "] " + key + ": " + std::to_string(value) +
                            " must be " + range);
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

RunnerConfig runnerConfigFrom(const ConfigFile& config) {
  RunnerConfig runner;

  platform::MachineConfig& machine = runner.machine;
  machine.coreCount = getCount(config, "machine", "cores", machine.coreCount, 1);
  machine.tick = config.getDouble("machine", "tick", machine.tick);
  machine.governorPeriod =
      config.getDouble("machine", "governor_period", machine.governorPeriod);
  machine.warmStart = config.getBool("machine", "warm_start", machine.warmStart);
  machine.thermalCellsPerCoreSide =
      getCount(config, "machine", "thermal_cells", machine.thermalCellsPerCoreSide, 1);
  if (config.getBool("machine", "big_little", false)) {
    machine.coreTypes = platform::bigLittleCoreTypes();
    expects(machine.coreCount == machine.coreTypes.size(),
            "big_little requires cores = 4");
  }

  thermal::GridThermalConfig& t = machine.thermal;
  t.ambient = config.getDouble("thermal", "ambient", t.ambient);
  t.coreCapacitance = config.getDouble("thermal", "core_capacitance", t.coreCapacitance);
  t.junctionToSpreader =
      config.getDouble("thermal", "junction_to_spreader", t.junctionToSpreader);
  t.lateralResistance =
      config.getDouble("thermal", "lateral_resistance", t.lateralResistance);
  t.spreaderToSink = config.getDouble("thermal", "spreader_to_sink", t.spreaderToSink);
  t.sinkToAmbient = config.getDouble("thermal", "sink_to_ambient", t.sinkToAmbient);
  t.spreaderCapacitance =
      config.getDouble("thermal", "spreader_capacitance", t.spreaderCapacitance);
  t.sinkCapacitance = config.getDouble("thermal", "sink_capacitance", t.sinkCapacitance);

  machine.sensor.quantizationStep =
      config.getDouble("sensor", "quantization", machine.sensor.quantizationStep);
  machine.sensor.noiseSigma =
      config.getDouble("sensor", "noise_sigma", machine.sensor.noiseSigma);

  runner.traceInterval = config.getDouble("runner", "trace_interval", runner.traceInterval);
  runner.maxSimTime = config.getDouble("runner", "max_sim_time", runner.maxSimTime);
  runner.analysisWarmup = config.getDouble("runner", "warmup", runner.analysisWarmup);
  runner.analysisCooldown = config.getDouble("runner", "cooldown", runner.analysisCooldown);
  return runner;
}

ThermalManagerConfig managerConfigFrom(const ConfigFile& config) {
  ThermalManagerConfig manager;
  manager.samplingInterval =
      config.getDouble("manager", "sampling_interval", manager.samplingInterval);
  manager.decisionEpoch =
      config.getDouble("manager", "decision_epoch", manager.decisionEpoch);
  // The bin range FleetService::submit enforces.
  manager.stressBins = getCount(config, "manager", "stress_bins", manager.stressBins, 2, 64);
  manager.agingBins = getCount(config, "manager", "aging_bins", manager.agingBins, 2, 64);
  manager.gamma = config.getDouble("manager", "gamma", manager.gamma);
  manager.adaptiveSampling =
      config.getBool("manager", "adaptive_sampling", manager.adaptiveSampling);
  manager.decisionOverhead =
      config.getDouble("manager", "decision_overhead", manager.decisionOverhead);
  manager.seed = static_cast<std::uint64_t>(
      config.getInt("manager", "seed", static_cast<long long>(manager.seed)));
  manager.intraThresholdAging = config.getDouble("manager", "intra_threshold_aging",
                                                 manager.intraThresholdAging);
  manager.interThresholdAging = config.getDouble("manager", "inter_threshold_aging",
                                                 manager.interThresholdAging);
  return manager;
}

void requireProposedPolicyMachine(const RunnerConfig& runner) {
  if (runner.machine.coreCount != kProposedPolicyCores) {
    const std::string required = std::to_string(kProposedPolicyCores);
    std::string message = "config [machine] cores: ";
    message += std::to_string(runner.machine.coreCount) + " must be " + required +
               " for the proposed policy (its action space is built for " + required +
               " cores)";
    throw PreconditionError(message);
  }
}

}  // namespace rltherm::core
