#include "platform/machine.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rltherm::platform {

/// Abstraction over the lumped / grid thermal models: per-core mean and
/// peak temperatures, one exact step per tick, and a steady-state settle
/// used by the warm start.
class ThermalPlant {
 public:
  virtual ~ThermalPlant() = default;
  virtual void prepare(Seconds stepSize) = 0;
  virtual void step(std::span<const Watts> corePower) = 0;
  /// Set every node to the steady state under the given per-core power.
  virtual void settleTo(std::span<const Watts> corePower) = 0;
  [[nodiscard]] virtual Celsius meanTemperature(std::size_t core) const = 0;
  [[nodiscard]] virtual Celsius peakTemperature(std::size_t core) const = 0;
};

namespace {

class LumpedPlant final : public ThermalPlant {
 public:
  explicit LumpedPlant(const thermal::QuadCoreThermalConfig& config)
      : package_(thermal::buildQuadCorePackage(config)) {}

  void prepare(Seconds stepSize) override { package_.prepare(stepSize); }
  void step(std::span<const Watts> corePower) override {
    package_.network.step(corePower);
  }
  void settleTo(std::span<const Watts> corePower) override {
    package_.network.setTemperatures(
        package_.network.steadyState(package_.nodePower(corePower)));
  }
  Celsius meanTemperature(std::size_t core) const override {
    return package_.network.temperature(package_.coreNodes.at(core));
  }
  Celsius peakTemperature(std::size_t core) const override {
    return meanTemperature(core);  // one node per core
  }

 private:
  thermal::QuadCorePackage package_;
};

class GridPlant final : public ThermalPlant {
 public:
  GridPlant(const thermal::QuadCoreThermalConfig& config, std::size_t cellsPerSide)
      : package_([&] {
          thermal::GridThermalConfig grid;
          // Map the lumped quad-core parameters onto the grid model. The
          // grid builder only supports rectangular core layouts; coreCount
          // is arranged as 2 columns like the lumped package.
          grid.coreCols = 2;
          grid.coreRows = (config.coreCount + 1) / 2;
          grid.cellsPerCoreSide = cellsPerSide;
          grid.ambient = config.ambient;
          grid.coreCapacitance = config.coreCapacitance;
          grid.junctionToSpreader = config.junctionToSpreader;
          grid.lateralResistance = config.lateralResistance;
          grid.spreaderCapacitance = config.spreaderCapacitance;
          grid.sinkCapacitance = config.sinkCapacitance;
          grid.spreaderToSink = config.spreaderToSink;
          grid.sinkToAmbient = config.sinkToAmbient;
          return thermal::GridPackage(grid);
        }()),
        coreCount_(config.coreCount) {
    expects(package_.coreCount() == coreCount_,
            "Grid thermal plant requires an even core count (2-column layout)");
  }

  void prepare(Seconds stepSize) override { package_.prepare(stepSize); }
  void step(std::span<const Watts> corePower) override {
    package_.network().step(corePower);
  }
  void settleTo(std::span<const Watts> corePower) override {
    package_.network().setTemperatures(
        package_.network().steadyState(package_.nodePower(corePower)));
  }
  Celsius meanTemperature(std::size_t core) const override {
    return package_.coreMeanTemperature(core);
  }
  Celsius peakTemperature(std::size_t core) const override {
    return package_.corePeakTemperature(core);
  }

 private:
  thermal::GridPackage package_;
  std::size_t coreCount_;
};

std::unique_ptr<ThermalPlant> makePlant(const MachineConfig& config) {
  thermal::QuadCoreThermalConfig t = config.thermal;
  t.coreCount = config.coreCount;
  if (config.thermalCellsPerCoreSide <= 1) {
    return std::make_unique<LumpedPlant>(t);
  }
  return std::make_unique<GridPlant>(t, config.thermalCellsPerCoreSide);
}

}  // namespace

std::vector<CoreTypeSpec> bigLittleCoreTypes() {
  const CoreTypeSpec big{
      .name = "big", .ipcScale = 1.0, .dynamicPowerScale = 1.0, .leakageScale = 1.0,
      .maxFrequency = 0.0};
  const CoreTypeSpec little{
      .name = "little", .ipcScale = 0.6, .dynamicPowerScale = 0.35, .leakageScale = 0.5,
      .maxFrequency = 2.0e9};
  return {big, big, little, little};
}

Machine::Machine(const MachineConfig& config)
    : config_(config),
      vfTable_(power::VfTable::defaultQuadCore()),
      dynamicModel_(config.dynamicPower),
      leakageModel_(config.leakage),
      plant_(makePlant(config)),
      sensors_(config.sensor, config.sensorSeed),
      scheduler_([&] {
        sched::SchedulerConfig s = config.sched;
        s.coreCount = config.coreCount;
        return std::make_unique<sched::Scheduler>(s);
      }()),
      counters_(config.perf) {
  expects(config.tick > 0.0, "Machine tick must be > 0");
  expects(config.governorPeriod >= config.tick,
          "Governor period must be at least one tick");
  expects(config.coreTypes.empty() || config.coreTypes.size() == config.coreCount,
          "coreTypes must be empty or have one entry per core");
  for (const CoreTypeSpec& type : config.coreTypes) {
    expects(type.ipcScale > 0.0 && type.dynamicPowerScale > 0.0 &&
                type.leakageScale > 0.0 && type.maxFrequency >= 0.0,
            "CoreTypeSpec scales must be positive");
  }
  expects(config.throttleTemp >= 0.0 && config.throttleHysteresis > 0.0,
          "Invalid thermal-throttle configuration");
  plant_->prepare(config.tick);
  if (config.warmStart) {
    // Idle steady state: lowest operating point, no workload activity.
    // Leakage depends on temperature, so fixed-point iterate a few times.
    const power::OperatingPoint idleOp = vfTable_.lowest();
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<Watts> corePower(config.coreCount);
      for (std::size_t c = 0; c < config.coreCount; ++c) {
        const Celsius t = plant_->meanTemperature(c);
        corePower[c] = dynamicModel_.power(idleOp, 0.0) * coreType(c).dynamicPowerScale +
                       leakageModel_.power(idleOp.voltage, t) * coreType(c).leakageScale;
      }
      plant_->settleTo(corePower);
    }
  }
  coreFrequency_.assign(config.coreCount, vfTable_.highest().frequency);
  throttleActive_.assign(config.coreCount, false);
  windowBusyActivity_.assign(config.coreCount, 0.0);
  windowTicks_.assign(config.coreCount, 0);
  lastRunning_.assign(config.coreCount, std::nullopt);
  corePowerScratch_.assign(config.coreCount, 0.0);
  executed_.reserve(config.coreCount);
  for (const power::OperatingPoint& op : vfTable_.points()) {
    leakageVoltageScale_.push_back(leakageModel_.voltageScale(op.voltage));
  }
  setGovernor(config.initialGovernor);
}

const CoreTypeSpec& Machine::coreType(std::size_t core) const {
  static const CoreTypeSpec kHomogeneous{};
  expects(core < config_.coreCount, "coreType: core index out of range");
  return config_.coreTypes.empty() ? kHomogeneous : config_.coreTypes[core];
}

Hertz Machine::clampForCore(std::size_t core, Hertz f) const {
  const CoreTypeSpec& type = coreType(core);
  if (type.maxFrequency > 0.0 && f > type.maxFrequency) {
    return vfTable_.floorFor(type.maxFrequency).frequency;
  }
  return vfTable_.floorFor(f).frequency;
}

void Machine::setGovernor(const GovernorSetting& setting) {
  lastGovernorRequest_ = setting;
  // The interposer (fault injection) may swallow the request — and may
  // itself call setCoreGovernor, so it must run before any state is torn
  // down here.
  if (governorInterposer_ && !governorInterposer_(setting)) return;
  governors_.clear();
  governors_.reserve(config_.coreCount);
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    governors_.push_back(makeGovernor(setting, vfTable_));
  }
  governorSetting_ = setting;
  // Immediate-effect policies apply right away, as `cpufreq-set -g` does;
  // every request is clamped to the core type's DVFS ceiling.
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    if (setting.kind == GovernorKind::Performance) {
      coreFrequency_[c] = clampForCore(c, vfTable_.highest().frequency);
    } else if (setting.kind == GovernorKind::Powersave) {
      coreFrequency_[c] = clampForCore(c, vfTable_.lowest().frequency);
    } else if (setting.kind == GovernorKind::Userspace) {
      coreFrequency_[c] = clampForCore(c, setting.userspaceFrequency);
    }
  }
}

TickResult Machine::tick(const ActivityFn& activityOf) {
  expects(static_cast<bool>(activityOf), "Machine::tick requires an activity function");
  const Seconds dt = config_.tick;
  const Hertz fmax = vfTable_.highest().frequency;

  // Hardware thermal protection (PROCHOT): engage the clamp the moment a
  // junction crosses the trip temperature, release below the hysteresis
  // band. The clamp overrides every software frequency request.
  if (config_.throttleTemp > 0.0) {
    for (std::size_t c = 0; c < config_.coreCount; ++c) {
      const Celsius junction = plant_->peakTemperature(c);
      if (!throttleActive_[c] && junction >= config_.throttleTemp) {
        throttleActive_[c] = true;
        ++throttleEvents_;
      } else if (throttleActive_[c] &&
                 junction <= config_.throttleTemp - config_.throttleHysteresis) {
        throttleActive_[c] = false;
      }
      if (throttleActive_[c]) coreFrequency_[c] = vfTable_.lowest().frequency;
    }
  }

  const sched::Dispatch& dispatch = scheduler_->schedule(dt);

  executed_.clear();
  std::fill(corePowerScratch_.begin(), corePowerScratch_.end(), 0.0);
  std::vector<Watts>& corePower = corePowerScratch_;
  Watts totalDynamic = 0.0;
  Watts totalStatic = 0.0;

  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    const auto& runner = dispatch.running[c];
    double activity = 0.0;
    if (runner) {
      activity = activityOf(*runner);
      expects(activity >= 0.0 && activity <= 1.0, "Thread activity must be in [0, 1]");
      const double speed = scheduler_->coreSpeed(c);
      const bool coolingDown = speed < 1.0;
      counters_.recordExecution(coreFrequency_[c], dt, speed, coolingDown);
      if (lastRunning_[c] != runner) counters_.recordContextSwitch();
      executed_.push_back(ThreadExecution{
          .thread = *runner,
          .core = static_cast<CoreId>(c),
          // During a control-plane stall the thread occupies the core (and
          // burns power) but makes no forward progress. A little core
          // retires proportionally less work per cycle (ipcScale).
          .progress = stallRemaining_ > 0.0
                          ? 0.0
                          : dt * (coreFrequency_[c] / fmax) * speed * coreType(c).ipcScale,
      });
    }
    lastRunning_[c] = runner;

    // Fused power model: dynamic + leakage for this core computed in the
    // same pass that dispatched it (no separate power loop, no per-tick
    // allocation — the thermal plant reads corePowerScratch_ directly). The
    // leakage voltage factor comes from the per-P-state table built in the
    // constructor. An offline (retired) core is power-gated: no dynamic
    // switching and no leakage, so its node cools toward ambient.
    if (scheduler_->coreOnline(static_cast<CoreId>(c))) {
      const power::OperatingPoint& op = vfTable_.floorFor(coreFrequency_[c]);
      const auto point = static_cast<std::size_t>(&op - vfTable_.points().data());
      const CoreTypeSpec& type = coreType(c);
      const Watts dyn = dynamicModel_.power(op, activity) * type.dynamicPowerScale;
      const Watts leak = leakageModel_.powerScaled(leakageVoltageScale_[point],
                                                   plant_->meanTemperature(c)) *
                         type.leakageScale;
      corePower[c] = dyn + leak;
      totalDynamic += dyn;
      totalStatic += leak;
    }

    windowBusyActivity_[c] += runner ? activity : 0.0;
    ++windowTicks_[c];
  }

  // Migration accounting (scheduler counts them; mirror into perf counters).
  const std::uint64_t migrations = scheduler_->totalMigrations();
  for (std::uint64_t i = lastMigrations_; i < migrations; ++i) counters_.recordMigration();
  lastMigrations_ = migrations;

  // Thermal step with this tick's power map.
  plant_->step(corePower);

  meter_.record(totalDynamic, totalStatic, dt);
  stallRemaining_ = std::max(0.0, stallRemaining_ - dt);
  now_ += dt;

  // Governor sampling period elapsed: let each core's governor pick the next
  // frequency from the utilization observed over the window.
  sinceGovernor_ += dt;
  if (sinceGovernor_ + 1e-12 >= config_.governorPeriod) {
    for (std::size_t c = 0; c < config_.coreCount; ++c) {
      const double utilization =
          windowTicks_[c] == 0
              ? 0.0
              : windowBusyActivity_[c] / static_cast<double>(windowTicks_[c]);
      const Hertz next = governors_[c]->decide(utilization, coreFrequency_[c]);
      coreFrequency_[c] =
          throttleActive_[c] ? vfTable_.lowest().frequency : clampForCore(c, next);
      windowBusyActivity_[c] = 0.0;
      windowTicks_[c] = 0;
    }
    sinceGovernor_ = 0.0;
  }

  return TickResult{
      .executed = executed_, .dynamicPower = totalDynamic, .staticPower = totalStatic};
}

std::vector<Celsius> Machine::readSensors() {
  std::vector<Celsius> hottest(config_.coreCount);
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    hottest[c] = plant_->peakTemperature(c);
  }
  return sensors_.read(hottest);
}

std::vector<Celsius> Machine::trueCoreTemperatures() const {
  std::vector<Celsius> temps(config_.coreCount);
  for (std::size_t c = 0; c < config_.coreCount; ++c) {
    temps[c] = plant_->meanTemperature(c);
  }
  return temps;
}

Machine::~Machine() = default;
Machine::Machine(Machine&&) noexcept = default;
Machine& Machine::operator=(Machine&&) noexcept = default;

std::vector<Hertz> Machine::coreFrequencies() const { return coreFrequency_; }

void Machine::setCoreGovernor(std::size_t core, const GovernorSetting& setting) {
  expects(core < config_.coreCount, "setCoreGovernor: core index out of range");
  governors_[core] = makeGovernor(setting, vfTable_);
  if (setting.kind == GovernorKind::Performance) {
    coreFrequency_[core] = clampForCore(core, vfTable_.highest().frequency);
  } else if (setting.kind == GovernorKind::Powersave) {
    coreFrequency_[core] = clampForCore(core, vfTable_.lowest().frequency);
  } else if (setting.kind == GovernorKind::Userspace) {
    coreFrequency_[core] = clampForCore(core, setting.userspaceFrequency);
  }
}

bool Machine::throttled(std::size_t core) const {
  expects(core < config_.coreCount, "throttled: core index out of range");
  return throttleActive_[core];
}

void Machine::setCoreOnline(std::size_t core, bool online) {
  expects(core < config_.coreCount, "setCoreOnline: core index out of range");
  scheduler_->setCoreOnline(static_cast<CoreId>(core), online);
}

bool Machine::coreOnline(std::size_t core) const {
  expects(core < config_.coreCount, "coreOnline: core index out of range");
  return scheduler_->coreOnline(static_cast<CoreId>(core));
}

void Machine::injectStall(Seconds duration) {
  expects(duration >= 0.0, "injectStall: negative duration");
  stallRemaining_ += duration;
}

void Machine::resetAccounting() {
  meter_.reset();
  counters_.reset();
}

}  // namespace rltherm::platform
