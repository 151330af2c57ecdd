#include "platform/machine.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace rltherm::platform {

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
      power_(vfTable_, power::DynamicPowerModel(config.dynamicPower),
             power::LeakagePowerModel(config.leakage)),
      package_(config.thermal, config.coreCount, config.thermalCellsPerCoreSide),
      sensors_(config.sensor, config.sensorSeed),
      scheduler_([&] {
        sched::SchedulerConfig s = config.sched;
        s.coreCount = config.coreCount;
        return std::make_unique<sched::Scheduler>(s);
      }()),
      counters_(config.perf),
      cores_(config.coreCount) {
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
  const std::size_t top = vfTable_.size() - 1;
  for (std::size_t c = 0; c < config.coreCount; ++c) {
    const CoreTypeSpec& type = coreType(c);
    Core& core = cores_[c];
    core.ceiling = type.maxFrequency > 0.0 ? vfTable_.floorIndex(type.maxFrequency) : top;
    core.pstate = core.ceiling;
    core.ipcScale = type.ipcScale;
    core.dynamicPowerScale = type.dynamicPowerScale;
    core.leakageScale = type.leakageScale;
  }
  package_.prepare(config.tick);
  if (config.warmStart) {
    // Idle steady state: lowest operating point, no workload activity.
    // Leakage depends on temperature, so fixed-point iterate a few times.
    for (int pass = 0; pass < 3; ++pass) {
      std::vector<Watts> corePower(config.coreCount);
      for (std::size_t c = 0; c < config.coreCount; ++c) {
        const Celsius t = package_.coreMeanTemperature(c);
        corePower[c] = power_.dynamic(0, 0.0, cores_[c].dynamicPowerScale) +
                       power_.leakage(0, t, cores_[c].leakageScale);
      }
      thermal::RcNetwork& network = package_.network();
      network.setTemperatures(network.steadyState(package_.nodePower(corePower)));
    }
  }
  for (const power::OperatingPoint& op : vfTable_.points()) {
    tickWork_.push_back(config.tick * (op.frequency / vfTable_.highest().frequency));
  }
  corePowerScratch_.assign(config.coreCount, 0.0);
  coreMeanScratch_.assign(config.coreCount, 0.0);
  corePeakScratch_.assign(config.coreCount, 0.0);
  executed_.reserve(config.coreCount);
  setGovernor(config.initialGovernor);
}

const CoreTypeSpec& Machine::coreType(std::size_t core) const {
  static const CoreTypeSpec kHomogeneous{};
  expects(core < config_.coreCount, "coreType: core index out of range");
  return config_.coreTypes.empty() ? kHomogeneous : config_.coreTypes[core];
}

void Machine::installGovernor(Core& core, const GovernorSetting& setting) {
  core.governor = makeGovernor(setting, vfTable_);
  if (setting.kind == GovernorKind::Performance || setting.kind == GovernorKind::Powersave ||
      setting.kind == GovernorKind::Userspace) {
    // These governors hold one P-state whatever they are asked.
    core.pstate = std::min(core.governor->decide(0.0, core.pstate), core.ceiling);
  }
}

void Machine::setGovernor(const GovernorSetting& setting) {
  lastGovernorRequest_ = setting;
  // The interposer (fault injection) may swallow the request — and may
  // itself call setCoreGovernor, so it must run before any state changes.
  if (governorInterposer_ && !governorInterposer_(setting)) return;
  for (Core& core : cores_) installGovernor(core, setting);
  governorSetting_ = setting;
}

TickResult Machine::tick(ActivityFn activityOf) {
  const Seconds dt = config_.tick;
  const std::span<const power::OperatingPoint> points = vfTable_.points();

  // Per-core cell aggregates, once per tick: the throttle check and the
  // leakage term both read the pre-step temperatures.
  package_.coreTemperatures(coreMeanScratch_, corePeakScratch_);

  // Hardware thermal protection (PROCHOT): engage the clamp the moment a
  // junction crosses the trip temperature, release below the hysteresis
  // band. The clamp overrides every software frequency request.
  if (config_.throttleTemp > 0.0) {
    for (std::size_t c = 0; c < cores_.size(); ++c) {
      Core& core = cores_[c];
      const Celsius junction = corePeakScratch_[c];
      if (!core.throttled && junction >= config_.throttleTemp) {
        core.throttled = true;
        ++throttleEvents_;
      } else if (core.throttled &&
                 junction <= config_.throttleTemp - config_.throttleHysteresis) {
        core.throttled = false;
      }
      if (core.throttled) core.pstate = 0;
    }
  }

  const sched::Dispatch& dispatch = scheduler_->schedule(dt);

  executed_.clear();
  Watts totalDynamic = 0.0;
  Watts totalStatic = 0.0;

  for (std::size_t c = 0; c < cores_.size(); ++c) {
    Core& core = cores_[c];
    const std::optional<ThreadId>& runner = dispatch.running[c];
    double activity = 0.0;
    if (runner) {
      activity = activityOf(*runner);
      expects(activity >= 0.0 && activity <= 1.0, "Thread activity must be in [0, 1]");
      const double speed = scheduler_->coreSpeed(c);
      counters_.recordExecution(points[core.pstate].frequency, dt, speed,
                                /*coolingDown=*/speed < 1.0);
      if (core.lastRunner != runner) counters_.recordContextSwitch();
      executed_.push_back(ThreadExecution{
          .thread = *runner,
          .core = static_cast<CoreId>(c),
          // During a control-plane stall the thread occupies the core (and
          // burns power) but makes no forward progress. A little core
          // retires proportionally less work per cycle (ipcScale).
          .progress = stallRemaining_ > 0.0 ? 0.0 : tickWork_[core.pstate] * speed * core.ipcScale,
      });
    }
    core.lastRunner = runner;

    // Dynamic + leakage power for this core from the per-P-state tables, in
    // the same pass that dispatched it; the thermal package reads
    // corePowerScratch_ directly. An offline (retired) core is power-gated:
    // no dynamic switching and no leakage, so its node cools toward ambient.
    Watts corePower = 0.0;
    if (scheduler_->coreOnline(static_cast<CoreId>(c))) {
      const Watts dyn = power_.dynamic(core.pstate, activity, core.dynamicPowerScale);
      const Watts leak = power_.leakage(core.pstate, coreMeanScratch_[c], core.leakageScale);
      RLTHERM_ENSURE(dyn >= 0.0 && leak >= 0.0 && std::isfinite(dyn + leak),
                     "Machine::tick: core power must be finite and >= 0");
      corePower = dyn + leak;
      totalDynamic += dyn;
      totalStatic += leak;
    }
    corePowerScratch_[c] = corePower;
    core.windowActivity += activity;
  }
  ++windowTicks_;

  // Migration accounting (scheduler counts them; mirror into perf counters).
  const std::uint64_t migrations = scheduler_->totalMigrations();
  for (std::uint64_t i = lastMigrations_; i < migrations; ++i) counters_.recordMigration();
  lastMigrations_ = migrations;

  // Thermal step with this tick's power map.
  package_.network().step(corePowerScratch_);

  meter_.record(totalDynamic, totalStatic, dt);
  stallRemaining_ = std::max(0.0, stallRemaining_ - dt);
  now_ += dt;

  // Governor sampling period elapsed: let each core's governor pick the next
  // P-state from the utilization observed over the window.
  sinceGovernor_ += dt;
  if (sinceGovernor_ + 1e-12 >= config_.governorPeriod) {
    for (Core& core : cores_) {
      const double utilization = core.windowActivity / static_cast<double>(windowTicks_);
      const std::size_t next = core.governor->decide(utilization, core.pstate);
      core.pstate = core.throttled ? 0 : std::min(next, core.ceiling);
      core.windowActivity = 0.0;
    }
    windowTicks_ = 0;
    sinceGovernor_ = 0.0;
  }

  return TickResult{
      .executed = executed_, .dynamicPower = totalDynamic, .staticPower = totalStatic};
}

void Machine::readSensors(std::span<Celsius> out) {
  expects(out.size() == cores_.size(), "readSensors: one reading per core");
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = package_.corePeakTemperature(c);
  sensors_.read(out, out);
}

void Machine::trueCoreTemperatures(std::span<Celsius> out) const {
  expects(out.size() == cores_.size(), "trueCoreTemperatures: one value per core");
  for (std::size_t c = 0; c < out.size(); ++c) out[c] = package_.coreMeanTemperature(c);
}

std::vector<Hertz> Machine::coreFrequencies() const {
  std::vector<Hertz> frequencies;
  frequencies.reserve(cores_.size());
  for (const Core& core : cores_) frequencies.push_back(vfTable_.point(core.pstate).frequency);
  return frequencies;
}

void Machine::setCoreGovernor(std::size_t core, const GovernorSetting& setting) {
  expects(core < config_.coreCount, "setCoreGovernor: core index out of range");
  installGovernor(cores_[core], setting);
}

bool Machine::throttled(std::size_t core) const {
  expects(core < config_.coreCount, "throttled: core index out of range");
  return cores_[core].throttled;
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
