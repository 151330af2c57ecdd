// The simulated platform: cores with DVFS, the RC thermal package, power
// models, on-board sensors, the Linux-like scheduler, cpufreq governors,
// perf counters and an energy meter — everything the paper's run-time system
// touches on its Intel quad-core, behind one object.
//
// The workload layer drives the machine tick by tick: it registers threads
// with the scheduler, supplies each running thread's switching activity for
// the tick, and receives back how much work each thread completed (work is
// measured in seconds-at-maximum-frequency, so progress = dt * f/f_max *
// speedFactor). The thermal manager under test acts on the machine through
// exactly the two knobs the paper uses: per-thread affinity masks
// (scheduler().setAffinity) and the CPU governor (setGovernor).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "platform/governor.hpp"
#include "platform/perf_counters.hpp"
#include "power/energy_meter.hpp"
#include "power/power_model.hpp"
#include "power/vf_table.hpp"
#include "sched/scheduler.hpp"
#include "thermal/quadcore.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/sensor.hpp"

namespace rltherm::platform {

/// Per-core heterogeneity (the paper's future-work extension to
/// heterogeneous cores, e.g. ARM big.LITTLE). A "little" core retires fewer
/// instructions per cycle, switches less capacitance, leaks less, and may be
/// capped below the table's top frequency.
struct CoreTypeSpec {
  std::string name = "big";
  double ipcScale = 1.0;          ///< performance multiplier (work per cycle)
  double dynamicPowerScale = 1.0; ///< multiplier on C_eff
  double leakageScale = 1.0;      ///< multiplier on leakage power
  Hertz maxFrequency = 0.0;       ///< DVFS ceiling; 0 = unrestricted
};

/// A standard 2-big + 2-little arrangement (cores 0-1 big, 2-3 little).
[[nodiscard]] std::vector<CoreTypeSpec> bigLittleCoreTypes();

struct MachineConfig {
  std::size_t coreCount = 4;
  Seconds tick = 0.01;                     ///< simulator step
  Seconds governorPeriod = 0.1;            ///< cpufreq sampling period
  GovernorSetting initialGovernor{GovernorKind::Ondemand, 0.0};

  /// Per-core types; empty means a homogeneous machine. When non-empty the
  /// size must equal coreCount.
  std::vector<CoreTypeSpec> coreTypes;

  /// Hardware thermal protection (PROCHOT-class): when a core junction
  /// exceeds `throttleTemp`, DVFS force-clamps it to the lowest operating
  /// point until it cools below `throttleTemp - throttleHysteresis`. This is
  /// the firmware backstop that exists UNDER every software policy on real
  /// parts; 0 disables it.
  Celsius throttleTemp = 90.0;
  Celsius throttleHysteresis = 8.0;

  thermal::QuadCoreThermalConfig thermal;  ///< coreCount is overridden
  /// Thermal plant resolution: 1 = lumped (one RC node per core, the
  /// default), N > 1 = HotSpot-style NxN cell grid per core. At grid
  /// resolution the on-board sensor reads each core's HOTTEST cell, as real
  /// per-core DTS sensors report the worst local site. Either plant folds
  /// its core-to-node power map into the prepared RC operator, so each tick
  /// is one exact step driven by the per-core powers (thermal/rc_network.hpp).
  std::size_t thermalCellsPerCoreSide = 1;
  thermal::SensorConfig sensor;
  power::DynamicPowerConfig dynamicPower;
  power::LeakagePowerConfig leakage;
  sched::SchedulerConfig sched;            ///< coreCount is overridden
  PerfCounterConfig perf;

  std::uint64_t sensorSeed = 42;

  /// Start the package at its idle thermal steady state instead of ambient
  /// (a real platform is warm when an experiment starts).
  bool warmStart = true;
};

/// Work completed by one thread during a tick.
struct ThreadExecution {
  ThreadId thread = -1;
  CoreId core = kInvalidCore;
  double progress = 0.0;  ///< work-seconds at f_max completed this tick
};

struct TickResult {
  /// One entry per core that ran a thread, in core order. Views a buffer the
  /// machine owns: valid until the next tick().
  std::span<const ThreadExecution> executed;
  Watts dynamicPower = 0.0;  ///< chip total this tick
  Watts staticPower = 0.0;
};

/// Internal abstraction over the lumped / grid thermal plant (defined in
/// machine.cpp).
class ThermalPlant;

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();
  Machine(Machine&&) noexcept;
  Machine& operator=(Machine&&) noexcept;

  /// Thread activity supplier: called once per running thread per tick with
  /// the thread id; must return switching activity in [0, 1].
  using ActivityFn = std::function<double(ThreadId)>;

  /// Advance the platform by one tick. See class comment for the contract.
  TickResult tick(const ActivityFn& activityOf);

  /// --- control surface (what a thermal manager may touch) ---
  [[nodiscard]] sched::Scheduler& scheduler() noexcept { return *scheduler_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const noexcept { return *scheduler_; }

  /// Install the governor on all cores (per-core instances, shared setting).
  /// When a GovernorInterposer is installed, the request is offered to it
  /// first and silently swallowed if it returns false (the machine keeps its
  /// previous governors). The request is recorded in lastGovernorRequest()
  /// either way, so a supervisor can detect a swallowed actuation by
  /// comparing against governorSetting().
  void setGovernor(const GovernorSetting& setting);

  /// Actuation filter for fault injection: called with each machine-wide
  /// governor request BEFORE it takes effect; return false to swallow it
  /// (a firmware-rejected cpufreq transition). Per-core setCoreGovernor is
  /// NOT gated — the fault model targets the machine-wide cpufreq path.
  /// Pass nullptr to remove.
  using GovernorInterposer = std::function<bool(const GovernorSetting&)>;
  void setGovernorInterposer(GovernorInterposer interposer) {
    governorInterposer_ = std::move(interposer);
  }

  /// The most recent machine-wide governor REQUEST (what the last caller of
  /// setGovernor asked for), independent of whether an interposer let it
  /// take effect. The constructor's initial setGovernor counts as the first
  /// request, so this is never nullopt on a constructed machine.
  [[nodiscard]] const std::optional<GovernorSetting>& lastGovernorRequest() const noexcept {
    return lastGovernorRequest_;
  }

  /// Inject a control-plane stall: for the next `duration` of simulated
  /// time, threads occupy their cores (consuming power) but make no forward
  /// progress — modelling the syscall/migration/cache-disruption cost of a
  /// thermal-management decision (cpufreq-set plus sched_setaffinity on
  /// every thread). Stalls accumulate.
  void injectStall(Seconds duration);
  [[nodiscard]] const GovernorSetting& governorSetting() const noexcept {
    return governorSetting_;
  }

  /// Install a governor on ONE core (per-core cpufreq policy — the paper's
  /// action space controls "the frequency of a core"). The machine-wide
  /// setting reported by governorSetting() is unchanged.
  void setCoreGovernor(std::size_t core, const GovernorSetting& setting);

  /// Whether a core is currently clamped by the hardware thermal throttle.
  [[nodiscard]] bool throttled(std::size_t core) const;
  /// Total number of throttle engagements since construction.
  [[nodiscard]] std::uint64_t throttleEvents() const noexcept { return throttleEvents_; }

  /// Hot-(un)plug a core (permanent or intermittent hardware failure). An
  /// offline core runs no threads (the scheduler evicts and re-places them,
  /// breaking affinity masks that allow no live core) and is power-gated:
  /// it contributes neither dynamic nor leakage power, so it cools toward
  /// ambient. Sensors still read every channel — a dead core's DTS keeps
  /// reporting — which keeps the sensor RNG stream, and therefore replay
  /// determinism, independent of fault timing.
  void setCoreOnline(std::size_t core, bool online);
  [[nodiscard]] bool coreOnline(std::size_t core) const;
  /// Number of cores currently online.
  [[nodiscard]] std::size_t onlineCoreCount() const noexcept {
    return scheduler_->onlineCount();
  }

  /// --- observation surface ---
  /// Sample the on-board sensors (noisy, quantized core temperatures; at
  /// grid resolution these read each core's hottest cell).
  [[nodiscard]] std::vector<Celsius> readSensors();
  /// Ground-truth junction temperatures (available to benches, not intended
  /// for controllers; the paper's system only sees the sensors). Mean cell
  /// temperature per core at grid resolution.
  [[nodiscard]] std::vector<Celsius> trueCoreTemperatures() const;

  [[nodiscard]] std::vector<Hertz> coreFrequencies() const;
  /// The sensor bank (mutable access enables fault injection in tests and
  /// robustness studies).
  [[nodiscard]] thermal::SensorBank& sensors() noexcept { return sensors_; }
  [[nodiscard]] const power::VfTable& vfTable() const noexcept { return vfTable_; }
  [[nodiscard]] const power::EnergyMeter& energyMeter() const noexcept { return meter_; }
  [[nodiscard]] const PerfCounters& perfCounters() const noexcept { return counters_; }
  [[nodiscard]] PerfCounters& perfCounters() noexcept { return counters_; }
  [[nodiscard]] Seconds now() const noexcept { return now_; }
  [[nodiscard]] std::size_t coreCount() const noexcept { return config_.coreCount; }
  [[nodiscard]] Seconds tickLength() const noexcept { return config_.tick; }
  [[nodiscard]] const MachineConfig& config() const noexcept { return config_; }

  /// The type of a core (a default "big" spec on homogeneous machines).
  [[nodiscard]] const CoreTypeSpec& coreType(std::size_t core) const;
  [[nodiscard]] bool heterogeneous() const noexcept { return !config_.coreTypes.empty(); }

  /// Reset energy/counter accounting (thermal state is preserved, as on real
  /// hardware where the package stays warm between runs).
  void resetAccounting();

 private:
  [[nodiscard]] Hertz clampForCore(std::size_t core, Hertz f) const;

  MachineConfig config_;
  power::VfTable vfTable_;
  power::DynamicPowerModel dynamicModel_;
  power::LeakagePowerModel leakageModel_;
  std::unique_ptr<ThermalPlant> plant_;
  thermal::SensorBank sensors_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  power::EnergyMeter meter_;
  PerfCounters counters_;

  GovernorSetting governorSetting_;
  GovernorInterposer governorInterposer_;
  std::optional<GovernorSetting> lastGovernorRequest_;
  std::vector<std::unique_ptr<Governor>> governors_;  // one per core
  std::vector<Hertz> coreFrequency_;
  std::vector<bool> throttleActive_;
  std::uint64_t throttleEvents_ = 0;

  // Governor sampling window accumulation.
  Seconds sinceGovernor_ = 0.0;
  std::vector<double> windowBusyActivity_;  // sum of activity over window ticks
  std::vector<std::size_t> windowTicks_;

  std::vector<std::optional<ThreadId>> lastRunning_;
  std::uint64_t lastMigrations_ = 0;
  Seconds stallRemaining_ = 0.0;
  Seconds now_ = 0.0;

  /// Per-tick scratch (power map fed to the thermal plant, the executions
  /// TickResult views); members so tick() allocates nothing.
  std::vector<Watts> corePowerScratch_;
  std::vector<ThreadExecution> executed_;
  /// LeakagePowerModel::voltageScale of each VF-table point, by index.
  std::vector<double> leakageVoltageScale_;
};

}  // namespace rltherm::platform
