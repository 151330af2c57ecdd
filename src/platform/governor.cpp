#include "platform/governor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/table.hpp"

namespace rltherm::platform {

std::string toString(GovernorKind kind) {
  switch (kind) {
    case GovernorKind::Ondemand: return "ondemand";
    case GovernorKind::Conservative: return "conservative";
    case GovernorKind::Performance: return "performance";
    case GovernorKind::Powersave: return "powersave";
    case GovernorKind::Userspace: return "userspace";
  }
  return "unknown";
}

std::string GovernorSetting::toString() const {
  std::string s = rltherm::platform::toString(kind);
  if (kind == GovernorKind::Userspace) {
    s.append("@").append(formatFixed(userspaceFrequency / 1e9, 1)).append("GHz");
  }
  return s;
}

namespace {

class OndemandGovernor final : public Governor {
 public:
  OndemandGovernor(const power::VfTable& table, OndemandConfig config)
      : table_(table), config_(config) {}

  Hertz decide(double utilization, Hertz /*current*/) override {
    if (utilization >= config_.upThreshold) return table_.highest().frequency;
    // Proportional scaling with headroom, as the real governor's
    // "frequency next = max * load / up_threshold" rule.
    const Hertz target =
        table_.highest().frequency * utilization / config_.upThreshold;
    return table_.ceilingFor(target).frequency;
  }

  GovernorKind kind() const noexcept override { return GovernorKind::Ondemand; }

 private:
  const power::VfTable& table_;
  OndemandConfig config_;
};

class ConservativeGovernor final : public Governor {
 public:
  ConservativeGovernor(const power::VfTable& table, ConservativeConfig config)
      : table_(table), config_(config) {}

  Hertz decide(double utilization, Hertz current) override {
    const std::size_t index = table_.indexOf(table_.floorFor(current).frequency);
    if (utilization >= config_.upThreshold && index + 1 < table_.size()) {
      return table_.point(index + 1).frequency;
    }
    if (utilization <= config_.downThreshold && index > 0) {
      return table_.point(index - 1).frequency;
    }
    return table_.point(index).frequency;
  }

  GovernorKind kind() const noexcept override { return GovernorKind::Conservative; }

 private:
  const power::VfTable& table_;
  ConservativeConfig config_;
};

class PerformanceGovernor final : public Governor {
 public:
  explicit PerformanceGovernor(const power::VfTable& table) : table_(table) {}
  Hertz decide(double, Hertz) override { return table_.highest().frequency; }
  GovernorKind kind() const noexcept override { return GovernorKind::Performance; }

 private:
  const power::VfTable& table_;
};

class PowersaveGovernor final : public Governor {
 public:
  explicit PowersaveGovernor(const power::VfTable& table) : table_(table) {}
  Hertz decide(double, Hertz) override { return table_.lowest().frequency; }
  GovernorKind kind() const noexcept override { return GovernorKind::Powersave; }

 private:
  const power::VfTable& table_;
};

class UserspaceGovernor final : public Governor {
 public:
  UserspaceGovernor(const power::VfTable& table, Hertz target)
      : frequency_(table.floorFor(target).frequency) {}
  Hertz decide(double, Hertz) override { return frequency_; }
  GovernorKind kind() const noexcept override { return GovernorKind::Userspace; }

 private:
  Hertz frequency_;
};

}  // namespace

std::unique_ptr<Governor> makeGovernor(const GovernorSetting& setting,
                                       const power::VfTable& table) {
  switch (setting.kind) {
    case GovernorKind::Ondemand:
      return std::make_unique<OndemandGovernor>(table, OndemandConfig{});
    case GovernorKind::Conservative:
      return std::make_unique<ConservativeGovernor>(table, ConservativeConfig{});
    case GovernorKind::Performance:
      return std::make_unique<PerformanceGovernor>(table);
    case GovernorKind::Powersave:
      return std::make_unique<PowersaveGovernor>(table);
    case GovernorKind::Userspace:
      expects(setting.userspaceFrequency > 0.0,
              "Userspace governor requires a positive target frequency");
      return std::make_unique<UserspaceGovernor>(table, setting.userspaceFrequency);
  }
  throw PreconditionError("makeGovernor: unknown governor kind");
}

}  // namespace rltherm::platform
