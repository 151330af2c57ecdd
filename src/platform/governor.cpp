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

  std::size_t decide(double utilization, std::size_t /*current*/) override {
    if (utilization >= config_.upThreshold) return table_.size() - 1;
    // Proportional scaling with headroom, as the real governor's
    // "frequency next = max * load / up_threshold" rule.
    const Hertz target =
        table_.highest().frequency * utilization / config_.upThreshold;
    return table_.ceilingIndex(target);
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

  std::size_t decide(double utilization, std::size_t current) override {
    if (utilization >= config_.upThreshold && current + 1 < table_.size()) return current + 1;
    if (utilization <= config_.downThreshold && current > 0) return current - 1;
    return current;
  }

  GovernorKind kind() const noexcept override { return GovernorKind::Conservative; }

 private:
  const power::VfTable& table_;
  ConservativeConfig config_;
};

/// performance, powersave and userspace: one fixed P-state.
class FixedGovernor final : public Governor {
 public:
  FixedGovernor(GovernorKind kind, std::size_t pstate) : kind_(kind), pstate_(pstate) {}
  std::size_t decide(double, std::size_t) override { return pstate_; }
  GovernorKind kind() const noexcept override { return kind_; }

 private:
  GovernorKind kind_;
  std::size_t pstate_;
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
      return std::make_unique<FixedGovernor>(setting.kind, table.size() - 1);
    case GovernorKind::Powersave:
      return std::make_unique<FixedGovernor>(setting.kind, 0);
    case GovernorKind::Userspace:
      expects(setting.userspaceFrequency > 0.0,
              "Userspace governor requires a positive target frequency");
      return std::make_unique<FixedGovernor>(setting.kind,
                                             table.floorIndex(setting.userspaceFrequency));
  }
  throw PreconditionError("makeGovernor: unknown governor kind");
}

}  // namespace rltherm::platform
