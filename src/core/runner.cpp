#include "core/runner.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/simulation.hpp"

namespace rltherm::core {

PolicyRunner::PolicyRunner(RunnerConfig config) : config_(std::move(config)) {
  expects(config_.traceInterval > 0.0, "traceInterval must be > 0");
  expects(config_.maxSimTime > 0.0, "maxSimTime must be > 0");
}

RunResult PolicyRunner::run(const workload::Scenario& scenario,
                            ThermalPolicy& policy) const {
  Simulation sim(config_, /*trace=*/true, policy, scenario);
  sim.advanceTo(config_.maxSimTime);
  return sim.finish();
}

RunResult PolicyRunner::runConcurrent(const std::vector<workload::AppSpec>& apps,
                                      ThermalPolicy& policy, Seconds duration) const {
  expects(duration > 0.0, "runConcurrent: duration must be > 0");
  Simulation sim(config_, /*trace=*/true, policy, apps);
  sim.advanceTo(duration);
  return sim.finish();
}

}  // namespace rltherm::core
