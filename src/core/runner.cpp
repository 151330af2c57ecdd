#include "core/runner.hpp"

#include <utility>

#include "common/error.hpp"
#include "core/simulation.hpp"
#include "resil/replicated_driver.hpp"
#include "workload/multi_app.hpp"

namespace rltherm::core {

PolicyRunner::PolicyRunner(RunnerConfig config) : config_(std::move(config)) {
  expects(config_.traceInterval > 0.0, "traceInterval must be > 0");
  expects(config_.maxSimTime > 0.0, "maxSimTime must be > 0");
}

RunResult PolicyRunner::run(const workload::Scenario& scenario,
                            ThermalPolicy& policy) const {
  if (config_.replication.has_value()) {
    Simulation<resil::ReplicatedDriver> sim(config_, /*trace=*/true, policy,
                                            scenario.name, scenario,
                                            *config_.replication);
    sim.advanceTo(config_.maxSimTime);
    return sim.finish();
  }
  Simulation<workload::WorkloadDriver> sim(config_, /*trace=*/true, policy, scenario.name,
                                           scenario);
  sim.advanceTo(config_.maxSimTime);
  return sim.finish();
}

RunResult PolicyRunner::runConcurrent(const std::vector<workload::AppSpec>& apps,
                                      ThermalPolicy& policy, Seconds duration) const {
  expects(duration > 0.0, "runConcurrent: duration must be > 0");
  expects(!config_.replication.has_value(),
          "runConcurrent: replication is not supported in concurrent mode; "
          "clear RunnerConfig::replication");
  std::string scenarioName = "concurrent";
  for (const workload::AppSpec& app : apps) scenarioName += "+" + app.family;
  Simulation<workload::MultiAppDriver> sim(config_, /*trace=*/true, policy,
                                           std::move(scenarioName), apps,
                                           /*restartFinished=*/true);
  sim.advanceTo(duration);
  return sim.finish();
}

}  // namespace rltherm::core
