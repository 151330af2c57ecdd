// Resilience acceptance campaign: does LEARNED replication beat the safety
// supervisor alone when cores die mid-run?
//
// Both arms replay the same seeded fault storm
// (scenarios/fault_storm_replication.toml: a sensor burst foreshadows a
// permanent core death, then a second core turns intermittent) in the
// workload driver's replicated mode, so delivered-work accounting is
// identical; the arms differ ONLY in what the agent can see and do:
//
//   supervisor   SafetySupervisor around the standard manager — no
//                replication actions, health axis off, fixed decision
//                epochs. Degree stays at 1; every core loss taints the
//                lone replica's in-flight work.
//   replication  SafetySupervisor around the resilience-aware manager —
//                ActionSpace::resilient (rep:1..rep:3 placement-away-from-
//                suspect actions), a 3-level health axis in the Q-state,
//                the delivered-work reward term, and event-triggered SMDP
//                epochs so a detection lets it act immediately.
//
// Acceptance (gated by scripts/check.sh and tests/resil/acceptance_test.cpp):
// the replication arm delivers at least as much merged work, no worse
// cycling MTTF, and spends at most 15% more total energy. The grid runs
// through the sweep engine, so `--jobs N` never changes a number.
#include "resilience_campaign_util.hpp"

int main(int argc, char** argv) {
  using namespace rltherm;
  using namespace rltherm::bench;

  const std::vector<exec::RunSpec> specs = resilienceSpecs(scenarioRoot(argc, argv));
  const exec::SweepResult sweep = exec::SweepRunner(sweepOptions(argc, argv)).run(specs);

  TextTable table({"arm", "delivered_iter", "tainted_iter", "delivered_ratio",
                   "cycling_mttf_y", "aging_mttf_y", "peak_c", "avg_c",
                   "total_energy_j", "completions", "cores_retired"});
  std::vector<std::pair<std::string, double>> extra;
  for (const exec::RunReport& report : sweep.runs) {
    const core::RunResult& result = report.result;
    const Joules totalEnergy = result.dynamicEnergy + result.staticEnergy;
    table.row()
        .cell(report.label)
        .cell(static_cast<long long>(result.deliveredIterations))
        .cell(static_cast<long long>(result.taintedIterations))
        .cell(result.finalDeliveredRatio)
        .cell(result.reliability.cyclingMttfYears)
        .cell(result.reliability.agingMttfYears)
        .cell(static_cast<double>(result.reliability.peakTemp))
        .cell(static_cast<double>(result.reliability.averageTemp))
        .cell(totalEnergy)
        .cell(static_cast<long long>(result.completions.size()))
        .cell(static_cast<long long>(result.faultStats.coresRetired));
    extra.emplace_back("delivered_" + report.label,
                       static_cast<double>(result.deliveredIterations));
    extra.emplace_back("tainted_" + report.label,
                       static_cast<double>(result.taintedIterations));
    extra.emplace_back("mttf_" + report.label, result.reliability.cyclingMttfYears);
    extra.emplace_back("energy_" + report.label, totalEnergy);
  }
  const core::RunResult& supervisorArm = sweep.runs[0].result;
  const core::RunResult& replicationArm = sweep.runs[1].result;
  const Joules supervisorEnergy =
      supervisorArm.dynamicEnergy + supervisorArm.staticEnergy;
  const Joules replicationEnergy =
      replicationArm.dynamicEnergy + replicationArm.staticEnergy;
  extra.emplace_back("energy_ratio", supervisorEnergy > 0.0
                                         ? replicationEnergy / supervisorEnergy
                                         : 0.0);

  printBanner(std::cout, "Resilience campaign (supervisor-only vs learned replication)");
  table.print(std::cout);
  std::cout << "sweep: " << sweep.runs.size() << " runs in "
            << formatFixed(sweep.wallMs, 0) << " ms wall on " << sweep.jobs
            << " jobs (" << formatFixed(sweep.speedup(), 2)
            << "x vs back-to-back)\n";

  const std::string jsonPath = jsonOutputPath(argc, argv, "BENCH_resilience.json");
  if (!jsonPath.empty()) {
    writeJsonReport(table, "resilience", jsonPath, metaOf(sweep), extra);
  }
  return 0;
}
