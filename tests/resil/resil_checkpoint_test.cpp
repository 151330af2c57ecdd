// Checkpoint compatibility for the resilience extension (format v2): the new
// META fields and the smdp section round-trip bit-exactly, the fingerprint
// covers the fields that change the Q-table's meaning, a version-1 file
// fails with the clean version diagnostic (no silent upgrade), catalogue
// drift on the resilient action space is refused by name, and a supervised
// resilient manager resumes bit-identically through the sweep engine at any
// --jobs count.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/manager_checkpoint.hpp"
#include "core/runner.hpp"
#include "core/safety_supervisor.hpp"
#include "core/thermal_manager.hpp"
#include "exec/sweep.hpp"
#include "fault/plan.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"

namespace rltherm::store {
namespace {

workload::AppSpec tinyApp(int iterations = 60) {
  workload::AppSpec spec;
  spec.name = "tiny";
  spec.family = "tiny";
  spec.threadCount = 4;
  spec.iterations = iterations;
  spec.burstWorkMean = 0.2;
  spec.burstWorkJitter = 0.2;
  spec.burstActivity = 0.9;
  spec.serialWork = 0.1;
  spec.serialActivity = 0.2;
  spec.performanceConstraint = 0.1;
  return spec;
}

core::ThermalManagerConfig resilientConfig() {
  core::ThermalManagerConfig config;
  config.samplingInterval = 0.5;
  config.decisionEpoch = 2.0;
  config.healthStates = 3;
  config.reward.deliveredWorkWeight = 1.5;
  config.eventTriggeredEpochs = true;
  return config;
}

core::RunnerConfig stormRunner() {
  core::RunnerConfig config;
  config.analysisWarmup = 0.0;
  config.analysisCooldown = 0.0;
  config.maxSimTime = 600.0;
  config.machine.sensor.noiseSigma = 0.0;
  config.machine.sensor.quantizationStep = 0.0;
  fault::FaultPlan plan;
  plan.name = "death";
  plan.events = {{.kind = fault::FaultKind::CoreDead, .start = 60.0, .core = 1}};
  plan.validate();
  config.faults = plan;
  config.replication = workload::ReplicationPlan{.initialDegree = 1, .maxDegree = 3};
  return config;
}

TEST(ResilCheckpointTest, ResilienceMetaAndSmdpSectionRoundTrip) {
  core::ThermalManager manager(resilientConfig(), core::ActionSpace::resilient(4));
  const core::PolicyRunner runner(stormRunner());
  (void)runner.run(workload::Scenario::of({tinyApp()}), manager);

  const PolicyCheckpoint before = manager.captureCheckpoint();
  EXPECT_EQ(before.meta.healthStates, 3u);
  EXPECT_DOUBLE_EQ(before.meta.rewardDeliveredWorkWeight, 1.5);
  EXPECT_TRUE(before.meta.eventTriggeredEpochs);

  const std::string path = testing::TempDir() + "resil_roundtrip.ckpt";
  manager.saveCheckpoint(path);
  const PolicyCheckpoint loaded = loadPolicyCheckpoint(path);
  EXPECT_EQ(loaded.meta.healthStates, before.meta.healthStates);
  EXPECT_EQ(loaded.meta.rewardDeliveredWorkWeight, before.meta.rewardDeliveredWorkWeight);
  EXPECT_EQ(loaded.meta.eventTriggeredEpochs, before.meta.eventTriggeredEpochs);
  EXPECT_EQ(loaded.smdpLastEpochTime, before.smdpLastEpochTime);
  EXPECT_EQ(loaded.smdpEventPending, before.smdpEventPending);
  EXPECT_EQ(loaded.qValues, before.qValues);
  // The whole image is byte-stable through a decode/encode cycle.
  EXPECT_EQ(encodeImage(encodePolicyCheckpoint(loaded)),
            encodeImage(encodePolicyCheckpoint(before)));
  std::filesystem::remove(path);
}

TEST(ResilCheckpointTest, FingerprintCoversHealthAxisAndRewardWeight) {
  core::ThermalManager base(resilientConfig(), core::ActionSpace::resilient(4));
  const PolicyMeta baseMeta = base.captureCheckpoint().meta;

  PolicyMeta differentHealth = baseMeta;
  differentHealth.healthStates = 1;
  EXPECT_NE(fingerprintOf(baseMeta), fingerprintOf(differentHealth));

  PolicyMeta differentWeight = baseMeta;
  differentWeight.rewardDeliveredWorkWeight = 0.0;
  EXPECT_NE(fingerprintOf(baseMeta), fingerprintOf(differentWeight));

  // The event-trigger flag changes WHEN decisions happen but not the table's
  // shape or meaning, so it deliberately stays out of the fingerprint: a
  // checkpoint can be re-evaluated with either epoch mode.
  PolicyMeta differentTrigger = baseMeta;
  differentTrigger.eventTriggeredEpochs = false;
  EXPECT_EQ(fingerprintOf(baseMeta), fingerprintOf(differentTrigger));
}

TEST(ResilCheckpointTest, VersionOneFileFailsWithTheVersionDiagnostic) {
  core::ThermalManager manager(resilientConfig(), core::ActionSpace::resilient(4));
  const std::string path = testing::TempDir() + "resil_v1.ckpt";
  manager.saveCheckpoint(path);

  // Patch the little-endian u32 version field at offset 8 down to 1 — the
  // header is not CRC-protected (each section payload is), so this is
  // exactly what loading a genuine old-format file looks like.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 12u);
  bytes[8] = 1;
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 0;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  try {
    (void)loadPolicyCheckpoint(path);
    FAIL() << "version-1 file must not load";
  } catch (const PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unsupported format version 1"), std::string::npos)
        << message;
    EXPECT_NE(message.find("this build reads version 2"), std::string::npos)
        << message;
  }
  std::filesystem::remove(path);
}

TEST(ResilCheckpointTest, ActionCatalogueDriftIsRefusedByName) {
  core::ThermalManager manager(resilientConfig(), core::ActionSpace::resilient(4));
  PolicyCheckpoint checkpoint = manager.captureCheckpoint();
  // The rep actions are part of the catalogue's identity: toString() carries
  // the "/rep:N" suffix, so a saved resilient catalogue can never be
  // silently satisfied by a standard one.
  ASSERT_FALSE(checkpoint.meta.actionNames.empty());
  EXPECT_NE(checkpoint.meta.actionNames.back().find("/rep:"), std::string::npos);

  checkpoint.meta.actionNames.back() += "-drifted";
  const std::string path = testing::TempDir() + "resil_drift.ckpt";
  savePolicyCheckpoint(path, checkpoint);
  try {
    (void)core::loadManagerFromCheckpoint(path);
    FAIL() << "drifted catalogue must not load";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("action catalogue drifted"),
              std::string::npos)
        << error.what();
  }
  std::filesystem::remove(path);
}

/// Build the supervised resilient policy the acceptance campaign uses.
std::unique_ptr<core::ThermalPolicy> supervisedResilient() {
  return std::make_unique<core::SafetySupervisor>(
      std::make_unique<core::ThermalManager>(resilientConfig(),
                                             core::ActionSpace::resilient(4)),
      core::SafetySupervisorConfig{});
}

TEST(ResilCheckpointTest, SupervisedResilientManagerResumesBitExactly) {
  const core::PolicyRunner runner(stormRunner());
  const workload::Scenario pass1 = workload::Scenario::of({tinyApp()});
  const workload::Scenario pass2 = workload::Scenario::of({tinyApp(80)});

  // Uninterrupted reference: one supervised manager through both passes.
  std::unique_ptr<core::ThermalPolicy> continuous = supervisedResilient();
  (void)runner.run(pass1, *continuous);
  const core::RunResult expected = runner.run(pass2, *continuous);

  // Interrupted: run, checkpoint through the supervisor wrapper, rebuild,
  // resume. The SMDP epoch clock restarts with each run's machine clock, so
  // the run-boundary checkpoint carries everything the resumed manager
  // needs for bit-identity.
  const std::string path = testing::TempDir() + "resil_resume.ckpt";
  std::unique_ptr<core::ThermalPolicy> first = supervisedResilient();
  (void)runner.run(pass1, *first);
  core::savePolicyCheckpointOf(*first, path);

  std::unique_ptr<core::ThermalPolicy> resumed = supervisedResilient();
  core::resumePolicyFromCheckpoint(*resumed, path);
  const core::RunResult actual = runner.run(pass2, *resumed);

  EXPECT_EQ(expected.coreTraces, actual.coreTraces);
  EXPECT_EQ(expected.dynamicEnergy, actual.dynamicEnergy);
  EXPECT_EQ(expected.staticEnergy, actual.staticEnergy);
  EXPECT_EQ(expected.deliveredIterations, actual.deliveredIterations);
  EXPECT_EQ(expected.taintedIterations, actual.taintedIterations);
  EXPECT_EQ(expected.finalDeliveredRatio, actual.finalDeliveredRatio);
  EXPECT_EQ(expected.reliability.cyclingMttfYears, actual.reliability.cyclingMttfYears);
  const core::ThermalManager* a = core::checkpointTarget(*continuous);
  const core::ThermalManager* b = core::checkpointTarget(*resumed);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(encodeImage(encodePolicyCheckpoint(a->captureCheckpoint())),
            encodeImage(encodePolicyCheckpoint(b->captureCheckpoint())));
  std::filesystem::remove(path);
}

TEST(ResilCheckpointTest, ResumedEvaluationIsBitIdenticalAtAnyJobsCount) {
  const std::string path = testing::TempDir() + "resil_zoo.ckpt";
  {
    const core::PolicyRunner runner(stormRunner());
    std::unique_ptr<core::ThermalPolicy> trainee = supervisedResilient();
    (void)runner.run(workload::Scenario::of({tinyApp()}), *trainee);
    core::savePolicyCheckpointOf(*trainee, path);
  }

  const auto buildSpecs = [&] {
    std::vector<exec::RunSpec> specs;
    for (const int iterations : {50, 70, 90}) {
      exec::RunSpec spec;
      spec.label = "eval" + std::to_string(iterations);
      spec.scenario = workload::Scenario::of({tinyApp(iterations)});
      spec.freezeAfterTrain = true;
      spec.runner = stormRunner();
      spec.policy = [](std::uint64_t) { return supervisedResilient(); };
      spec.resumeFrom = path;
      specs.push_back(std::move(spec));
    }
    return specs;
  };

  const exec::SweepResult serial = exec::SweepRunner({.jobs = 1}).run(buildSpecs());
  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    const exec::SweepResult parallel = exec::SweepRunner({.jobs = jobs}).run(buildSpecs());
    ASSERT_EQ(parallel.runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      const core::RunResult& a = serial.runs[i].result;
      const core::RunResult& b = parallel.runs[i].result;
      EXPECT_EQ(a.coreTraces, b.coreTraces) << "jobs " << jobs << " run " << i;
      EXPECT_EQ(a.dynamicEnergy, b.dynamicEnergy);
      EXPECT_EQ(a.deliveredIterations, b.deliveredIterations);
      EXPECT_EQ(a.taintedIterations, b.taintedIterations);
      EXPECT_EQ(a.finalDeliveredRatio, b.finalDeliveredRatio);
      EXPECT_EQ(a.reliability.cyclingMttfYears, b.reliability.cyclingMttfYears);
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace rltherm::store
