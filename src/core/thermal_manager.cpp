#include "core/thermal_manager.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "reliability/epoch_kernel.hpp"

namespace rltherm::core {

ThermalManager::ThermalManager(ThermalManagerConfig config, ActionSpace actions)
    : config_(config),
      actions_(std::move(actions)),
      stateSpace_(rl::RangeDiscretizer(std::log10(config.stressRangeLo),
                                       std::log10(config.stressRangeHi),
                                       config.stressBins),
                  rl::RangeDiscretizer(0.0, config.agingRangeHi, config.agingBins),
                  config.healthStates),
      qTable_(stateSpace_.stateCount(), actions_.size(), config.optimisticInit,
              /*firstVisitJump=*/true),
      schedule_([&] {
        rl::LearningRateConfig lr = config.learningRate;
        if (config.scaleExplorationToActions) {
          const double explorationEpochs =
              std::max(3.0, static_cast<double>(actions_.size()) / 2.0);
          lr.decay = std::log(lr.initialAlpha / lr.explorationThreshold) /
                     explorationEpochs;
        }
        return rl::LearningRateSchedule(lr);
      }()),
      rewardParams_(config.reward),
      rng_(config.seed),
      agingParams_(reliability::calibratedAgingParams()),
      fatigueParams_(reliability::defaultFatigueParams()),
      stressMa_(config.movingAverageWindow),
      agingMa_(config.movingAverageWindow) {
  expects(config.samplingInterval > 0.0, "samplingInterval must be > 0");
  expects(config.decisionEpoch >= config.samplingInterval,
          "decisionEpoch must be at least one samplingInterval");
  expects(config.intraThresholdAging < config.interThresholdAging &&
              config.intraThresholdStress < config.interThresholdStress,
          "intra thresholds (L) must be below inter thresholds (U)");
  expects(!config.adaptiveSampling ||
              (config.minSamplingInterval > 0.0 &&
               config.minSamplingInterval <= config.maxSamplingInterval &&
               config.autocorrShrinkBelow < config.autocorrStretchAbove),
          "invalid adaptive-sampling configuration");
  currentSamplingInterval_ = config.samplingInterval;
  samplesPerEpoch_ = static_cast<std::size_t>(
      std::round(config.decisionEpoch / currentSamplingInterval_));
  samplesPerEpoch_ = std::max<std::size_t>(samplesPerEpoch_, 1);
}

void ThermalManager::onStart(PolicyContext& ctx) {
  epochSamples_.assign(ctx.machine.coreCount(), {});
  // SMDP epoch state restarts with the run clock (each run's machine starts
  // at t = 0), exactly like the partial-epoch sample buffers above.
  lastEpochTime_ = 0.0;
  eventPending_ = false;
  healthBin_ = 0;
  avoidMask_ = sched::AffinityMask{};
  // Start from the Linux default so exploration begins from the baseline
  // configuration (Fig. 4: early exploration tracks ondemand).
  ctx.machine.setGovernor({platform::GovernorKind::Ondemand, 0.0});
}

void ThermalManager::onSample(PolicyContext& ctx, std::span<const Celsius> sensorTemps) {
  expects(sensorTemps.size() == epochSamples_.size(),
          "onSample: unexpected sensor count");
  // TRec.push(T) of Algorithm 1 — with a plausibility floor: a sub-ambient
  // reading is physically impossible on a powered package (it is the
  // signature of a dead sensor register, see SensorConfig::deadReading) and
  // must not discretize into a valid low-aging state. Without a
  // SafetySupervisor in front, the manager clamps such readings to the
  // floor so the rainflow/aging inputs stay physical.
  for (std::size_t c = 0; c < sensorTemps.size(); ++c) {
    Celsius reading = sensorTemps[c];
    RLTHERM_EXPECT(std::isfinite(reading),
                   "onSample: sensor reading must be finite");
    if (reading < config_.plausibleFloor) {
      reading = config_.plausibleFloor;
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("manager.samples.implausible").add();
      }
    }
    epochSamples_[c].push_back(reading);
  }
  // Mirror the supervisor's health view (coarse bin + avoid mask) so the
  // epoch's state identification and any replication action see the
  // platform state as of the most recent sample.
  if (ctx.health != nullptr && config_.healthStates > 1) {
    healthBin_ = std::min(ctx.health->degradedLevel(), config_.healthStates - 1);
    avoidMask_ = ctx.health->avoidMask();
  }
  // Epoch trigger: the fixed sample budget, or — with event-triggered SMDP
  // epochs — a supervisor detection closing the epoch at this sample.
  const bool eventFires = eventPending_ && !epochSamples_.front().empty();
  if (epochSamples_.front().size() >= samplesPerEpoch_ || eventFires) {
    // Decision latency: the wall-clock cost of one full epoch (aggregate +
    // detect + learn + act) — the overhead an online deployment of the
    // manager adds every decisionEpoch. Timed only when a metrics registry
    // is attached; wall time never feeds back into the simulation.
    if (obs::MetricsRegistry* metrics = obs::metrics()) {
      const std::uint64_t start = obs::wallClockNs();
      onEpoch(ctx);
      metrics->histogram("manager.epoch.decide", 0.0, 5.0, 50)
          .observe(static_cast<double>(obs::wallClockNs() - start) / 1e6);
    } else {
      onEpoch(ctx);
    }
  }
}

void ThermalManager::onEpoch(PolicyContext& ctx) {
  RLTHERM_TIMED_SCOPE("manager.epoch.aggregate");
  // SMDP bookkeeping: with event-triggered epochs, the discount reflects
  // the ACTUAL sojourn time tau since the previous decision (a full epoch
  // discounts exactly gamma; a detection-shortened epoch discounts less).
  // With the feature off, gammaEff IS config_.gamma — bit-identical.
  const bool eventTriggered = eventPending_;
  eventPending_ = false;
  double gammaEff = config_.gamma;
  if (config_.eventTriggeredEpochs) {
    const Seconds tau =
        std::max(ctx.machine.now() - lastEpochTime_, ctx.machine.tickLength());
    gammaEff = std::pow(config_.gamma, tau / config_.decisionEpoch);
    if (eventTriggered) {
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("manager.epoch.event").add();
      }
      if (obs::events() != nullptr) {
        obs::emit(obs::Event{.name = "manager.epoch.event",
                             .simTime = ctx.machine.now(),
                             .fields = {
                                 obs::field("sojourn_s", tau),
                                 obs::field("gamma_eff", gammaEff),
                             }});
      }
    }
  }
  lastEpochTime_ = ctx.machine.now();
  // --- compute the epoch's stress and aging (chip = worst core) ---
  // Fused single-pass aggregate per trace (bit-identical to the separate
  // rainflow + thermalStress + agingRate calls, see epoch_kernel.hpp).
  double stress = 0.0;
  double aging = 0.0;
  for (const std::vector<Celsius>& trace : epochSamples_) {
    const reliability::EpochTraceAggregate agg = reliability::epochTraceAggregate(
        trace, /*minAmplitude=*/2.0, fatigueParams_, agingParams_);
    stress = std::max(stress, agg.stress);
    aging = std::max(aging, agg.aging);
  }
  RLTHERM_ENSURE(std::isfinite(stress) && stress >= 0.0,
                 "onEpoch: epoch stress must be finite and >= 0");
  RLTHERM_ENSURE(std::isfinite(aging) && aging >= 0.0,
                 "onEpoch: epoch aging rate must be finite and >= 0");
  if (config_.adaptiveSampling) adaptSamplingInterval();
  for (std::vector<Celsius>& trace : epochSamples_) trace.clear();

  const double stressCoord = stressCoordinate(stress);
  const double stressNorm = stateSpace_.stress().normalize(stressCoord);
  const double agingNorm = stateSpace_.aging().normalize(aging);
  stressHistory_.push(stressNorm);
  agingHistory_.push(agingNorm);

  if (frozen_) {
    // Exploitation-only evaluation mode: greedy action, no learning. The
    // control-plane cost of enforcing the decision is still paid.
    const std::size_t state = stateSpace_.stateOf(stressCoord, aging, healthBin_);
    const std::size_t action = qTable_.bestAction(state);
    actions_.apply(action, ctx.machine, ctx.workload, &avoidMask_);
    ctx.machine.injectStall(config_.decisionOverhead);
    logEpoch(EpochRecord{
                 .time = ctx.machine.now(),
                 .state = state,
                 .action = action,
                 .stress = stress,
                 .aging = aging,
                 .reward = 0.0,
                 .alpha = 0.0,
                 .phase = rl::LearningPhase::Exploitation,
                 .qCoverage = qTable_.coverage(),
                 .intraDetected = false,
                 .interDetected = false,
             },
             rl::RewardBreakdown{}, /*epsilon=*/0.0, "none");
    prevState_ = state;
    prevAction_ = action;
    return;
  }

  // --- Section 5.4: moving-average workload-variation detection ---
  bool intra = false;
  bool inter = false;
  stressMa_.push(stressNorm);
  agingMa_.push(agingNorm);
  const double maS = stressMa_.value();
  const double maA = agingMa_.value();
  // Variation detection is only meaningful when the recent stress/aging
  // movement was caused by the WORKLOAD, not by the controller itself.
  // During the exploration phase, and while the optimism-driven action
  // sweep is still churning, the thermal profile swings with the
  // controller's own choices — suppressing detection there prevents the
  // self-triggered reset/restore loop. Once the policy is stable, any MA
  // shift is genuinely the workload's doing.
  const bool exploring = schedule_.phase() == rl::LearningPhase::Exploration;
  const bool policyStable = stableEpochs_ >= config_.movingAverageWindow;
  if (config_.adaptationEnabled && !exploring && policyStable && prevStressMa_ &&
      prevAgingMa_) {
    const double deltaS = std::abs(maS - *prevStressMa_);
    const double deltaA = std::abs(maA - *prevAgingMa_);
    const bool sIntra = deltaS >= config_.intraThresholdStress &&
                        deltaS < config_.interThresholdStress;
    const bool aIntra = deltaA >= config_.intraThresholdAging &&
                        deltaA < config_.interThresholdAging;
    const bool sInter = deltaS >= config_.interThresholdStress;
    const bool aInter = deltaA >= config_.interThresholdAging;
    if (sInter || aInter) {
      // Inter-application variation: start learning from scratch (back to
      // the optimistic prior Q0).
      qTable_.reset(config_.optimisticInit);
      schedule_.reset();
      prevState_.reset();
      inter = true;
      ++interDetections_;
    } else if ((sIntra || aIntra) && qExp_.has_value()) {
      // Intra-application variation: resume from the end-of-exploration
      // Q-table and alpha.
      qTable_.restore(*qExp_);
      schedule_.restoreToExplorationEnd();
      intra = true;
      ++intraDetections_;
    }
  }
  prevStressMa_ = maS;
  prevAgingMa_ = maA;

  // --- state identification, reward, Q update (Eqs. 7 and 8) ---
  const std::size_t state = stateSpace_.stateOf(stressCoord, aging, healthBin_);
  rl::RewardBreakdown breakdown;
  if (prevState_) {
    const rl::RewardInputs inputs{
        .stress = stressCoord,
        .aging = aging,
        .performance = measurePerformanceRatio(ctx),
        .constraint = 1.0,
        .stressDominant = stressHistory_.mean() >= agingHistory_.mean(),
        .deliveredRatio = ctx.workload.deliveredWorkRatio(),
    };
    breakdown = rl::computeRewardDetailed(inputs, stateSpace_, rewardParams_);
    qTable_.update(*prevState_, prevAction_, breakdown.total, state,
                   schedule_.alpha(), gammaEff);
  }
  const double reward = breakdown.total;

  // --- action selection and decode ---
  const double epsilon = schedule_.epsilon();
  const std::size_t action = rl::selectEpsilonGreedy(qTable_, state, epsilon, rng_);
  actions_.apply(action, ctx.machine, ctx.workload, &avoidMask_);
  ctx.machine.injectStall(config_.decisionOverhead);

  // --- bookkeeping: schedule, Q_exp snapshot, instrumentation ---
  schedule_.advance();

  // Track policy stability and keep the "static" Q-table (Q_exp) refreshed
  // with the most recent STABLE policy: once the greedy action has been
  // unchanged across the MA window, the table reflects settled knowledge
  // worth restoring on intra-application variation (Section 5.4).
  stableEpochs_ = (havePrevAction_ && action == prevAction_) ? stableEpochs_ + 1 : 0;
  havePrevAction_ = true;
  if (stableEpochs_ >= config_.movingAverageWindow &&
      schedule_.phase() != rl::LearningPhase::Exploration) {
    // Refresh in place: snapshotInto copy-assigns into the existing buffer,
    // so the steady-state epoch path performs no allocation (asserted by
    // QTableTest.SnapshotIntoMatchesSnapshotWithoutReallocating).
    if (!qExp_) qExp_.emplace();
    qTable_.snapshotInto(*qExp_);
  }

  logEpoch(EpochRecord{
               .time = ctx.machine.now(),
               .state = state,
               .action = action,
               .stress = stress,
               .aging = aging,
               .reward = reward,
               .alpha = schedule_.alpha(),
               .phase = schedule_.phase(),
               .qCoverage = qTable_.coverage(),
               .intraDetected = intra,
               .interDetected = inter,
           },
           breakdown, epsilon, inter ? "inter" : (intra ? "intra" : "none"));

  prevState_ = state;
  prevAction_ = action;
}

void ThermalManager::logEpoch(const EpochRecord& record,
                              const rl::RewardBreakdown& breakdown, double epsilon,
                              const char* detect) {
  epochLog_.push_back(record);
  // Both branches below are skipped entirely — no allocations, no events —
  // unless the corresponding backend is attached to the ambient session.
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("manager.epochs.decide").add();
    metrics->gauge("manager.qtable.coverage").set(record.qCoverage);
    metrics->gauge("manager.alpha.current").set(record.alpha);
    metrics->histogram("manager.reward.observe", -3.0, 2.0, 25).observe(record.reward);
    if (record.interDetected) metrics->counter("manager.variation.inter").add();
    if (record.intraDetected) metrics->counter("manager.variation.intra").add();
  }
  if (obs::events() != nullptr) {
    const rl::StateSpace::Bins bins = stateSpace_.binsOf(record.state);
    const Action& act = actions_.action(record.action);
    obs::emit(obs::Event{
        .name = "manager.epoch.decide",
        .simTime = record.time,
        .fields = {
            obs::field("epoch", static_cast<std::int64_t>(epochLog_.size() - 1)),
            obs::field("state", static_cast<std::int64_t>(record.state)),
            obs::field("stress_bin", static_cast<std::int64_t>(bins.stressBin)),
            obs::field("aging_bin", static_cast<std::int64_t>(bins.agingBin)),
            obs::field("stress", record.stress),
            obs::field("aging", record.aging),
            obs::field("action", static_cast<std::int64_t>(record.action)),
            obs::field("mapping", act.pattern.name),
            obs::field("governor", act.governor.toString()),
            obs::field("reward", record.reward),
            obs::field("reward_safety", breakdown.safety),
            obs::field("reward_perf_penalty", breakdown.performancePenalty),
            obs::field("reward_unsafe", breakdown.unsafe),
            obs::field("alpha", record.alpha),
            obs::field("epsilon", epsilon),
            obs::field("phase", rl::toString(record.phase)),
            obs::field("q_coverage", record.qCoverage),
            obs::field("detect", detect),
            obs::field("frozen", frozen_),
        }});
  }
}

double ThermalManager::stressCoordinate(double stress) const {
  return std::log10(std::max(stress, config_.stressRangeLo));
}

double ThermalManager::measurePerformanceRatio(const PolicyContext& ctx) const {
  return ctx.workload.performanceRatio();
}

void ThermalManager::adaptSamplingInterval() {
  // Lag-1 autocorrelation of the most informative (most variable) core. A
  // flat profile (variance ~ sensor resolution) is maximally redundant:
  // treat it as perfectly autocorrelated so the interval stretches.
  double r1 = 1.0;
  double bestVariance = -1.0;
  for (const std::vector<Celsius>& trace : epochSamples_) {
    OnlineStats stats;
    for (const Celsius t : trace) stats.push(t);
    if (stats.variance() > bestVariance) {
      bestVariance = stats.variance();
      r1 = stats.variance() < 0.05 ? 1.0 : autocorrelation(trace, 1);
    }
  }

  Seconds next = currentSamplingInterval_;
  if (r1 >= config_.autocorrStretchAbove) {
    next = std::min(config_.maxSamplingInterval, currentSamplingInterval_ * 1.5);
  } else if (r1 <= config_.autocorrShrinkBelow) {
    next = std::max(config_.minSamplingInterval, currentSamplingInterval_ / 1.5);
  }
  if (next != currentSamplingInterval_) {
    currentSamplingInterval_ = next;
    samplesPerEpoch_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::round(config_.decisionEpoch / next)));
  }
}

std::size_t ThermalManager::epochsToConvergence() const {
  if (epochLog_.empty()) return 0;
  // "Iterations needed to fill the table entries" (the paper's Fig. 8
  // measure): the first epoch at which Q-table discovery finished, i.e.
  // coverage reached its final value. Under the optimism-driven sweep the
  // agent touches one new (state, action) entry per epoch until every
  // action of every reachable state has been tried, so this grows with both
  // the state count and the action count.
  const double finalCoverage = epochLog_.back().qCoverage;
  for (std::size_t i = 0; i < epochLog_.size(); ++i) {
    if (epochLog_[i].qCoverage >= finalCoverage) return i + 1;
  }
  return epochLog_.size();
}

}  // namespace rltherm::core
