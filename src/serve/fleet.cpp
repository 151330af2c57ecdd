#include "serve/fleet.hpp"

#include <algorithm>
#include <bit>
#include <exception>
#include <utility>

#include "common/error.hpp"
#include "core/action_space.hpp"
#include "core/runner.hpp"
#include "core/simulation.hpp"
#include "core/thermal_manager.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "obs/timeline.hpp"
#include "store/policy_checkpoint.hpp"
#include "workload/app_spec.hpp"
#include "workload/driver.hpp"

namespace rltherm::serve {

namespace {

// FNV-1a(64) over the bytes of each value, in field order. The hash is a
// compact bit-identity witness: two tenants agree on it iff every epoch
// record (and the run length) agrees bit for bit.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

[[nodiscard]] std::uint64_t fnvMix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 64; i += 8) {
    h ^= (v >> i) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t fnvMix(std::uint64_t h, double v) noexcept {
  return fnvMix(h, std::bit_cast<std::uint64_t>(v));
}

/// Manager config for one admission: the request's fingerprinted knobs over
/// the module defaults. `seed` is NOT fingerprinted, so the trainer (canonical
/// seed) and every tenant (own seed) land on the same cache key.
[[nodiscard]] core::ThermalManagerConfig managerConfigOf(const AdmitRequest& request,
                                                         std::uint64_t seed) {
  core::ThermalManagerConfig config;
  config.gamma = request.gamma;
  config.stressBins = request.stressBins;
  config.agingBins = request.agingBins;
  config.seed = seed;
  return config;
}

}  // namespace

std::string fingerprintHex(std::uint64_t fingerprint) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (std::size_t i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[fingerprint & 0xfULL];
    fingerprint >>= 4;
  }
  return out;
}

/// One hosted simulation. All mutable state is private to the tenant, so a
/// pool worker advancing it shares nothing with any other tenant — the basis
/// of the fleet's bit-identity guarantee.
struct FleetService::Tenant {
  AdmitRequest request;
  std::uint64_t submitNs = 0;
  std::uint64_t fingerprint = 0;
  bool warmStart = false;

  std::unique_ptr<core::ThermalManager> manager;  ///< outlives the simulation
  std::unique_ptr<core::Simulation<workload::WorkloadDriver>> sim;

  std::size_t epochsAtStart = 0;  ///< warm-start prefix length in the epoch log
  bool done = false;
  double firstDecisionMs = -1.0;

  /// One slice of the runner's closed loop. Runs under a private EMPTY
  /// observability session: tenant-internal telemetry is uniformly silent
  /// whether the slice executes inline (jobs=1) or on a pool worker, so the
  /// ambient stream never depends on the jobs count.
  void advance(Seconds slice, Seconds maxSimTime) {
    if (done) return;
    obs::Session quiet;
    const obs::ScopedSession guard(quiet);
    sim->advanceTo(std::min(sim->now() + slice, maxSimTime));
    if (!sim->running() || sim->now() >= maxSimTime) done = true;
  }

  [[nodiscard]] std::size_t decisions() const {
    return manager->epochCount() - epochsAtStart;
  }

  [[nodiscard]] TenantStatus status() const {
    TenantStatus s;
    s.tenant = request.tenant;
    s.family = request.family;
    s.dataset = request.dataset;
    s.seed = request.seed;
    s.fingerprint = fingerprint;
    s.warmStart = warmStart;
    s.done = done;
    s.simTime = sim->now();
    s.decisions = decisions();
    s.samples = sim->samples();
    s.completions = sim->driver().completions().size();
    s.peakTemp = sim->peakReading();
    s.firstDecisionMs = firstDecisionMs;

    std::uint64_t h = kFnvOffset;
    const std::vector<core::EpochRecord>& log = manager->epochLog();
    for (std::size_t i = epochsAtStart; i < log.size(); ++i) {
      const core::EpochRecord& r = log[i];
      h = fnvMix(h, r.time);
      h = fnvMix(h, static_cast<std::uint64_t>(r.state));
      h = fnvMix(h, static_cast<std::uint64_t>(r.action));
      h = fnvMix(h, r.stress);
      h = fnvMix(h, r.aging);
      h = fnvMix(h, r.reward);
      h = fnvMix(h, r.alpha);
      h = fnvMix(h, static_cast<std::uint64_t>(r.phase));
      h = fnvMix(h, r.qCoverage);
      h = fnvMix(h, static_cast<std::uint64_t>((r.intraDetected ? 1U : 0U) |
                                               (r.interDetected ? 2U : 0U)));
    }
    h = fnvMix(h, s.simTime);
    h = fnvMix(h, static_cast<std::uint64_t>(s.completions));
    h = fnvMix(h, static_cast<std::uint64_t>(s.samples));
    s.traceHash = h;
    return s;
  }
};

FleetService::FleetService(FleetServiceConfig config)
    : config_(config), pool_(config.jobs), cache_(config.cacheCapacity) {
  expects(config_.sliceSeconds > 0.0, "FleetService: sliceSeconds must be > 0");
  expects(config_.maxTenantSimTime > 0.0, "FleetService: maxTenantSimTime must be > 0");
  expects(config_.trainSimTime > 0.0, "FleetService: trainSimTime must be > 0");
  expects(config_.admitQueueDepth > 0, "FleetService: admitQueueDepth must be > 0");
  expects(config_.maxTenants > 0, "FleetService: maxTenants must be > 0");
}

FleetService::~FleetService() = default;

AdmitOutcome FleetService::reject(const AdmitRequest& request, std::string reason) {
  ++stats_.rejected;
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("serve.tenant.reject").add();
  }
  if (obs::EventSink* sink = obs::events()) {
    sink->record(obs::Event{"serve.tenant.reject",
                            0.0,
                            {obs::field("tenant", request.tenant),
                             obs::field("reason", reason)}});
  }
  return {false, std::move(reason)};
}

AdmitOutcome FleetService::submit(const AdmitRequest& request) {
  if (request.tenant.empty()) {
    return reject(request, "admit requires a non-empty tenant name");
  }
  if (tenants_.find(request.tenant) != tenants_.end()) {
    return reject(request, "tenant '" + request.tenant + "' is already admitted");
  }
  for (const QueuedAdmit& queued : queue_) {
    if (queued.request.tenant == request.tenant) {
      return reject(request, "tenant '" + request.tenant + "' is already queued");
    }
  }
  if (!(request.gamma > 0.0 && request.gamma <= 1.0)) {
    return reject(request, "gamma must be in (0, 1]");
  }
  if (request.stressBins < 2 || request.stressBins > 64 || request.agingBins < 2 ||
      request.agingBins > 64) {
    return reject(request, "stress/aging bins must be in [2, 64]");
  }
  try {
    (void)workload::makeApp(request.family, request.dataset);
  } catch (const std::exception& error) {
    return reject(request, error.what());
  }
  // Back-pressure proper: the queue and the table are both hard-bounded. The
  // caller is told to drain (run a step) or evict — admissions are never
  // buffered beyond the configured depth.
  if (queue_.size() >= config_.admitQueueDepth) {
    return reject(request, "admission queue is full (depth " +
                               std::to_string(config_.admitQueueDepth) +
                               "); run a step to drain it");
  }
  if (tenants_.size() + queue_.size() >= config_.maxTenants) {
    return reject(request, "tenant table is full (max " +
                               std::to_string(config_.maxTenants) +
                               "); evict a tenant first");
  }
  queue_.push_back(QueuedAdmit{request, obs::wallClockNs()});
  publishGauges();
  return {true, {}};
}

std::vector<std::uint8_t> FleetService::trainFamilyPolicy(const AdmitRequest& request) {
  const std::uint64_t startNs = obs::wallClockNs();
  const platform::MachineConfig machineDefaults;
  core::ThermalManager trainer(managerConfigOf(request, config_.trainSeed),
                               core::ActionSpace::standard(machineDefaults.coreCount));

  core::RunnerConfig runnerConfig;
  runnerConfig.machine.sensorSeed = config_.trainSeed;
  runnerConfig.maxSimTime = config_.trainSimTime;

  // Enough calibration-app repeats to cover the training window (apps run at
  // least a decision epoch); the runner's maxSimTime is the actual stop.
  const std::size_t repeats = std::min<std::size_t>(
      4096, static_cast<std::size_t>(config_.trainSimTime / 30.0) + 1);
  std::vector<workload::AppSpec> apps;
  apps.reserve(repeats);
  for (std::size_t i = 0; i < repeats; ++i) {
    apps.push_back(workload::makeApp(config_.trainFamily, config_.trainDataset));
  }
  workload::Scenario scenario = workload::Scenario::of(std::move(apps));
  scenario.name = config_.trainFamily + "-calibration";

  {
    // Quiet session: training is an internal cache fill, not an observed
    // run — the service's telemetry surface is serve.* only.
    obs::Session quiet;
    const obs::ScopedSession guard(quiet);
    const core::PolicyRunner runner(runnerConfig);
    (void)runner.run(scenario, trainer);
  }
  trainer.freeze();
  std::vector<std::uint8_t> buffer =
      store::serializePolicyCheckpoint(trainer.captureCheckpoint());

  stats_.trainMsTotal += static_cast<double>(obs::wallClockNs() - startNs) / 1e6;
  ++stats_.trainings;
  return buffer;
}

void FleetService::processAdmission(const QueuedAdmit& queued, PassReport& report) {
  const AdmitRequest& request = queued.request;
  auto tenant = std::make_unique<Tenant>();
  tenant->request = request;
  tenant->submitNs = queued.submitNs;

  const platform::MachineConfig machineDefaults;
  auto manager = std::make_unique<core::ThermalManager>(
      managerConfigOf(request, request.seed),
      core::ActionSpace::standard(machineDefaults.coreCount));
  const std::uint64_t fingerprint = manager->configFingerprint();

  std::optional<std::vector<std::uint8_t>> cached = cache_.find(fingerprint);
  const bool warm = cached.has_value();
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter(warm ? "serve.cache.hit" : "serve.cache.miss").add();
  }
  if (!warm) {
    const std::uint64_t evictionsBefore = cache_.stats().evictions;
    std::vector<std::uint8_t> buffer = trainFamilyPolicy(request);
    cache_.insert(fingerprint, buffer);
    const std::uint64_t evicted = cache_.stats().evictions - evictionsBefore;
    if (evicted > 0) {
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("serve.cache.evict").add(evicted);
      }
    }
    cached = std::move(buffer);
    ++report.trained;
  }

  // Clone step: decode the cached buffer (same corruption checks as a file
  // load) and restore into the tenant's freshly built manager. The restore
  // verifies the fingerprint, so the cache key and the checkpoint's own
  // fingerprint can never drift apart silently.
  const store::PolicyCheckpoint checkpoint = store::loadPolicyCheckpointFromBuffer(
      *cached, "warm-start cache entry " + fingerprintHex(fingerprint));
  manager->restoreFromCheckpoint(checkpoint);

  tenant->manager = std::move(manager);
  tenant->fingerprint = fingerprint;
  tenant->warmStart = warm;
  {
    // Run-boundary start under the quiet session of every later slice. No
    // ground-truth trace, so a tenant's memory does not grow with sim time.
    obs::Session quiet;
    const obs::ScopedSession guard(quiet);
    core::RunnerConfig runnerConfig;
    runnerConfig.machine.sensorSeed = request.seed;
    tenant->sim = std::make_unique<core::Simulation<workload::WorkloadDriver>>(
        std::move(runnerConfig), /*trace=*/false, *tenant->manager, request.family,
        workload::Scenario::of({workload::makeApp(request.family, request.dataset)}));
  }
  tenant->epochsAtStart = tenant->manager->epochCount();

  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("serve.tenant.admit").add();
  }
  if (obs::EventSink* sink = obs::events()) {
    sink->record(obs::Event{"serve.tenant.admit",
                            0.0,
                            {obs::field("tenant", request.tenant),
                             obs::field("family", request.family),
                             obs::field("fingerprint", fingerprintHex(fingerprint)),
                             obs::field("warm_start", warm)}});
  }
  ++stats_.admitted;
  ++report.admitted;
  tenants_[request.tenant] = std::move(tenant);
}

PassReport FleetService::runPass() {
  PassReport report;

  // 1. Drain admissions FIFO on the service thread (training on miss).
  while (!queue_.empty()) {
    const QueuedAdmit queued = std::move(queue_.front());
    queue_.pop_front();
    processAdmission(queued, report);
  }

  // 2. Advance every active tenant one slice across the pool. The table is
  // name-ordered and each tenant's state is private, so the outcome is
  // independent of lane count and scheduling.
  std::vector<Tenant*> active;
  active.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant->done) active.push_back(tenant.get());
  }
  const Seconds slice = config_.sliceSeconds;
  const Seconds maxSimTime = config_.maxTenantSimTime;
  if (!active.empty()) {
    pool_.parallelFor(active.size(), [&active, slice, maxSimTime](std::size_t index) {
      active[index]->advance(slice, maxSimTime);
    });
  }
  report.advanced = active.size();

  // 3. Post-join accounting on the service thread: first-decision latencies
  // and completions, then the serve.* gauges.
  const std::uint64_t nowNs = obs::wallClockNs();
  for (Tenant* tenant : active) {
    if (tenant->firstDecisionMs < 0.0 && tenant->decisions() > 0) {
      tenant->firstDecisionMs =
          static_cast<double>(nowNs - tenant->submitNs) / 1e6;
      stats_.firstDecisionMs.push_back(tenant->firstDecisionMs);
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->histogram("serve.admit.latency", 0.0, 5000.0, 100)
            .observe(tenant->firstDecisionMs);
      }
    }
    if (tenant->done) {
      ++report.completed;
      ++stats_.completed;
      if (obs::MetricsRegistry* metrics = obs::metrics()) {
        metrics->counter("serve.tenant.complete").add();
      }
      if (obs::EventSink* sink = obs::events()) {
        sink->record(obs::Event{
            "serve.tenant.complete",
            tenant->sim->now(),
            {obs::field("tenant", tenant->request.tenant),
             obs::field("decisions", static_cast<std::int64_t>(tenant->decisions())),
             obs::field("sim_time", tenant->sim->now())}});
      }
    }
  }
  ++stats_.passes;
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("serve.pass.run").add();
  }
  publishGauges();
  return report;
}

std::size_t FleetService::runUntilIdle(std::size_t maxPasses) {
  std::size_t passes = 0;
  while (passes < maxPasses) {
    bool anyWork = !queue_.empty();
    if (!anyWork) {
      for (const auto& [name, tenant] : tenants_) {
        if (!tenant->done) {
          anyWork = true;
          break;
        }
      }
    }
    if (!anyWork) break;
    (void)runPass();
    ++passes;
  }
  return passes;
}

std::optional<TenantStatus> FleetService::query(const std::string& tenant) const {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return std::nullopt;
  return it->second->status();
}

std::vector<std::string> FleetService::tenantNames() const {
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, tenant] : tenants_) names.push_back(name);
  return names;
}

bool FleetService::evictTenant(const std::string& tenant) {
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return false;
  tenants_.erase(it);
  ++stats_.evictedTenants;
  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("serve.tenant.evict").add();
  }
  publishGauges();
  return true;
}

bool FleetService::evictCacheEntry(std::uint64_t fingerprint) {
  const bool evicted = cache_.evict(fingerprint);
  if (evicted) {
    if (obs::MetricsRegistry* metrics = obs::metrics()) {
      metrics->counter("serve.cache.evict").add();
    }
    publishGauges();
  }
  return evicted;
}

void FleetService::publishGauges() {
  obs::MetricsRegistry* metrics = obs::metrics();
  if (metrics == nullptr) return;
  std::size_t activeTenants = 0;
  for (const auto& [name, tenant] : tenants_) {
    if (!tenant->done) ++activeTenants;
  }
  metrics->gauge("serve.tenants.active").set(static_cast<double>(activeTenants));
  metrics->gauge("serve.queue.depth").set(static_cast<double>(queue_.size()));
  metrics->gauge("serve.cache.entries").set(static_cast<double>(cache_.stats().entries));
}

FleetStats FleetService::stats() {
  stats_.activeTenants = tenants_.size();
  stats_.queueDepth = queue_.size();
  stats_.cache = cache_.stats();
  return stats_;
}

}  // namespace rltherm::serve
