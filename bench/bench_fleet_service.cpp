// Fleet service at scale: the multi-tenant manager-as-a-server measured.
//
// Admits --tenants tenants (default 1000) spread over 5 configuration
// families and 5 workload families, in queue-depth batches through the
// service's bounded admission queue, then drives batched decision epochs
// until every tenant has produced its first decision. Reported:
//
//   tenants_per_sec                  admission+first-decision throughput
//   p99_admit_to_first_decision_ms   exact p99 over the per-tenant latency
//                                    samples (the serve.admit.latency
//                                    histogram travels in the perf sections)
//   retrain_ms_saved                 training wall-clock the warm-start
//                                    cache avoided: every tenant after the
//                                    first of a config family clones the
//                                    cached checkpoint instead of training
//   cache_hit_rate                   cache hits / admissions
//
// The bench also verifies the fleet's bit-identity guarantee: sampled
// tenants are re-run on a STANDALONE single-tenant service at jobs=1 and
// their trace hashes must match the interleaved fleet at any --jobs. A
// mismatch (or a hit rate below 95%) fails the bench with a nonzero exit.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"
#include "serve/fleet.hpp"

int main(int argc, char** argv) {
  using namespace rltherm;
  using namespace rltherm::bench;

  std::size_t tenantCount = 1000;
  std::size_t jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--tenants" && i + 1 < argc) {
      tenantCount = static_cast<std::size_t>(std::stoul(argv[i + 1]));
    }
    if (std::string(argv[i]) == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::stoul(argv[i + 1]));
    }
  }

  // Five configuration families (distinct fingerprints: gamma / bins are
  // config-fingerprinted) x five workload families (NOT fingerprinted, so
  // they share warm-start entries freely).
  struct ConfigFamily {
    double gamma;
    std::size_t stressBins;
    std::size_t agingBins;
  };
  const std::vector<ConfigFamily> configs = {
      {0.75, 4, 4}, {0.60, 4, 4}, {0.90, 4, 4}, {0.75, 6, 4}, {0.75, 4, 6}};
  const std::vector<std::string> apps = {"tachyon", "mpeg_dec", "mpeg_enc",
                                         "face_rec", "sphinx"};

  serve::FleetServiceConfig serviceConfig;
  serviceConfig.jobs = jobs;
  serviceConfig.maxTenants = tenantCount + 8;
  serviceConfig.admitQueueDepth = 256;
  serviceConfig.trainSimTime = 600.0;  // calibration window per config family

  const auto requestOf = [&](std::size_t index) {
    serve::AdmitRequest request;
    request.tenant = "tenant-" + std::to_string(index);
    request.family = apps[index % apps.size()];
    request.dataset = 1 + static_cast<int>(index % 3);
    request.seed = 1000 + index;
    const ConfigFamily& config = configs[index % configs.size()];
    request.gamma = config.gamma;
    request.stressBins = config.stressBins;
    request.agingBins = config.agingBins;
    return request;
  };

  // The fleet phase runs under an attached metrics registry so the serve.*
  // counters and the admit-latency histogram land in the report.
  obs::MetricsRegistry metrics;
  obs::Session session;
  session.metrics = &metrics;

  std::vector<std::size_t> admissionPass(tenantCount, 0);
  std::size_t passes = 0;
  double fleetWallMs = 0.0;
  double simSeconds = 0.0;
  serve::FleetStats stats;
  std::vector<std::string> sampleHashes;
  const std::vector<std::size_t> samples = {0, tenantCount / 2, tenantCount - 1};

  {
    const obs::ScopedSession guard(session);
    serve::FleetService service(serviceConfig);
    const std::uint64_t startNs = obs::wallClockNs();

    std::size_t submitted = 0;
    while (submitted < tenantCount) {
      const std::size_t batchEnd =
          std::min(tenantCount, submitted + serviceConfig.admitQueueDepth);
      for (; submitted < batchEnd; ++submitted) {
        const serve::AdmitOutcome outcome = service.submit(requestOf(submitted));
        expects(outcome.accepted, "fleet bench: admission rejected: " + outcome.reason);
        admissionPass[submitted] = passes + 1;  // drained by the NEXT pass
      }
      (void)service.runPass();
      ++passes;
    }
    // One more pass guarantees even the youngest tenants reached their first
    // decision epoch (slice >= decision epoch).
    (void)service.runPass();
    ++passes;
    fleetWallMs = static_cast<double>(obs::wallClockNs() - startNs) / 1e6;

    stats = service.stats();
    for (const std::size_t index : samples) {
      const auto status = service.query("tenant-" + std::to_string(index));
      expects(status.has_value(), "fleet bench: sampled tenant missing");
      sampleHashes.push_back(serve::fingerprintHex(status->traceHash));
    }
    for (const std::string& name : service.tenantNames()) {
      const auto status = service.query(name);
      if (status.has_value()) simSeconds += status->simTime;
    }
  }

  // Bit-identity check: each sampled tenant re-run ALONE on a fresh jobs=1
  // service, advanced the same number of slices, must reproduce the fleet's
  // trace hash exactly.
  bool deterministic = true;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    const std::size_t index = samples[s];
    serve::FleetServiceConfig aloneConfig = serviceConfig;
    aloneConfig.jobs = 1;
    serve::FleetService alone(aloneConfig);
    const serve::AdmitOutcome outcome = alone.submit(requestOf(index));
    expects(outcome.accepted, "fleet bench: standalone admission rejected");
    const std::size_t slices = passes - admissionPass[index] + 1;
    for (std::size_t p = 0; p < slices; ++p) (void)alone.runPass();
    const auto status = alone.query("tenant-" + std::to_string(index));
    expects(status.has_value(), "fleet bench: standalone tenant missing");
    if (serve::fingerprintHex(status->traceHash) != sampleHashes[s]) {
      deterministic = false;
      std::cout << "DETERMINISM MISMATCH tenant-" << index << ": fleet "
                << sampleHashes[s] << " vs standalone "
                << serve::fingerprintHex(status->traceHash) << "\n";
    }
  }

  const double hitRate = stats.admitted > 0
                             ? static_cast<double>(stats.cache.hits) /
                                   static_cast<double>(stats.admitted)
                             : 0.0;
  std::vector<double> latencies = stats.firstDecisionMs;
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const double rank = q * static_cast<double>(latencies.size() - 1);
    return latencies[static_cast<std::size_t>(rank + 0.5)];
  };
  const double p50 = quantile(0.50);
  const double p99 = quantile(0.99);
  const double tenantsPerSec =
      fleetWallMs > 0.0 ? static_cast<double>(stats.admitted) / (fleetWallMs / 1e3) : 0.0;
  const double avgTrainMs =
      stats.trainings > 0 ? stats.trainMsTotal / static_cast<double>(stats.trainings) : 0.0;
  const double retrainMsSaved =
      avgTrainMs * static_cast<double>(stats.admitted - stats.trainings);

  TextTable table({"Config family", "Gamma", "Bins", "Tenants", "Trainings"});
  for (std::size_t c = 0; c < configs.size(); ++c) {
    std::size_t members = 0;
    for (std::size_t i = 0; i < tenantCount; ++i) {
      if (i % configs.size() == c) ++members;
    }
    table.row()
        .cell("config-" + std::to_string(c))
        .cell(configs[c].gamma, 2)
        .cell(std::to_string(configs[c].stressBins) + "x" +
              std::to_string(configs[c].agingBins))
        .cell(static_cast<long long>(members))
        .cell(static_cast<long long>(1));
  }

  printBanner(std::cout, "fleet service: " + std::to_string(stats.admitted) +
                             " tenants, " + std::to_string(configs.size()) +
                             " config families");
  table.print(std::cout);
  std::cout << "admitted " << stats.admitted << " tenants in " << passes
            << " passes (" << formatFixed(fleetWallMs, 0) << " ms wall, "
            << formatFixed(tenantsPerSec, 0) << " tenants/s)\n";
  std::cout << "warm-start cache: " << stats.cache.hits << " hits / "
            << stats.trainings << " trainings (hit rate "
            << formatFixed(100.0 * hitRate, 1) << "%), saved "
            << formatFixed(retrainMsSaved, 0) << " ms of retraining\n";
  std::cout << "admit -> first decision: p50 " << formatFixed(p50, 1)
            << " ms, p99 " << formatFixed(p99, 1) << " ms\n";
  std::cout << "determinism vs standalone: " << (deterministic ? "OK" : "FAILED")
            << " (" << samples.size() << " sampled tenants)\n";

  const std::string jsonPath = jsonOutputPath(argc, argv, "BENCH_fleet_service.json");
  if (!jsonPath.empty()) {
    ReportMeta meta;
    meta.wallMs = fleetWallMs;
    meta.jobs = serviceConfig.jobs == 0 ? exec::hardwareConcurrency() : serviceConfig.jobs;
    // No serial baseline is run, so speedup_vs_serial stays unmeasured: the
    // report omits it at jobs > 1 instead of claiming 1.
    meta.simSeconds = simSeconds;
    metrics.forEachHistogram([&](const std::string& name, const obs::Histogram& h) {
      meta.histograms.emplace(name, h);
    });
    writeJsonReport(table, "fleet_service", jsonPath, meta,
                    {{"tenants_admitted", static_cast<double>(stats.admitted)},
                     {"tenants_per_sec", tenantsPerSec},
                     {"p50_admit_to_first_decision_ms", p50},
                     {"p99_admit_to_first_decision_ms", p99},
                     {"cache_hit_rate", hitRate},
                     {"train_ms_total", stats.trainMsTotal},
                     {"retrain_ms_saved", retrainMsSaved},
                     {"determinism_ok", deterministic ? 1.0 : 0.0}});
  }

  if (!deterministic) return 1;
  if (stats.admitted >= 100 && hitRate < 0.95) {
    std::cout << "FAILED: warm-start hit rate below 95%\n";
    return 1;
  }
  return 0;
}
