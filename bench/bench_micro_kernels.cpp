// Microbenchmarks of the library's hot paths: the RC thermal step, rainflow
// counting, Q-table updates, a full machine tick and the closed loop. These
// bound the run-time overhead a deployment of the controller would add (the
// paper's system runs alongside real workloads, so the monitoring path must
// be cheap).
//
// Each lane does a FIXED amount of work, timed K times (`--reps K`, default
// 5) and reported as robust median-of-K stats (obs::repStats). Right before
// every timed rep the harness times one reference unit
// (perfbench::referenceSeconds()), so each lane also reports its median in
// reference units (`per_ref`): on a shared host a core's speed drifts by up
// to 2x, and the ratio cancels much of that. The lanes print as a table;
// `--json [PATH]` also writes the report (build fingerprint, lanes, hot-path
// scope attribution) that the perf gate in scripts/check.sh compares with
// bench/baselines/BENCH_micro.json.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "perfbench/reference.hpp"
#include "platform/machine.hpp"
#include "reliability/aging.hpp"
#include "reliability/rainflow.hpp"
#include "reliability/fatigue.hpp"
#include "rl/qtable.hpp"
#include "sched/scheduler.hpp"
#include "thermal/expop_cache.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/step_kernel.hpp"

namespace {

using namespace rltherm;

/// The default lumped quad-core package: one cell per core, 6 nodes.
thermal::GridPackage lumpedQuadCore() { return thermal::GridPackage({}, 4, 1); }

/// The 64-cell die (8x8 cells + spreader + sink = 66 nodes) every grid64
/// kernel shares.
thermal::GridPackage grid64() { return thermal::GridPackage({}, 4, 4); }

/// One fixed-work lane (a kernel). `run` executes exactly the same
/// work every call and returns the simulated seconds it covered (0 for
/// kernels with no simulated-time semantics, e.g. rainflow over a trace).
/// `ops` is the number of work items one rep performs (steps, prepares,
/// updates, ...) so the report can state per-kernel ops/sec — prepare()
/// throughput is reported separately from step() throughput. Consecutive
/// kernels with the same non-empty `group` are timed in alternating reps, so
/// a same-run ratio between them sees the same host phases.
struct Lane {
  std::string name;
  double ops = 0.0;
  std::function<double()> run;
  std::string group;
};

/// Per-core power that changes on every tick the way the closed loop's
/// does: a fixed dynamic level plus leakage that follows each core's mean
/// cell temperature.
void leakyCorePower(const thermal::GridPackage& pkg, std::vector<Watts>& power) {
  constexpr Watts kDynamic[] = {8.0, 2.0, 5.0, 1.0};
  for (std::size_t core = 0; core < power.size(); ++core) {
    power[core] =
        kDynamic[core] + 0.5 * std::exp(0.02 * (pkg.coreMeanTemperature(core) - 25.0));
  }
}

/// The dense two-matvec exact step T' = E T + Phi u of a grid package at
/// h = 0.01 s, u = P + G_amb T_amb: the reference the packed kernel is
/// measured against.
struct DenseStep {
  explicit DenseStep(const thermal::GridPackage& pkg) {
    const thermal::RcNetwork& net = pkg.network();
    const std::size_t n = net.nodeCount();
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        a(i, j) = -net.conductance()(i, j) / net.node(i).capacitance;
      }
    }
    e = expm(a * 0.01);
    phi = LuFactorization(a).solve(e - Matrix::identity(n));
    ambientInput.assign(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < n; ++i) phi(i, j) /= net.node(j).capacitance;
      if (const auto r = net.node(j).resistanceToAmbient) ambientInput[j] = net.ambient() / *r;
    }
  }
  Matrix e;
  Matrix phi;
  std::vector<double> ambientInput;
};

std::vector<Lane> makeLanes() {
  std::vector<Lane> kernels;

  // The quad-core RC step on the plant's per-core input path: the
  // per-10ms-tick cost. 20k steps x 0.01 s = 200 simulated seconds.
  kernels.push_back({"rc_step_quadcore", 20000, [] {
    thermal::GridPackage pkg = lumpedQuadCore();
    pkg.prepare(0.01);
    const std::vector<Watts> power = {8.0, 2.0, 5.0, 1.0};
    for (int i = 0; i < 20000; ++i) pkg.network().step(power);
    return 20000 * 0.01;
  }});

  // The fine-grid RC step (the many-core scale-up direction): fewer steps,
  // bigger matrix.
  kernels.push_back({"rc_step_grid2", 5000, [] {
    thermal::GridPackage pkg({}, 4, 2);
    pkg.prepare(0.01);
    const std::vector<Watts> power = {8.0, 2.0, 5.0, 1.0};
    for (int i = 0; i < 5000; ++i) pkg.network().step(power);
    return 5000 * 0.01;
  }});

  // The 66-node step with leaky per-core power (a new input every tick):
  // the packed kernel vs the dense two-matvec reference E T + Phi u, built
  // here from expm + LU and applied with two Matrix::multiplyInto products.
  // Same grid, same input sequence, same 5000 steps — the same-run group
  // behind the step-kernel speedup gate in scripts/check.sh.
  const std::string stepGroup = "rc_step_grid64";
  kernels.push_back({"rc_step_grid64_leaky", 5000, [] {
    thermal::GridPackage pkg = grid64();
    pkg.prepare(0.01);
    std::vector<Watts> power(pkg.coreCount());
    for (int i = 0; i < 5000; ++i) {
      leakyCorePower(pkg, power);
      pkg.network().step(power);
    }
    return 5000 * 0.01;
  }, stepGroup});

  // The same loop through one named entry point, whatever step()
  // dispatches to on this host: the baseline lane, which the step-kernel
  // gate compares with the dense reference and with rc_step_grid64_leaky,
  // and on a host with AVX2 the AVX2 lane, which the gate holds to the same
  // ratio over the baseline when step() takes a wider kernel.
  const auto entryPointLoop = [](thermal::StepKernelFn apply) {
    return [apply] {
      thermal::GridPackage pkg = grid64();
      pkg.prepare(0.01);
      thermal::RcNetwork& net = pkg.network();
      const thermal::PreparedStep& op = *net.preparedOperator();
      std::vector<double> next(op.offset.size());
      std::vector<Watts> power(pkg.coreCount());
      for (int i = 0; i < 5000; ++i) {
        leakyCorePower(pkg, power);
        apply(op, net.temperatures().data(), power.data(), next.data());
        net.setTemperatures(std::span<const double>(next).first(op.nodes));
      }
      return 5000 * 0.01;
    };
  };
  for (const thermal::StepKernel& entry : thermal::hostStepKernels()) {
    if (std::strcmp(entry.name, "avx512") == 0) continue;  // rc_step_grid64_leaky
    kernels.push_back({std::string("rc_step_grid64_") + entry.name, 5000,
                       entryPointLoop(entry.apply), stepGroup});
  }

  kernels.push_back({"rc_step_grid64_reference", 5000,
                     [reference = std::make_shared<const DenseStep>(grid64())] {
    thermal::GridPackage pkg = grid64();
    const std::size_t n = pkg.network().nodeCount();
    std::vector<double> temps(pkg.network().temperatures().begin(),
                              pkg.network().temperatures().end());
    std::vector<double> input = reference->ambientInput;  // cells: 0 W to ambient
    std::vector<double> homogeneous(n);
    std::vector<double> forced(n);
    std::vector<Watts> power(pkg.coreCount());
    for (int step = 0; step < 5000; ++step) {
      leakyCorePower(pkg, power);
      for (std::size_t core = 0; core < power.size(); ++core) {
        const std::span<const std::size_t> cells = pkg.coreCells(core);
        const double perCell = power[core] / static_cast<double>(cells.size());
        for (const std::size_t cell : cells) input[cell] = perCell;
      }
      reference->e.multiplyInto(temps, homogeneous);
      reference->phi.multiplyInto(input, forced);
      for (std::size_t i = 0; i < n; ++i) temps[i] = homogeneous[i] + forced[i];
      pkg.network().setTemperatures(temps);
    }
    return 5000 * 0.01;
  }, stepGroup});

  // prepare() throughput, reported separately from step(): cold = the full
  // O(n^3) expm + LU build (cache cleared before every prepare), warm = the
  // fingerprint lookup path an identical machine pays when the cache holds
  // the entry. The gap between the two is the cache's amortization win.
  kernels.push_back({"rc_prepare_grid64_cold", 10, [] {
    thermal::GridPackage pkg = grid64();
    for (int i = 0; i < 10; ++i) {
      thermal::ExpOperatorCache::instance().clear();
      pkg.prepare(0.01);
    }
    thermal::ExpOperatorCache::instance().clear();
    return 0.0;
  }});

  kernels.push_back({"rc_prepare_grid64_warm", 200, [] {
    thermal::ExpOperatorCache::instance().clear();
    thermal::GridPackage pkg = grid64();
    pkg.prepare(0.01);  // cold: populates the entry the loop below hits
    for (int i = 0; i < 200; ++i) pkg.prepare(0.01);
    return 0.0;
  }});

  // Rainflow over a 10k-sample temperature trace, five passes.
  kernels.push_back({"rainflow_10k", 50000, [] {
    Rng rng(7);
    std::vector<Celsius> trace;
    trace.reserve(10000);
    double t = 45.0;
    for (int i = 0; i < 10000; ++i) {
      t += rng.gaussian(0.0, 1.5);
      trace.push_back(t);
    }
    std::size_t cycles = 0;
    for (int pass = 0; pass < 5; ++pass) {
      cycles += reliability::rainflow(trace, 1.0).size();
    }
    return cycles == static_cast<std::size_t>(-1) ? 1.0 : 0.0;  // defeat DCE
  }});

  // The per-epoch aggregate body (rainflow + stress + aging over one
  // decision epoch of samples), 2000 epochs' worth.
  kernels.push_back({"epoch_aggregate", 2000, [] {
    Rng rng(9);
    std::vector<std::vector<Celsius>> traces(4);
    for (auto& trace : traces) {
      double t = 50.0;
      for (int i = 0; i < 10; ++i) {
        t += rng.gaussian(0.0, 3.0);
        trace.push_back(t);
      }
    }
    const auto aging = reliability::calibratedAgingParams();
    const auto fatigue = reliability::defaultFatigueParams();
    double sink = 0.0;
    for (int epoch = 0; epoch < 2000; ++epoch) {
      for (const auto& trace : traces) {
        const auto cycles = reliability::rainflow(trace, 2.0);
        sink = std::max(sink, reliability::thermalStress(cycles, fatigue));
        sink = std::max(sink, reliability::agingRate(trace, aging));
      }
    }
    return sink < 0.0 ? 1.0 : 0.0;  // defeat DCE
  }});

  // 200k Q-table updates (the per-epoch learning write path).
  kernels.push_back({"q_update_200k", 200000, [] {
    rl::QTable table(16, 12);
    Rng rng(3);
    std::size_t s = 0;
    double sink = 0.0;
    for (int i = 0; i < 200000; ++i) {
      const std::size_t a = static_cast<std::size_t>(rng.uniformInt(12));
      const std::size_t next = static_cast<std::size_t>(rng.uniformInt(16));
      sink += table.update(s, a, rng.uniform(-1.0, 1.0), next, 0.1, 0.75);
      s = next;
    }
    return sink == -1.0 ? 1.0 : 0.0;  // defeat DCE
  }});

  // A full machine tick (scheduler dispatch + power + RC step + sensors):
  // 10k ticks x the default 0.01 s tick = 100 simulated seconds.
  kernels.push_back({"machine_tick", 10000, [] {
    platform::MachineConfig config;
    platform::Machine machine(config);
    for (ThreadId id = 0; id < 6; ++id) {
      machine.scheduler().addThread(id, sched::AffinityMask::all(4));
    }
    const auto activity = [](ThreadId) { return 0.8; };
    for (int i = 0; i < 10000; ++i) (void)machine.tick(activity);
    return 10000 * config.tick;
  }});

  // The whole closed loop: PolicyRunner driving the LIVE proposed manager
  // (sampling, epochs, Q updates, actuation) on a real workload, capped at
  // 300 simulated seconds. This is the deployment-shaped kernel behind the
  // headline sim_seconds_per_wall_second number.
  kernels.push_back({"closed_loop_proposed", 0, [] {
    core::RunnerConfig config;
    config.maxSimTime = 300.0;
    const core::PolicyRunner runner(config);
    core::ThermalManager manager(core::ThermalManagerConfig{},
                                 core::ActionSpace::standard(4));
    const workload::Scenario scenario =
        workload::Scenario::of({workload::mpegDec(1)});
    const core::RunResult result = runner.run(scenario, manager);
    return result.duration;
  }});

  return kernels;
}

/// One lane's timings: nanoseconds per rep, the median of the reference
/// units timed right before those reps, and the median over reps of each
/// rep's time in its own reference units, which the perf gate compares.
/// Pairing each rep with its own reference keeps a host slowdown that
/// starts halfway through a lane's reps out of the ratio.
struct Measured {
  std::string name;
  obs::RepStats stats;
  double refMedianNs;
  double perRef;
  double simSecondsPerRep;  // 0 = no simulated-time semantics
  double ops;               // work items per rep; 0 = not meaningful
};

void writeReport(const std::string& path, std::size_t reps, const bench::ReportMeta& meta,
                 const std::vector<Measured>& measured) {
  std::ofstream out(path);
  expects(out.good(), "cannot write '" + path + "'");
  JsonWriter json(out);
  json.beginObject();
  json.key("suite").value("micro_kernels");
  bench::writePerfSections(json, meta);
  json.key("reps").value(static_cast<std::uint64_t>(reps));
  json.key("kernels").beginArray();
  for (const Measured& m : measured) {
    json.beginObject();
    json.key("name").value(m.name);
    json.key("reps").value(static_cast<std::uint64_t>(m.stats.reps));
    json.key("min_ns").value(m.stats.min);
    json.key("median_ns").value(m.stats.median);
    json.key("mad_ns").value(m.stats.mad);
    json.key("cv").value(m.stats.cv);
    json.key("mean_ns").value(m.stats.mean);
    json.key("max_ns").value(m.stats.max);
    json.key("ref_median_ns").value(m.refMedianNs);
    json.key("per_ref").value(m.perRef);
    json.key("sim_seconds_per_wall_second")
        .value(obs::simSecondsPerWallSecond(m.simSecondsPerRep,
                                            m.stats.median / 1e6));
    // Work-item throughput: prepare() kernels report prepares/sec, step()
    // kernels steps/sec — comparable across grid sizes where wall medians
    // are not. Omitted when a kernel has no countable unit (ops == 0).
    if (m.ops > 0.0) {
      json.key("ops").value(m.ops);
      json.key("ops_per_sec").value(m.stats.median > 0.0
                                        ? m.ops / (m.stats.median / 1e9)
                                        : 0.0);
    }
    json.endObject();
  }
  json.endArray();
  // The entry point step() takes for the 66-node grid on this host.
  json.key("step_kernel").value(thermal::stepKernelName(grid64().network().nodeCount()));
  // Exp-operator cache totals over the whole bench process (the prepare
  // kernels exercise it): scripts/check.sh asserts hits > 0 here with the
  // cache enabled and hits == 0 under RLTHERM_EXPOP_CACHE=0.
  {
    const thermal::ExpOpCacheStats cacheStats =
        thermal::ExpOperatorCache::instance().stats();
    json.key("expop_cache").beginObject();
    json.key("enabled").value(cacheStats.enabled);
    json.key("hits").value(cacheStats.hits);
    json.key("misses").value(cacheStats.misses);
    json.key("inserts").value(cacheStats.inserts);
    json.key("evictions").value(cacheStats.evictions);
    json.key("entries").value(cacheStats.entries);
    json.endObject();
  }
  json.endObject();
  out << "\n";
  ensures(json.complete(), "BENCH_micro.json left unbalanced");
  std::cout << "wrote " << path << "\n";
}

int run(int argc, char** argv) {
  std::size_t reps = 5;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--reps") {
      reps = std::max<std::size_t>(3, std::stoul(argv[i + 1]));
    }
  }

  const std::vector<Lane> kernels = makeLanes();
  std::vector<Measured> measured;
  bench::ReportMeta meta;
  meta.jobs = 1;

  const std::uint64_t benchStartNs = obs::wallClockNs();
  double refNs = 0.0;  // kept out of wall_ms: the reference is no lane's work
  for (std::size_t first = 0; first < kernels.size();) {
    std::size_t end = first + 1;  // one kernel, or its whole group
    while (end < kernels.size() && !kernels[first].group.empty() &&
           kernels[end].group == kernels[first].group) {
      ++end;
    }
    for (std::size_t k = first; k < end; ++k) {
      (void)kernels[k].run();  // warmup: page in code + data, settle allocators
    }
    std::vector<std::vector<double>> samples(end - first);
    std::vector<std::vector<double>> refSamples(end - first);
    std::vector<double> simSecondsPerRep(end - first, 0.0);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t k = first; k < end; ++k) {
        refSamples[k - first].push_back(perfbench::referenceSeconds() * 1e9);
        refNs += refSamples[k - first].back();
        const std::uint64_t startNs = obs::wallClockNs();
        simSecondsPerRep[k - first] = kernels[k].run();
        samples[k - first].push_back(static_cast<double>(obs::wallClockNs() - startNs));
      }
    }
    for (std::size_t k = first; k < end; ++k) {
      std::vector<double> perRef(reps);
      for (std::size_t rep = 0; rep < reps; ++rep) {
        perRef[rep] = samples[k - first][rep] / refSamples[k - first][rep];
      }
      measured.push_back({kernels[k].name, obs::repStats(samples[k - first]),
                          obs::repStats(refSamples[k - first]).median,
                          obs::repStats(perRef).median, simSecondsPerRep[k - first],
                          kernels[k].ops});
      meta.simSeconds += simSecondsPerRep[k - first] * static_cast<double>(reps);
    }
    first = end;
  }
  meta.wallMs = (static_cast<double>(obs::wallClockNs() - benchStartNs) - refNs) / 1e6;

  // Attribution pass (unmeasured): run every kernel once under an
  // aggregates-only trace collector + metrics registry, so the report says
  // WHERE the time goes (thermal.rc.step, rl.q.update, ...) without the
  // per-scope clock reads polluting the timed reps above.
  {
    obs::TraceCollector trace(0);
    obs::MetricsRegistry metrics;
    obs::Session session;
    session.trace = &trace;
    session.metrics = &metrics;
    const obs::ScopedSession guard(session);
    for (const Lane& kernel : kernels) (void)kernel.run();
    for (const auto& [name, stats] : trace.sortedStats()) meta.scopes[name] = stats;
    metrics.forEachHistogram([&](const std::string& name, const obs::Histogram& h) {
      meta.histograms.emplace(name, h);
    });
  }

  TextTable table(
      {"kernel", "median (ms)", "CV", "ref (ms)", "per ref", "sim s / wall s", "ops/s"});
  for (const Measured& m : measured) {
    table.row()
        .cell(m.name)
        .cell(m.stats.median / 1e6, 3)
        .cell(m.stats.cv, 4)
        .cell(m.refMedianNs / 1e6, 3)
        .cell(m.perRef, 4)
        .cell(obs::simSecondsPerWallSecond(m.simSecondsPerRep, m.stats.median / 1e6), 1)
        .cell(m.ops > 0.0 && m.stats.median > 0.0 ? m.ops / (m.stats.median / 1e9) : 0.0,
              0);
  }
  printBanner(std::cout, "micro kernels (median of " + std::to_string(reps) + " reps)");
  table.print(std::cout);
  std::cout << "headline: "
            << formatFixed(obs::simSecondsPerWallSecond(meta.simSeconds, meta.wallMs), 1)
            << " simulated seconds per wall second\n";
  if (const std::string path = bench::jsonOutputPath(argc, argv, "BENCH_micro.json");
      !path.empty()) {
    writeReport(path, reps, meta, measured);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(argc, argv); }
