#include "obs/perf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::obs {

namespace {

std::string detectCpuModel() {
  // Linux-only source; every other platform reports "unknown", which the
  // perf gate notes as a cross-machine comparison.
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.rfind("model name", 0) != 0) continue;
    std::size_t start = colon + 1;
    while (start < line.size() && line[start] == ' ') ++start;
    if (start < line.size()) return line.substr(start);
  }
  return "unknown";
}

std::string detectCompiler() {
  std::ostringstream out;
#if defined(__clang__)
  out << "clang " << __clang_major__ << "." << __clang_minor__ << "."
      << __clang_patchlevel__;
#elif defined(__GNUC__)
  out << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
      << __GNUC_PATCHLEVEL__;
#else
  out << "unknown";
#endif
  return out.str();
}

std::string detectSanitizers() {
  std::string list;
  // [[maybe_unused]]: in unsanitized builds none of the branches below call
  // this and the whole lambda folds away.
  [[maybe_unused]] const auto append = [&list](const char* name) {
    if (!list.empty()) list += ",";
    list += name;
  };
#if defined(__SANITIZE_ADDRESS__)
  append("address");
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  append("address");
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  append("thread");
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  append("thread");
#endif
#endif
  return list.empty() ? "none" : list;
}

BuildFingerprint computeFingerprint() {
  BuildFingerprint fp;
  fp.cpuModel = detectCpuModel();
  fp.coreCount = std::thread::hardware_concurrency();
  fp.compiler = detectCompiler();
#if defined(NDEBUG)
  fp.buildType = "optimized";
#else
  fp.buildType = "debug";
#endif
#if defined(RLTHERM_CHECKED) && RLTHERM_CHECKED
  fp.checked = true;
#endif
  fp.sanitizers = detectSanitizers();
  return fp;
}

}  // namespace

const BuildFingerprint& currentFingerprint() {
  static const BuildFingerprint fp = computeFingerprint();
  return fp;
}

void writeFingerprint(JsonWriter& json, const BuildFingerprint& fp) {
  json.beginObject();
  json.key("schema_version").value(static_cast<std::uint64_t>(fp.schemaVersion));
  json.key("cpu_model").value(fp.cpuModel);
  json.key("core_count").value(static_cast<std::uint64_t>(fp.coreCount));
  json.key("compiler").value(fp.compiler);
  json.key("build_type").value(fp.buildType);
  json.key("checked").value(fp.checked);
  json.key("sanitizers").value(fp.sanitizers);
  json.endObject();
}

RepStats repStats(std::vector<double> samples) {
  expects(!samples.empty(), "repStats: at least one sample required");
  for (const double s : samples) {
    expects(std::isfinite(s), "repStats: samples must be finite");
  }
  RepStats stats;
  stats.reps = samples.size();
  std::sort(samples.begin(), samples.end());
  stats.min = samples.front();
  stats.max = samples.back();
  const auto medianOfSorted = [](const std::vector<double>& sorted) {
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  };
  stats.median = medianOfSorted(samples);
  double sum = 0.0;
  for (const double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(samples.size());
  std::vector<double> deviations;
  deviations.reserve(samples.size());
  for (const double s : samples) deviations.push_back(std::abs(s - stats.median));
  std::sort(deviations.begin(), deviations.end());
  stats.mad = medianOfSorted(deviations);
  // Robust coefficient of variation: 1.4826 * MAD estimates sigma for a
  // normal distribution, so cv is comparable to sigma/mu while ignoring the
  // occasional scheduler-preemption outlier rep entirely.
  stats.cv = stats.median != 0.0 ? 1.4826 * stats.mad / std::abs(stats.median) : 0.0;
  return stats;
}

double simSecondsPerWallSecond(double simSeconds, double wallMs) noexcept {
  if (!(simSeconds > 0.0) || !(wallMs > 0.0)) return 0.0;
  return simSeconds / (wallMs / 1000.0);
}

void recordHeadline(double simSeconds, double wallMs) {
  MetricsRegistry* registry = metrics();
  if (registry == nullptr) return;
  registry->counter("perf.reports.write").add();
  const double rate = simSecondsPerWallSecond(simSeconds, wallMs);
  if (rate > 0.0) registry->gauge("perf.headline.sim_rate").set(rate);
}

}  // namespace rltherm::obs
