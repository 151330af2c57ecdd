// Measurement primitives of the end-to-end benchmark, kept free of any
// simulator dependency so perfbench_tests can pin them directly:
//
//  - deriveSeed: every generated input (sensor seeds, tenant seeds, family
//    order) is a pure function of the --seed argument, a stream tag and an
//    index, so one seed always yields the same inputs;
//  - tailPercentile: a percentile is reported only when at least kMinTail
//    samples lie beyond it, otherwise it would be one or two shots;
//  - SpanTrace: in-memory spans (name, start, end, parent, run id) recorded
//    around calls into each layer's public functions; layerTimes() turns
//    them into per-layer self time (span minus its child spans).
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t splitMix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

/// Named input streams, so that adding a stream never shifts another one.
enum class Stream : std::uint64_t {
  kTrain = 1,
  kEvalSensor = 2,
  kScenario = 3,
  kTenantConfig = 4,
  kTenantApp = 5,
  kTenantSeed = 6,
  kSample = 7,
};

[[nodiscard]] inline std::uint64_t deriveSeed(std::uint64_t seed, Stream stream,
                                              std::uint64_t index) noexcept {
  return splitMix64(splitMix64(seed ^ splitMix64(static_cast<std::uint64_t>(stream))) +
                    index);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of no samples");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(
      samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

/// Samples that must lie strictly beyond a reported percentile, on its tail
/// side: above it for q >= 0.5, below it for q < 0.5.
inline constexpr std::size_t kMinTail = 10;

/// Nearest-rank index (1-based) of percentile `q` in (0, 1) over n samples.
[[nodiscard]] inline std::size_t nearestRank(double q, std::size_t n) noexcept {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

[[nodiscard]] inline std::size_t tailCount(double q, std::size_t n) noexcept {
  const std::size_t rank = nearestRank(q, n);
  return q >= 0.5 ? n - rank : rank - 1;
}

/// Smallest sample count for which percentile `q` has kMinTail samples
/// beyond it.
[[nodiscard]] inline std::size_t minSamplesFor(double q) noexcept {
  std::size_t n = kMinTail + 1;
  while (tailCount(q, n) < kMinTail) ++n;
  return n;
}

/// Nearest-rank percentile, or nullopt when fewer than kMinTail samples lie
/// beyond it.
[[nodiscard]] inline std::optional<double> tailPercentile(std::vector<double> samples,
                                                          double q) {
  if (samples.empty() || tailCount(q, samples.size()) < kMinTail) return std::nullopt;
  const std::size_t rank = nearestRank(q, samples.size());
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// The layer boundaries the benchmark records spans at. kLoop is the root
/// of one simulated run (or one fleet pass); whatever part of it no child
/// span covers is the unattributed residual.
enum Layer : std::uint32_t {
  kLoop,
  kMachineBuild,
  kTick,
  kReadSensors,
  kSample,
  kEpoch,
  kTrueTemps,
  kAnalyze,
  kRestore,
  kEvict,
  kSubmit,
  kPass,
  kQuery,
  kLayerCount,
};

inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "loop",
    "platform.machine_build",
    "workload.tick",
    "platform.read_sensors",
    "core.sample",
    "core.epoch",
    "platform.true_temps",
    "reliability.analyze",
    "store.restore",
    "serve.evict",
    "serve.submit",
    "serve.pass",
    "serve.query",
};

struct Span {
  static constexpr std::uint32_t kNoParent = 0xffffffffU;
  std::uint32_t layer = kLoop;
  std::uint32_t parent = kNoParent;
  std::uint32_t run = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t totalNs = 0;
  std::int64_t selfNs = 0;  ///< total minus the time its child spans cover
};

/// Adds the per-layer totals of spans[from..] to `out`. The spans must be
/// closed and properly nested (children lie within their parent and do not
/// overlap each other, as single-threaded nesting guarantees).
inline void addLayerTimes(std::array<LayerTime, kLayerCount>& out,
                          const std::vector<Span>& spans, std::size_t from = 0) {
  for (std::size_t i = from; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::int64_t duration = span.endNs - span.startNs;
    LayerTime& own = out.at(span.layer);
    ++own.calls;
    own.totalNs += duration;
    own.selfNs += duration;
    if (span.parent != Span::kNoParent) {
      out.at(spans.at(span.parent).layer).selfNs -= duration;
    }
  }
}

[[nodiscard]] inline std::array<LayerTime, kLayerCount> layerTimes(
    const std::vector<Span>& spans) {
  std::array<LayerTime, kLayerCount> out{};
  addLayerTimes(out, spans);
  return out;
}

/// Records spans in memory; write() emits them once the run is over.
class SpanTrace {
 public:
  explicit SpanTrace(std::size_t reserve = 0) { spans_.reserve(reserve); }

  void setRun(std::uint32_t run) noexcept { run_ = run; }

  void open(Layer layer) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{layer, stack_.empty() ? Span::kNoParent : stack_.back(), run_,
                          nowNs(), 0});
    stack_.push_back(index);
  }

  /// Closes the innermost open span, optionally relabelling it (a sample
  /// call is known to have closed a decision epoch only once it returns).
  void close(std::optional<Layer> relabel = std::nullopt) {
    Span& span = spans_.at(stack_.back());
    span.endNs = nowNs();
    if (relabel.has_value()) span.layer = *relabel;
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Drops the spans from index `size` on; no span may be open.
  void truncate(std::size_t size) {
    if (!stack_.empty()) throw std::logic_error("truncate with open spans");
    spans_.resize(std::min(size, spans_.size()));
  }

  /// One tab-separated line per span: run, index, parent (-1 for a root),
  /// layer name, start and end in steady-clock ns.
  void write(std::ostream& out) const {
    out << "run\tspan\tparent\tlayer\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << s.run << '\t' << i << '\t'
          << (s.parent == Span::kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
          << '\t' << kLayerNames.at(s.layer) << '\t' << s.startNs << '\t' << s.endNs
          << '\n';
    }
  }

 private:
  [[nodiscard]] static std::int64_t nowNs() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t run_ = 0;
};

}  // namespace perfbench
