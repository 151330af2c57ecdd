#include "obs/timeline.hpp"

#include <algorithm>
#include <map>

#include "common/json.hpp"

namespace rltherm::obs {

TraceCollector::TraceCollector(std::size_t maxEvents)
    : maxEvents_(maxEvents), baseNs_(wallClockNs()) {
  events_.reserve(std::min<std::size_t>(maxEvents_, 4096));
}

void TraceCollector::record(const char* name, std::uint64_t startAbsNs,
                            std::uint64_t durationNs) {
  ++totalCalls_;
  ScopeStats& stats = statsBySite_[name];
  ++stats.calls;
  stats.totalNs += durationNs;
  stats.maxNs = std::max(stats.maxNs, durationNs);
  if (events_.size() < maxEvents_) {
    // startAbsNs can precede baseNs_ only if the scope opened before the
    // collector existed; clamp rather than wrap.
    const std::uint64_t rel = startAbsNs > baseNs_ ? startAbsNs - baseNs_ : 0;
    events_.push_back(TimedEvent{name, rel, durationNs});
  } else {
    ++dropped_;
  }
}

std::vector<std::pair<std::string, TraceCollector::ScopeStats>>
TraceCollector::sortedStats() const {
  std::map<std::string, ScopeStats> merged;
  for (const auto& [site, stats] : statsBySite_) {
    ScopeStats& into = merged[std::string(site)];
    into.calls += stats.calls;
    into.totalNs += stats.totalNs;
    into.maxNs = std::max(into.maxNs, stats.maxNs);
  }
  return {merged.begin(), merged.end()};
}

std::uint64_t TraceCollector::measuredScopeCostNs() {
  TraceCollector probe(/*maxEvents=*/0);
  Session session;
  session.trace = &probe;
  const ScopedSession guard(session);
  constexpr std::uint64_t kIterations = 4096;
  const std::uint64_t start = wallClockNs();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    RLTHERM_TIMED_SCOPE("obs.scope.calibrate");
  }
  const std::uint64_t elapsed = wallClockNs() - start;
  return elapsed / kIterations;
}

void writeChromeTrace(const TraceCollector& collector, std::ostream& out) {
  JsonWriter json(out);
  json.beginObject();
  json.key("displayTimeUnit").value("ms");
  json.key("traceEvents").beginArray();
  json.beginObject();
  json.key("ph").value("M");
  json.key("pid").value(std::int64_t{1});
  json.key("tid").value(std::int64_t{1});
  json.key("name").value("process_name");
  json.key("args").beginObject();
  json.key("name").value("rltherm");
  json.endObject();
  json.endObject();
  for (const TraceCollector::TimedEvent& event : collector.events()) {
    json.beginObject();
    json.key("ph").value("X");
    json.key("pid").value(std::int64_t{1});
    json.key("tid").value(std::int64_t{1});
    json.key("cat").value("rltherm");
    json.key("name").value(event.name);
    json.key("ts").value(static_cast<double>(event.startNs) / 1000.0);
    json.key("dur").value(static_cast<double>(event.durationNs) / 1000.0);
    json.endObject();
  }
  json.endArray();
  json.key("droppedEvents").value(collector.droppedEvents());
  json.endObject();
  out << '\n';
}

}  // namespace rltherm::obs
