#include "obs/events.hpp"

#include <chrono>

#include "common/json.hpp"

namespace rltherm::obs {

namespace {

std::uint64_t wallNowNs() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const EventField* Event::find(const std::string& key) const {
  for (const EventField& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

JsonlEventSink::JsonlEventSink(std::ostream& out) : out_(out) {}

void JsonlEventSink::record(const Event& event) {
  const std::uint64_t start = wallNowNs();
  JsonWriter json(out_);
  json.beginObject();
  json.key("event").value(event.name);
  json.key("t").value(event.simTime);
  for (const EventField& f : event.fields) {
    json.key(f.key);
    std::visit([&json](const auto& v) { json.value(v); }, f.value);
  }
  json.endObject();
  out_ << '\n';
  ++eventCount_;
  serializeNs_ += wallNowNs() - start;
}

std::size_t CollectingEventSink::countOf(const std::string& name) const {
  std::size_t n = 0;
  for (const Event& e : events) {
    if (e.name == name) ++n;
  }
  return n;
}

}  // namespace rltherm::obs
