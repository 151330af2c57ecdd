#include "serve/protocol.hpp"

#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>

#include "common/json.hpp"
#include "common/strict_file.hpp"
#include "obs/metrics.hpp"
#include "obs/session.hpp"

namespace rltherm::serve {
namespace {

/// A number token (already valid JSON) with no fraction and no exponent.
[[nodiscard]] bool isIntegerToken(const std::string& token) {
  return token.find_first_of(".eE") == std::string::npos;
}

/// Parses one command line (grammar in protocol.hpp) into its object.
[[nodiscard]] JsonValue parseCommand(const std::string& text, const std::string& source,
                                     std::size_t line) {
  if (text.empty() || text.front() != '{') {
    failParse(source, line, "expected '{' to open the command object");
  }
  JsonValue command = parseJson(text, source, line, "the command object");
  for (std::size_t i = 0; i < command.keys.size(); ++i) {
    const JsonValue::Kind kind = command.items[i].kind;
    if (kind != JsonValue::Kind::String && kind != JsonValue::Kind::Number &&
        kind != JsonValue::Kind::Bool) {
      failParse(source, line,
                "unsupported value for key '" + command.keys[i] +
                    "' (expected string, number, true or false)");
    }
  }
  return command;
}

/// Typed, diagnostic access to a parsed command's fields.
class CommandArgs {
 public:
  CommandArgs(JsonValue command, std::string cmd, const std::string& source,
              std::size_t line)
      : command_(std::move(command)), cmd_(std::move(cmd)), source_(source), line_(line) {}

  /// `valid` must be the sorted, comma-joined key list for the diagnostic.
  void allowKeys(std::initializer_list<const char*> keys, const char* valid) const {
    for (const std::string& key : command_.keys) {
      bool known = false;
      for (const char* candidate : keys) {
        if (key == candidate) {
          known = true;
          break;
        }
      }
      if (!known) {
        fail("unknown key '" + key + "' for command '" + cmd_ + "' (valid: " +
             valid + ")");
      }
    }
  }

  [[nodiscard]] const JsonValue* find(const char* key) const { return command_.find(key); }

  [[nodiscard]] std::string requireString(const char* key) const {
    const JsonValue* value = find(key);
    if (value == nullptr) {
      fail("command '" + cmd_ + "' requires key '" + key + "'");
    }
    if (value->kind != JsonValue::Kind::String) {
      fail(std::string("key '") + key + "' must be a string");
    }
    return value->text;
  }

  [[nodiscard]] std::string stringOr(const char* key, std::string fallback) const {
    const JsonValue* value = find(key);
    if (value == nullptr) return fallback;
    if (value->kind != JsonValue::Kind::String) {
      fail(std::string("key '") + key + "' must be a string");
    }
    return value->text;
  }

  [[nodiscard]] double numberOr(const char* key, double fallback) const {
    const JsonValue* value = find(key);
    if (value == nullptr) return fallback;
    if (value->kind != JsonValue::Kind::Number) {
      fail(std::string("key '") + key + "' must be a number");
    }
    return std::strtod(value->text.c_str(), nullptr);
  }

  [[nodiscard]] std::uint64_t uintOr(const char* key, std::uint64_t fallback) const {
    const JsonValue* value = find(key);
    if (value == nullptr) return fallback;
    if (value->kind != JsonValue::Kind::Number || !isIntegerToken(value->text) ||
        value->text[0] == '-') {
      fail(std::string("key '") + key + "' must be a non-negative integer");
    }
    return std::strtoull(value->text.c_str(), nullptr, 10);
  }

  [[nodiscard]] std::int64_t intInRange(const char* key, std::int64_t lo,
                                        std::int64_t hi, std::int64_t fallback) const {
    const JsonValue* value = find(key);
    if (value == nullptr) return fallback;
    const std::string range =
        " must be an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
    if (value->kind != JsonValue::Kind::Number || !isIntegerToken(value->text)) {
      fail(std::string("key '") + key + "'" + range);
    }
    const std::int64_t parsed = std::strtoll(value->text.c_str(), nullptr, 10);
    if (parsed < lo || parsed > hi) {
      fail(std::string("key '") + key + "'" + range);
    }
    return parsed;
  }

  [[noreturn]] void fail(const std::string& message) const {
    failParse(source_, line_, message);
  }

 private:
  JsonValue command_;
  std::string cmd_;
  const std::string& source_;
  std::size_t line_;
};

struct Response {
  bool ok = true;
  std::string text;
};

[[nodiscard]] Response errorResponse(const std::string& message) {
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("ok").value(false);
  json.key("error").value(message);
  json.endObject();
  return {false, out.str()};
}

[[nodiscard]] Response handleAdmit(FleetService& service, const CommandArgs& args) {
  args.allowKeys({"aging_bins", "cmd", "dataset", "family", "gamma", "seed",
                  "stress_bins", "tenant"},
                 "aging_bins, cmd, dataset, family, gamma, seed, stress_bins, tenant");
  AdmitRequest request;
  request.tenant = args.requireString("tenant");
  request.family = args.stringOr("family", request.family);
  request.dataset = static_cast<int>(
      args.intInRange("dataset", 0, 1000000, request.dataset));
  request.seed = args.uintOr("seed", request.seed);
  request.gamma = args.numberOr("gamma", request.gamma);
  request.stressBins = static_cast<std::size_t>(args.intInRange(
      "stress_bins", 2, 64, static_cast<std::int64_t>(request.stressBins)));
  request.agingBins = static_cast<std::size_t>(args.intInRange(
      "aging_bins", 2, 64, static_cast<std::int64_t>(request.agingBins)));

  const AdmitOutcome outcome = service.submit(request);
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("ok").value(outcome.accepted);
  json.key("cmd").value("admit");
  json.key("tenant").value(request.tenant);
  if (outcome.accepted) {
    json.key("queued").value(true);
  } else {
    json.key("error").value(outcome.reason);
  }
  json.endObject();
  return {outcome.accepted, out.str()};
}

[[nodiscard]] Response handleStep(FleetService& service, const CommandArgs& args) {
  args.allowKeys({"cmd", "passes"}, "cmd, passes");
  const std::int64_t passes = args.intInRange("passes", 1, 1000, 1);
  PassReport total;
  for (std::int64_t i = 0; i < passes; ++i) {
    const PassReport report = service.runPass();
    total.admitted += report.admitted;
    total.trained += report.trained;
    total.advanced += report.advanced;
    total.completed += report.completed;
  }
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("ok").value(true);
  json.key("cmd").value("step");
  json.key("passes").value(static_cast<std::int64_t>(passes));
  json.key("admitted").value(static_cast<std::uint64_t>(total.admitted));
  json.key("trained").value(static_cast<std::uint64_t>(total.trained));
  json.key("advanced").value(static_cast<std::uint64_t>(total.advanced));
  json.key("completed").value(static_cast<std::uint64_t>(total.completed));
  json.endObject();
  return {true, out.str()};
}

[[nodiscard]] Response handleQuery(FleetService& service, const CommandArgs& args) {
  args.allowKeys({"cmd", "tenant"}, "cmd, tenant");
  const std::string tenant = args.requireString("tenant");
  const std::optional<TenantStatus> status = service.query(tenant);
  if (!status.has_value()) {
    return errorResponse("unknown tenant '" + tenant + "'");
  }
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("ok").value(true);
  json.key("cmd").value("query");
  json.key("tenant").value(status->tenant);
  json.key("family").value(status->family);
  json.key("dataset").value(static_cast<std::int64_t>(status->dataset));
  json.key("seed").value(status->seed);
  json.key("fingerprint").value(fingerprintHex(status->fingerprint));
  json.key("warm_start").value(status->warmStart);
  json.key("done").value(status->done);
  json.key("sim_time").value(status->simTime);
  json.key("decisions").value(static_cast<std::uint64_t>(status->decisions));
  json.key("samples").value(static_cast<std::uint64_t>(status->samples));
  json.key("completions").value(static_cast<std::uint64_t>(status->completions));
  json.key("peak_temp").value(status->peakTemp);
  json.key("trace_hash").value(fingerprintHex(status->traceHash));
  json.key("first_decision_ms").value(status->firstDecisionMs);
  json.endObject();
  return {true, out.str()};
}

[[nodiscard]] Response handleEvict(FleetService& service, const CommandArgs& args) {
  args.allowKeys({"cmd", "fingerprint", "tenant"}, "cmd, fingerprint, tenant");
  const JsonValue* tenant = args.find("tenant");
  const JsonValue* fingerprint = args.find("fingerprint");
  if ((tenant == nullptr) == (fingerprint == nullptr)) {
    args.fail("command 'evict' requires exactly one of 'tenant' or 'fingerprint'");
  }
  std::ostringstream out;
  JsonWriter json(out);
  if (tenant != nullptr) {
    const std::string name = args.requireString("tenant");
    if (!service.evictTenant(name)) {
      return errorResponse("unknown tenant '" + name + "'");
    }
    json.beginObject();
    json.key("ok").value(true);
    json.key("cmd").value("evict");
    json.key("tenant").value(name);
    json.key("evicted").value(true);
    json.endObject();
    return {true, out.str()};
  }
  const std::string hex = args.requireString("fingerprint");
  bool validHex = hex.size() == 16;
  if (validHex) {
    for (const char c : hex) {
      if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) {
        validHex = false;
        break;
      }
    }
  }
  if (!validHex) {
    args.fail("key 'fingerprint' must be a 16-digit hex string");
  }
  const std::uint64_t key = std::strtoull(hex.c_str(), nullptr, 16);
  if (!service.evictCacheEntry(key)) {
    return errorResponse("fingerprint '" + hex + "' is not cached");
  }
  json.beginObject();
  json.key("ok").value(true);
  json.key("cmd").value("evict");
  json.key("fingerprint").value(hex);
  json.key("evicted").value(true);
  json.endObject();
  return {true, out.str()};
}

[[nodiscard]] Response handleStats(FleetService& service, const CommandArgs& args) {
  args.allowKeys({"cmd"}, "cmd");
  const FleetStats stats = service.stats();
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("ok").value(true);
  json.key("cmd").value("stats");
  json.key("admitted").value(stats.admitted);
  json.key("rejected").value(stats.rejected);
  json.key("trainings").value(stats.trainings);
  json.key("completed").value(stats.completed);
  json.key("evicted_tenants").value(stats.evictedTenants);
  json.key("passes").value(stats.passes);
  json.key("active_tenants").value(static_cast<std::uint64_t>(stats.activeTenants));
  json.key("queue_depth").value(static_cast<std::uint64_t>(stats.queueDepth));
  json.key("cache_hits").value(stats.cache.hits);
  json.key("cache_misses").value(stats.cache.misses);
  json.key("cache_evictions").value(stats.cache.evictions);
  json.key("cache_entries").value(static_cast<std::uint64_t>(stats.cache.entries));
  json.key("cache_capacity").value(static_cast<std::uint64_t>(stats.cache.capacity));
  json.key("train_ms_total").value(stats.trainMsTotal);
  json.endObject();
  return {true, out.str()};
}

}  // namespace

ServeSession::ServeSession(FleetService& service, std::string source)
    : service_(service), source_(std::move(source)) {}

std::string ServeSession::handleLine(const std::string& line) {
  ++line_;
  if (line.size() <= kMaxCommandBytes && trimWhitespace(line).empty()) return {};

  if (obs::MetricsRegistry* metrics = obs::metrics()) {
    metrics->counter("serve.protocol.command").add();
  }
  Response response;
  try {
    if (line.size() > kMaxCommandBytes) {
      failParse(source_, line_, "command exceeds " +
                                    std::to_string(kMaxCommandBytes) + " bytes");
    }
    JsonValue command = parseCommand(trimWhitespace(line), source_, line_);
    const JsonValue* cmdValue = command.find("cmd");
    if (cmdValue == nullptr) {
      failParse(source_, line_, "missing required key 'cmd'");
    }
    if (cmdValue->kind != JsonValue::Kind::String) {
      failParse(source_, line_, "key 'cmd' must be a string");
    }
    const std::string cmd = cmdValue->text;
    const CommandArgs args(std::move(command), cmd, source_, line_);
    if (cmd == "admit") {
      response = handleAdmit(service_, args);
    } else if (cmd == "step") {
      response = handleStep(service_, args);
    } else if (cmd == "query") {
      response = handleQuery(service_, args);
    } else if (cmd == "evict") {
      response = handleEvict(service_, args);
    } else if (cmd == "stats") {
      response = handleStats(service_, args);
    } else if (cmd == "shutdown") {
      args.allowKeys({"cmd"}, "cmd");
      shutdown_ = true;
      std::ostringstream out;
      JsonWriter json(out);
      json.beginObject();
      json.key("ok").value(true);
      json.key("cmd").value("shutdown");
      json.endObject();
      response = {true, out.str()};
    } else {
      failParse(source_, line_,
                "unknown command '" + cmd +
                    "' (valid: admit, evict, query, shutdown, stats, step)");
    }
  } catch (const std::exception& error) {
    response = errorResponse(error.what());
  }
  if (!response.ok) {
    if (obs::MetricsRegistry* metrics = obs::metrics()) {
      metrics->counter("serve.protocol.error").add();
    }
  }
  return response.text;
}

}  // namespace rltherm::serve
