// Pass 2, part 1: the lexical rule families (physics/units, RNG, CMake
// registration, determinism, obs-schema). The contract-coverage rule has its
// own translation unit (contracts_rule.cpp) — it carries a mini declaration
// parser. Every rule receives the shared AnalysisContext and appends
// findings; the driver applies suppressions afterwards.
//
// All matching runs on the lexer's code view (comments/strings blanked), so
// none of these can fire on documentation — the class of false positives
// the original single-pass tool suffered from. Rules about string *values*
// (telemetry names) use SourceText::strings instead.
#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>
#include <string_view>
#include <fstream>
#include <sstream>

#include "analysis_internal.hpp"

namespace fs = std::filesystem;

namespace rltherm::lint::detail {

namespace {

bool startsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool endsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

std::string lowercase(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string readFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Heuristic: does this identifier name a temperature quantity? Tuned so
/// sensitivity/weight/scale factors (`tempSensitivity`, `temperatureWeight`)
/// do not fire — those are 1/K coefficients, not temperatures.
bool isTemperatureName(const std::string& raw) {
  const std::string name = lowercase(raw);
  static const char* kExact[] = {"temp",    "temperature", "ambient", "hottest",
                                 "coolest", "tmax",        "tmin",    "tamb",
                                 "tjunction"};
  for (const char* e : kExact) {
    if (name == e || name == std::string(e) + "_") return true;
  }
  for (const char* suffix : {"temp", "temperature", "celsius", "kelvin",
                             "temp_", "temperature_", "celsius_", "kelvin_"}) {
    if (endsWith(name, suffix)) return true;
  }
  return false;
}

}  // namespace

std::size_t lineOfOffset(const std::string& text, std::size_t offset) {
  return 1 + static_cast<std::size_t>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(offset, text.size())),
                            '\n'));
}

// --- rule: naked-double-temperature -----------------------------------------

void checkNakedDoubleTemperature(const AnalysisContext& ctx,
                                 std::vector<Finding>& findings) {
  static const std::regex decl(R"(\bdouble\s+([A-Za-z_]\w*))");
  for (const FileUnit& unit : ctx.files) {
    if (!endsWith(unit.relPath, ".hpp")) continue;
    const std::string& code = unit.text.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
         it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (!isTemperatureName(name)) continue;
      findings.push_back(
          {unit.relPath, lineOfOffset(code, static_cast<std::size_t>(it->position())),
           "naked-double-temperature",
           "'" + name + "' looks like a temperature but is declared as naked double; "
           "use Celsius or Kelvin from common/units.hpp"});
    }
  }
}

// --- rule: raw-kelvin-offset ------------------------------------------------

void checkRawKelvinOffset(const AnalysisContext& ctx, std::vector<Finding>& findings) {
  static const std::regex offset(R"(\b273\.15\b)");
  for (const FileUnit& unit : ctx.files) {
    if (unit.relPath == "src/common/units.hpp") continue;  // defines the offset
    const std::string& code = unit.text.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), offset);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {unit.relPath, lineOfOffset(code, static_cast<std::size_t>(it->position())),
           "raw-kelvin-offset",
           "open-coded Celsius<->Kelvin offset; use toKelvin()/toCelsius() from "
           "common/units.hpp"});
    }
  }
}

// --- rule: global-rng -------------------------------------------------------

void checkGlobalRng(const AnalysisContext& ctx, std::vector<Finding>& findings) {
  static const std::regex rng(
      R"(\b(std\s*::\s*)?(rand|srand|rand_r|drand48|lrand48|random_device|mt19937(_64)?|minstd_rand0?|default_random_engine|ranlux\w+|knuth_b)\b)");
  for (const FileUnit& unit : ctx.files) {
    if (unit.relPath == "src/common/rng.hpp" || unit.relPath == "src/common/rng.cpp") {
      continue;  // the facility the rule protects
    }
    const std::string& code = unit.text.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), rng);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {unit.relPath, lineOfOffset(code, static_cast<std::size_t>(it->position())),
           "global-rng",
           std::string("'")
               .append((*it)[2].str())
               .append("' bypasses rltherm::Rng; all simulator randomness must flow "
                       "through src/common/rng for deterministic traces")});
    }
  }
}

// --- rule: unregistered-source ----------------------------------------------

void checkUnregisteredSources(const AnalysisContext& ctx,
                              std::vector<Finding>& findings) {
  const fs::path srcRoot = ctx.root / "src";
  if (!fs::is_directory(srcRoot)) return;

  std::map<fs::path, std::string> cmakeByDir;
  for (const auto& entry : fs::recursive_directory_iterator(srcRoot)) {
    if (entry.is_regular_file() && entry.path().filename() == "CMakeLists.txt") {
      cmakeByDir[entry.path().parent_path()] = readFile(entry.path());
    }
  }
  const auto rel = [&](const fs::path& p) {
    return fs::relative(p, ctx.root).generic_string();
  };
  for (const FileUnit& unit : ctx.files) {
    if (!startsWith(unit.relPath, "src/") || !endsWith(unit.relPath, ".cpp")) continue;
    const fs::path dir = unit.absPath.parent_path();
    const std::string name = unit.absPath.filename().string();
    const auto cm = cmakeByDir.find(dir);
    if (cm == cmakeByDir.end()) {
      findings.push_back({unit.relPath, 1, "unregistered-source",
                          "no CMakeLists.txt in " + rel(dir) +
                              " to register this source file"});
      continue;
    }
    if (cm->second.find(name) == std::string::npos) {
      findings.push_back({unit.relPath, 1, "unregistered-source",
                          name + " is not listed in " +
                              rel(dir / "CMakeLists.txt")});
    }
  }

  // A module directory with its own CMakeLists.txt must itself be reachable:
  // src/CMakeLists.txt needs an add_subdirectory(<module>) for it, otherwise
  // every file in the module is registered yet still built by nobody.
  const auto topCm = cmakeByDir.find(srcRoot);
  if (topCm == cmakeByDir.end()) return;  // layout without a src aggregator
  static const std::regex addSub(R"(add_subdirectory\s*\(\s*([\w./-]+))");
  std::vector<std::string> registered;
  for (auto it = std::sregex_iterator(topCm->second.begin(), topCm->second.end(),
                                      addSub);
       it != std::sregex_iterator(); ++it) {
    registered.push_back((*it)[1].str());
  }
  for (const auto& [dir, contents] : cmakeByDir) {
    if (dir == srcRoot || dir.parent_path() != srcRoot) continue;
    const std::string module = dir.filename().string();
    if (std::find(registered.begin(), registered.end(), module) == registered.end()) {
      findings.push_back({rel(dir / "CMakeLists.txt"), 1, "unregistered-source",
                          "module directory src/" + module +
                              " is not added via add_subdirectory() in " +
                              rel(srcRoot / "CMakeLists.txt")});
    }
  }
}

// --- rule: unordered-serialization ------------------------------------------
//
// Iterating a std::unordered_* container yields an implementation-defined
// order; doing so on a path that writes events, JSON or checkpoints breaks
// every bit-identical guarantee the repo makes (sweep output at any --jobs,
// checkpoint resume, replayable campaigns). The check is per header/source
// PAIR (x.hpp + x.cpp analyzed as one unit): the container is usually a
// member in the header while the serializing loop lives in the source.

void checkUnorderedSerialization(const AnalysisContext& ctx,
                                 std::vector<Finding>& findings) {
  static const std::regex container(R"(\bstd\s*::\s*unordered_(map|set|multimap|multiset)\b)");
  static const std::regex serializes(
      R"(\bobs\s*::\s*emit\b|\bEventSink\b|\bJsonWriter\b|\bJsonl\w*\b|\bofstream\b|\bByteWriter\b|\bwriteChromeTrace\b|\bsaveCheckpoint\w*\b|\bencodePolicyCheckpoint\b|->\s*record\s*\()");

  // Group files into header/source pairs by path-minus-extension.
  std::map<std::string, std::vector<const FileUnit*>> pairs;
  for (const FileUnit& unit : ctx.files) {
    const auto dot = unit.relPath.rfind('.');
    pairs[unit.relPath.substr(0, dot)].push_back(&unit);
  }
  for (const auto& [stem, units] : pairs) {
    const bool pairSerializes =
        std::any_of(units.begin(), units.end(), [&](const FileUnit* u) {
          return std::regex_search(u->text.code, serializes);
        });
    if (!pairSerializes) continue;
    for (const FileUnit* unit : units) {
      const std::string& code = unit->text.code;
      for (auto it = std::sregex_iterator(code.begin(), code.end(), container);
           it != std::sregex_iterator(); ++it) {
        findings.push_back(
            {unit->relPath,
             lineOfOffset(code, static_cast<std::size_t>(it->position())),
             "unordered-serialization",
             "std::unordered_" + (*it)[1].str() +
                 " in a header/source pair that writes events/JSON/checkpoints; "
                 "iteration order is implementation-defined and breaks "
                 "bit-identical artifacts — use std::map or a sorted vector on "
                 "the serialization path, or suppress with a justification for "
                 "why no serialized output ever iterates it"});
      }
    }
  }
}

// --- rule: wall-clock -------------------------------------------------------
//
// Simulation code must be a pure function of config + seed; any wall-clock
// read is a nondeterminism hole (and usually a unit bug — simulated seconds
// live in `Seconds`, not std::chrono). Only the obs layer may read real
// time, and only in its two timing translation units.

void checkWallClock(const AnalysisContext& ctx, std::vector<Finding>& findings) {
  static const std::regex wallClock(
      R"(\bstd\s*::\s*chrono\s*::\s*(system_clock|high_resolution_clock|steady_clock)\b|\b(clock_gettime|gettimeofday|timespec_get|localtime(_r)?|gmtime(_r)?|strftime|mktime)\b|\bstd\s*::\s*time\s*\(|\btime\s*\(\s*(nullptr|NULL|0\s*\)|\)))");
  static const std::set<std::string> kAllowlist = {
      "src/obs/timeline.hpp",  // wallClockNs(): the one steady_clock read
      "src/obs/events.cpp",    // sink self-accounting of serialization cost
  };
  for (const FileUnit& unit : ctx.files) {
    if (!startsWith(unit.relPath, "src/")) continue;
    if (kAllowlist.count(unit.relPath) != 0) continue;
    const std::string& code = unit.text.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), wallClock);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {unit.relPath, lineOfOffset(code, static_cast<std::size_t>(it->position())),
           "wall-clock",
           "wall-clock read in simulation code breaks bit-identical replay; use "
           "simulated time (Seconds) or route timing through src/obs/ "
           "(obs::wallClockNs), which stays off unless a collector is attached"});
    }
  }
}

// --- rule: thread-local -----------------------------------------------------
//
// thread_local state outside the obs session machinery is how per-run
// isolation silently leaks across sweep worker threads: a stray cache keyed
// on the thread rather than the run makes results depend on --jobs. Only
// src/obs/ (which owns the per-thread ambient session by design) may use it.

void checkThreadLocal(const AnalysisContext& ctx, std::vector<Finding>& findings) {
  static const std::regex tl(R"(\bthread_local\b)");
  for (const FileUnit& unit : ctx.files) {
    if (!startsWith(unit.relPath, "src/")) continue;
    if (startsWith(unit.relPath, "src/obs/")) continue;
    const std::string& code = unit.text.code;
    for (auto it = std::sregex_iterator(code.begin(), code.end(), tl);
         it != std::sregex_iterator(); ++it) {
      findings.push_back(
          {unit.relPath, lineOfOffset(code, static_cast<std::size_t>(it->position())),
           "thread-local",
           "thread_local outside src/obs/ makes behavior depend on which worker "
           "thread runs a job (breaks sweep bit-identity at varying --jobs); key "
           "state on the run, or put it behind the obs session"});
    }
  }
}

// --- rules: undocumented-telemetry / stale-telemetry-doc --------------------
//
// Every `subsystem.noun.verb` name the code emits (metrics registry, event
// sink, timed scopes) must appear in docs/ARCHITECTURE.md, and every name
// the doc lists must still exist in code. Telemetry names are recognized by
// shape — three or more lowercase dot-joined segments — among the string
// literals the lexer collected from src/.

namespace {

bool isTelemetryShape(const std::string& s) {
  static const std::regex shape(R"(^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*){2,}$)");
  return std::regex_match(s, shape);
}

}  // namespace

void checkTelemetrySchema(const AnalysisContext& ctx, std::vector<Finding>& findings) {
  std::set<std::string> documented;
  for (const DocumentedName& d : ctx.docNames) documented.insert(d.name);

  std::set<std::string> inCode;
  for (const FileUnit& unit : ctx.files) {
    if (!startsWith(unit.relPath, "src/")) continue;
    for (const StringLiteral& lit : unit.text.strings) {
      if (!isTelemetryShape(lit.text)) continue;
      inCode.insert(lit.text);
      if (documented.count(lit.text) != 0) continue;
      findings.push_back(
          {unit.relPath, lit.line, "undocumented-telemetry",
           ctx.hasSchemaDoc
               ? "telemetry name '" + lit.text +
                     "' is not documented in docs/ARCHITECTURE.md (event schema / "
                     "metrics tables); add a row or fix the typo"
               : "telemetry name '" + lit.text +
                     "' has no schema doc to check against (docs/ARCHITECTURE.md "
                     "not found under the analyzed root)"});
    }
  }

  if (!ctx.hasSchemaDoc) return;
  for (const DocumentedName& d : ctx.docNames) {
    if (inCode.count(d.name) != 0) continue;
    findings.push_back(
        {ctx.schemaDocRel, d.line, "stale-telemetry-doc",
         "documented telemetry name '" + d.name +
             "' does not appear in any string literal under src/; the doc has "
             "drifted from the code (or the emitter was removed)"});
  }
}

}  // namespace rltherm::lint::detail
