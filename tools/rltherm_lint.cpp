// rltherm_lint — project-specific static analysis for invariants that
// clang-tidy cannot express. Thin CLI over the analyzer library in
// tools/lint/ (lexer pass, rule families, suppressions); see lint.hpp for
// the architecture and docs/ANALYSIS.md for the rule catalogue.
//
// Usage:
//   rltherm_lint [repo-root]                 text findings, exit 1 if any
//   rltherm_lint --json [repo-root]          findings as JSON on stdout
//   rltherm_lint --baseline FILE [root]      fail only on findings NOT in
//                                            the committed baseline
//   rltherm_lint --write-baseline FILE [root] (re)generate the baseline
//   rltherm_lint --list-rules
//
// scripts/check.sh runs `rltherm_lint --json --baseline
// tools/lint_baseline.json .` as the CI gate: pre-existing findings are
// inventoried in the baseline, anything new fails. Prefer an inline
// suppression with a justification over a baseline entry — the baseline
// exists so adopting a new rule never blocks on fixing the whole tree at
// once.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lint.hpp"

namespace fs = std::filesystem;
namespace lint = rltherm::lint;

namespace {

void listRules() {
  std::cout <<
      "bad-suppression           suppression comments must name known rules and\n"
      "                          carry a non-empty justification\n"
      "global-rng                std/libc RNGs forbidden outside src/common/rng\n"
      "missing-contract          public functions in thermal/rl/reliability\n"
      "                          headers need an RLTHERM_* contract (or\n"
      "                          expects/ensures) in their definition\n"
      "naked-double-temperature  temperature-named declarations in headers must\n"
      "                          use the Celsius/Kelvin wrappers (common/units.hpp)\n"
      "raw-kelvin-offset         273.15 may appear only in common/units.hpp\n"
      "stale-telemetry-doc       names documented in docs/ARCHITECTURE.md must\n"
      "                          still exist in code\n"
      "thread-local              thread_local forbidden in src/ outside src/obs/\n"
      "undocumented-telemetry    subsystem.noun.verb names emitted from src/ must\n"
      "                          be documented in docs/ARCHITECTURE.md\n"
      "unordered-serialization   std::unordered_* forbidden in header/source\n"
      "                          pairs that write events/JSON/checkpoints\n"
      "unregistered-source       every src/**.cpp must be listed in its\n"
      "                          CMakeLists.txt, and every src/<module>/ added\n"
      "                          from src/CMakeLists.txt\n"
      "wall-clock                wall-clock reads forbidden in src/ outside the\n"
      "                          two obs timing translation units\n"
      "\n"
      "Suppress a finding on its line (or the line above):\n"
      "  // rltherm-lint: allow(<rule>[, <rule>...]) — <justification>\n";
}

int usageError(const std::string& message) {
  std::cerr << "rltherm_lint: " << message
            << "\nusage: rltherm_lint [--json] [--baseline FILE | --write-baseline "
               "FILE] [repo-root]\n       rltherm_lint --list-rules\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  bool json = false;
  std::string baselinePath;
  std::string writeBaselinePath;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      listRules();
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: rltherm_lint [--json] [--baseline FILE | "
                   "--write-baseline FILE] [repo-root]\n"
                   "       rltherm_lint --list-rules\n";
      return 0;
    }
    if (arg == "--json") {
      json = true;
      continue;
    }
    if (arg == "--baseline" || arg == "--write-baseline") {
      if (i + 1 >= argc) return usageError(std::string(arg) + " needs a file");
      (arg == "--baseline" ? baselinePath : writeBaselinePath) = argv[++i];
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      return usageError("unknown flag '" + std::string(arg) + "'");
    }
    root = fs::path(arg);
  }
  if (!baselinePath.empty() && !writeBaselinePath.empty()) {
    return usageError("--baseline and --write-baseline are mutually exclusive");
  }
  if (!fs::is_directory(root / "src") && !fs::is_directory(root / "tools") &&
      !fs::is_directory(root / "bench")) {
    std::cerr << "rltherm_lint: no src/, tools/ or bench/ directory under " << root
              << "\n";
    return 2;
  }

  std::vector<lint::Finding> findings = lint::analyzeTree(root);

  if (!writeBaselinePath.empty()) {
    std::ofstream out(writeBaselinePath, std::ios::binary);
    if (!out) return usageError("cannot write baseline " + writeBaselinePath);
    lint::writeFindingsJson(findings, out);
    std::cout << "rltherm_lint: wrote baseline with " << findings.size()
              << " finding(s) to " << writeBaselinePath << "\n";
    return 0;
  }

  std::vector<lint::Finding> gated = findings;
  std::size_t baselined = 0;
  std::vector<lint::Finding> stale;
  if (!baselinePath.empty()) {
    std::ifstream in(baselinePath, std::ios::binary);
    if (!in) return usageError("cannot read baseline " + baselinePath);
    std::string error;
    const std::vector<lint::Finding> baseline =
        lint::readFindingsJson(in, &error, baselinePath);
    if (!error.empty()) return usageError("malformed baseline " + error);
    gated = lint::diffAgainstBaseline(findings, baseline, &stale);
    baselined = findings.size() - gated.size();
  }

  if (json) {
    lint::writeFindingsJson(gated, std::cout);
  } else {
    lint::writeFindingsText(gated, std::cout);
  }

  // Status lines go to stderr so --json output stays machine-parseable.
  for (const lint::Finding& f : stale) {
    std::cerr << "rltherm_lint: note: baseline entry no longer fires: " << f.file
              << " [" << f.rule << "] (refresh with --write-baseline)\n";
  }
  if (gated.empty()) {
    std::cerr << "rltherm_lint: clean (" << root.generic_string() << ")";
    if (baselined != 0) std::cerr << ", " << baselined << " baselined finding(s)";
    std::cerr << "\n";
    return 0;
  }
  std::cerr << "rltherm_lint: " << gated.size() << " finding(s)";
  if (!baselinePath.empty()) std::cerr << " not in baseline " << baselinePath;
  std::cerr << "\n";
  return 1;
}
