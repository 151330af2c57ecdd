// rltherm_lint core — multi-pass project static analyzer.
//
// The analyzer is a small library (linked by the rltherm_lint tool and by
// tests/lint/) structured as three passes over every source file in scope
// (`src/`, `tools/`, `bench/` under the repo root):
//
//   1. lex      — lexSource() strips comments and string/character literals
//                 from a "code view" (newlines preserved, so offsets map to
//                 lines) while collecting the *contents* of string literals
//                 separately. Rules that match code patterns run on the code
//                 view and can never fire inside documentation; rules about
//                 telemetry names run on the collected literals. Raw strings
//                 (R"(...)"), digit separators (1'000'000) and escaped
//                 quotes are handled.
//   2. rules    — each rule id below inspects the lexed files (some rules
//                 are whole-tree: CMake registration, doc cross-checks).
//   3. gate     — findings pass through per-line suppressions
//                 (`// rltherm-lint: allow(<rule>) — <justification>`) and,
//                 in the tool, a committed JSON baseline; only *new*
//                 findings fail CI.
//
// See docs/ANALYSIS.md for the rule catalogue and the baseline workflow.
#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

namespace rltherm::lint {

// ---------------------------------------------------------------------------
// findings

struct Finding {
  std::string file;  ///< repo-root-relative path, forward slashes
  std::size_t line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Finding&, const Finding&) = default;
};

/// Stable order: (file, line, rule, message).
void sortFindings(std::vector<Finding>& findings);

/// `path:line: [rule] message`, one per line.
void writeFindingsText(const std::vector<Finding>& findings, std::ostream& out);

/// `{"findings":[{"file":...,"line":...,"rule":...,"message":...},...]}`.
/// Deterministic: callers sort first.
void writeFindingsJson(const std::vector<Finding>& findings, std::ostream& out);

/// Parses the JSON emitted by writeFindingsJson (the baseline file format).
/// On malformed input returns an empty vector and sets *error to a
/// "source:line: message" diagnostic.
std::vector<Finding> readFindingsJson(std::istream& in, std::string* error,
                                      const std::string& source = "baseline");

/// Findings in `current` with no baseline entry of the same (file, rule,
/// message) — line numbers are deliberately ignored so unrelated edits do
/// not invalidate the baseline. Baseline entries are consumed one-for-one,
/// so two new duplicates against one baselined duplicate still gate. If
/// `staleBaseline` is non-null it receives baseline entries that no longer
/// fire (candidates for `--write-baseline`).
std::vector<Finding> diffAgainstBaseline(const std::vector<Finding>& current,
                                         const std::vector<Finding>& baseline,
                                         std::vector<Finding>* staleBaseline);

// ---------------------------------------------------------------------------
// pass 1: lexer

struct StringLiteral {
  std::size_t line = 0;  ///< 1-based line of the opening quote
  std::string text;      ///< literal contents, escapes left as written
};

struct SourceText {
  std::string code;      ///< raw with comments/literals blanked, newlines kept
  std::string comments;  ///< the complement: only comment text survives
  std::vector<StringLiteral> strings;
};

SourceText lexSource(const std::string& raw);

// ---------------------------------------------------------------------------
// suppressions

struct Suppression {
  std::size_t line = 0;               ///< line carrying the comment
  std::vector<std::string> rules;     ///< ids inside allow(...)
  std::string justification;          ///< text after the — / -- separator
};

/// Scans comment text (SourceText::comments — suppressions inside string
/// literals or code do not count) for
/// `rltherm-lint: allow(rule-one[, rule-two]) dash justification` markers.
/// Matches whose rule list contains characters outside [a-z0-9-] are treated
/// as documentation *quoting* the syntax (e.g. a placeholder in angle
/// brackets) and skipped.
std::vector<Suppression> parseSuppressions(const std::string& commentText);

// ---------------------------------------------------------------------------
// analysis

/// Every rule id the analyzer can emit, sorted. The fixture suite asserts
/// each fires at least once (vacuity check).
const std::vector<std::string>& allRuleIds();

/// Runs every rule over `root` (which must contain at least one of src/,
/// tools/, bench/) and returns sorted, suppression-filtered findings.
/// Invalid suppressions surface as `bad-suppression` findings, which cannot
/// themselves be suppressed.
std::vector<Finding> analyzeTree(const std::filesystem::path& root);

}  // namespace rltherm::lint
