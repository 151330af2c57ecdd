// Golden/fixture tests for the rltherm_lint analyzer library. Three fixture
// mini-repos live under tests/lint/fixtures/ (path injected as
// RLTHERM_LINT_FIXTURES):
//
//   clean/       every false-positive trap the old single-pass tool fired
//                on (banned tokens in comments/strings/raw strings, digit
//                separators, quoted suppression syntax) — must be empty.
//   violations/  makes every rule id fire at least once — compared against
//                the committed golden JSON, and vacuity-checked.
//   suppressed/  a real violation silenced by a justified suppression.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint.hpp"

namespace lint = rltherm::lint;
namespace fs = std::filesystem;

namespace {

fs::path fixtures() { return fs::path(RLTHERM_LINT_FIXTURES); }

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// --- lexer ------------------------------------------------------------------

TEST(LexerTest, BlanksCommentsButKeepsLinesAndCode) {
  const lint::SourceText t = lint::lexSource("int a; // trailing 273.15\nint b;\n");
  EXPECT_NE(t.code.find("int a;"), std::string::npos);
  EXPECT_NE(t.code.find("int b;"), std::string::npos);
  EXPECT_EQ(t.code.find("273.15"), std::string::npos);
  EXPECT_EQ(std::count(t.code.begin(), t.code.end(), '\n'), 2);
}

TEST(LexerTest, BlockCommentContentsMoveToCommentsView) {
  const lint::SourceText t = lint::lexSource("int a; /* std::rand() */ int b;\n");
  EXPECT_EQ(t.code.find("rand"), std::string::npos);
  EXPECT_NE(t.comments.find("std::rand()"), std::string::npos);
  EXPECT_NE(t.code.find("int b;"), std::string::npos);
}

TEST(LexerTest, StringContentsAreCollectedNotScanned) {
  const lint::SourceText t =
      lint::lexSource("const char* s = \"std::rand() // not a comment\";\n");
  EXPECT_EQ(t.code.find("rand"), std::string::npos);
  EXPECT_EQ(t.comments.find("not a comment"), std::string::npos);
  ASSERT_EQ(t.strings.size(), 1u);
  EXPECT_EQ(t.strings[0].text, "std::rand() // not a comment");
  EXPECT_EQ(t.strings[0].line, 1u);
}

TEST(LexerTest, RawStringsWithDelimiterAndPrefix) {
  const lint::SourceText t =
      lint::lexSource("auto s = u8R\"x(one \"two\" )x\";\nint after = 1;\n");
  ASSERT_EQ(t.strings.size(), 1u);
  EXPECT_EQ(t.strings[0].text, "one \"two\" ");
  EXPECT_NE(t.code.find("int after"), std::string::npos);
  // The encoding prefix must not leak into the code view as an identifier.
  EXPECT_EQ(t.code.find("u8R"), std::string::npos);
}

TEST(LexerTest, DigitSeparatorIsNotACharLiteral) {
  const lint::SourceText t = lint::lexSource("long n = 1'000'000; int tail = 2;\n");
  EXPECT_NE(t.code.find("int tail = 2;"), std::string::npos);
  EXPECT_TRUE(t.strings.empty());
}

TEST(LexerTest, EscapedQuoteDoesNotEndTheString) {
  const lint::SourceText t = lint::lexSource(R"(auto s = "a\"b"; int c;)");
  ASSERT_EQ(t.strings.size(), 1u);
  EXPECT_EQ(t.strings[0].text, "a\\\"b");
  EXPECT_NE(t.code.find("int c;"), std::string::npos);
}

TEST(LexerTest, LineSpliceContinuesLineComment) {
  const lint::SourceText t = lint::lexSource("// first \\\nstd::rand();\nint x;\n");
  EXPECT_EQ(t.code.find("rand"), std::string::npos);
  EXPECT_NE(t.code.find("int x;"), std::string::npos);
}

// --- suppressions -----------------------------------------------------------

TEST(SuppressionTest, ParsesRulesAndJustification) {
  const auto s = lint::parseSuppressions(
      "\n rltherm-lint: allow(global-rng, wall-clock) -- seeds the corpus\n");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].line, 2u);
  ASSERT_EQ(s[0].rules.size(), 2u);
  EXPECT_EQ(s[0].rules[0], "global-rng");
  EXPECT_EQ(s[0].rules[1], "wall-clock");
  EXPECT_EQ(s[0].justification, "seeds the corpus");
}

TEST(SuppressionTest, EmptyJustificationIsKeptForGatingToReject) {
  const auto s = lint::parseSuppressions("rltherm-lint: allow(global-rng)\n");
  ASSERT_EQ(s.size(), 1u);
  EXPECT_TRUE(s[0].justification.empty());
}

TEST(SuppressionTest, PlaceholderIdsAreDocQuotesNotSuppressions) {
  const auto s = lint::parseSuppressions(
      "docs say: rltherm-lint: allow(<rule>) -- like this\n");
  EXPECT_TRUE(s.empty());
}

// --- findings JSON + baseline diff ------------------------------------------

TEST(FindingsJsonTest, RoundTripsThroughJson) {
  const std::vector<lint::Finding> in = {
      {"src/a.cpp", 3, "global-rng", "message with \"quotes\" and \\ backslash"},
      {"src/b.hpp", 9, "wall-clock", "plain"},
  };
  std::ostringstream out;
  lint::writeFindingsJson(in, out);
  std::istringstream read(out.str());
  std::string error;
  const std::vector<lint::Finding> back = lint::readFindingsJson(read, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(back, in);
}

TEST(FindingsJsonTest, MalformedInputSetsError) {
  std::istringstream read("{\"findings\": [{\"file\": 42}]}");
  std::string error;
  const auto fs = lint::readFindingsJson(read, &error);
  EXPECT_TRUE(fs.empty());
  EXPECT_FALSE(error.empty());
}

/// The diagnostic readFindingsJson gives for baseline `text`, read as "b.json".
std::string baselineError(const std::string& text) {
  std::istringstream read(text);
  std::string error;
  EXPECT_TRUE(lint::readFindingsJson(read, &error, "b.json").empty());
  return error;
}

TEST(FindingsJsonTest, MalformedBaselinesGetPathLineDiagnostics) {
  const auto baseline = [](const std::string& finding) {
    return "{\"findings\":[\n" + finding + "\n]}\n";
  };
  EXPECT_EQ(baselineError(baseline(R"({"file":"\uzzzz","line":1,"rule":"r","message":"m"})")),
            "b.json:2: invalid \\u escape (expected 4 hex digits)");
  EXPECT_EQ(baselineError(baseline(R"({"file":"a" "line":1 "rule":"r" "message":"m"})")),
            "b.json:2: expected ',' or '}' in an object");
  EXPECT_EQ(baselineError(R"({"findings":[] "extra":7})"),
            "b.json:1: expected ',' or '}' in the baseline");
  EXPECT_EQ(
      baselineError(baseline(R"({"file":"a","line":1,"rule":"r","message":"m","bogus":"x"})")),
      "b.json:2: unknown key 'bogus' in a finding (valid: file, line, message, rule)");
  EXPECT_EQ(baselineError("{\"findings\":[],\n\"extra\":7}"),
            "b.json:2: unknown key 'extra' in the baseline (valid: findings)");
  EXPECT_EQ(baselineError(baseline(R"({"file":"a","line":-3,"rule":"r","message":"m"})")),
            "b.json:2: key 'line' must be a non-negative integer");
  EXPECT_EQ(baselineError(baseline(R"({"file":"a","line":2.5,"rule":"r","message":"m"})")),
            "b.json:2: key 'line' must be a non-negative integer");
  EXPECT_EQ(baselineError(baseline(R"({"file":"a","line":"7","rule":"r","message":"m"})")),
            "b.json:2: key 'line' must be a non-negative integer");
  EXPECT_EQ(baselineError(baseline(R"({"file":"a","line":1,"message":"m"})")),
            "b.json:2: finding is missing key 'rule'");
  EXPECT_EQ(baselineError(baseline("[]")), "b.json:2: each finding must be an object");
  EXPECT_EQ(baselineError("{}"), "b.json:1: the baseline needs a \"findings\" array");
  EXPECT_EQ(baselineError("[]"), "b.json:1: the baseline must be an object");
}

TEST(BaselineDiffTest, MatchesByFileRuleMessageIgnoringLine) {
  const std::vector<lint::Finding> current = {
      {"src/a.cpp", 30, "global-rng", "m"},  // baselined at a different line
      {"src/a.cpp", 40, "wall-clock", "new"},
  };
  const std::vector<lint::Finding> baseline = {
      {"src/a.cpp", 3, "global-rng", "m"},
      {"src/gone.cpp", 1, "thread-local", "stale"},
  };
  std::vector<lint::Finding> stale;
  const auto fresh = lint::diffAgainstBaseline(current, baseline, &stale);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].rule, "wall-clock");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].file, "src/gone.cpp");
}

TEST(BaselineDiffTest, DuplicateBudgetIsConsumedOneForOne) {
  const lint::Finding f{"src/a.cpp", 1, "global-rng", "m"};
  const std::vector<lint::Finding> current = {f, {"src/a.cpp", 2, "global-rng", "m"}};
  const std::vector<lint::Finding> baseline = {f};
  const auto fresh = lint::diffAgainstBaseline(current, baseline, nullptr);
  // Two occurrences against one baseline entry: exactly one still gates.
  EXPECT_EQ(fresh.size(), 1u);
}

// --- fixtures ---------------------------------------------------------------

TEST(FixtureTest, CleanTreeHasNoFindings) {
  const auto findings = lint::analyzeTree(fixtures() / "clean");
  EXPECT_TRUE(findings.empty()) << [&] {
    std::ostringstream os;
    lint::writeFindingsText(findings, os);
    return os.str();
  }();
}

TEST(FixtureTest, JustifiedSuppressionSilencesTheFinding) {
  const auto findings = lint::analyzeTree(fixtures() / "suppressed");
  EXPECT_TRUE(findings.empty()) << [&] {
    std::ostringstream os;
    lint::writeFindingsText(findings, os);
    return os.str();
  }();
}

TEST(FixtureTest, ViolationsMatchGoldenJson) {
  const auto findings = lint::analyzeTree(fixtures() / "violations");
  std::ostringstream actual;
  lint::writeFindingsJson(findings, actual);
  EXPECT_EQ(actual.str(), slurp(fixtures() / "violations_expected.json"))
      << "fixture findings drifted; regenerate with\n  rltherm_lint --json "
         "tests/lint/fixtures/violations > "
         "tests/lint/fixtures/violations_expected.json";
}

TEST(FixtureTest, EveryRuleFiresOnTheFixtures_Vacuity) {
  const auto findings = lint::analyzeTree(fixtures() / "violations");
  std::set<std::string> fired;
  for (const lint::Finding& f : findings) fired.insert(f.rule);
  for (const std::string& rule : lint::allRuleIds()) {
    EXPECT_TRUE(fired.count(rule) != 0)
        << "rule '" << rule
        << "' never fires on tests/lint/fixtures/violations — a dead rule "
           "would silently stop protecting the tree";
  }
}

TEST(FixtureTest, GoldenBaselineRoundTripGatesToZero) {
  const auto findings = lint::analyzeTree(fixtures() / "violations");
  std::ostringstream json;
  lint::writeFindingsJson(findings, json);
  std::istringstream read(json.str());
  std::string error;
  const auto baseline = lint::readFindingsJson(read, &error);
  ASSERT_TRUE(error.empty()) << error;
  std::vector<lint::Finding> stale;
  const auto fresh = lint::diffAgainstBaseline(findings, baseline, &stale);
  EXPECT_TRUE(fresh.empty());
  EXPECT_TRUE(stale.empty());
}

TEST(FixtureTest, RepoBaselineIsEmptyAndWellFormed) {
  // The committed baseline must stay empty: new findings are fixed or
  // suppressed inline with a justification, never inventoried away.
  std::ifstream in(fs::path(RLTHERM_LINT_REPO_ROOT) / "tools" /
                   "lint_baseline.json");
  ASSERT_TRUE(in.is_open());
  std::string error;
  const auto baseline = lint::readFindingsJson(in, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_TRUE(baseline.empty());
}

}  // namespace
