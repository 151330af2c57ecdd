// The JSON codec (common/json.hpp): whatever the writer emits, the reader
// reads back equal; the reader's rejections carry the strict-file
// "source:line: message" diagnostics, with the line counted through
// multi-line input.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rltherm {
namespace {

using Kind = JsonValue::Kind;

/// The diagnostic parseJson raises for `text`, or "" when it parses.
std::string parseError(const std::string& text, std::size_t firstLine = 1) {
  try {
    (void)parseJson(text, "doc.json", firstLine);
  } catch (const PreconditionError& error) {
    return error.what();
  }
  return {};
}

TEST(JsonCodecTest, EveryEscapedCharacterRoundTrips) {
  std::vector<std::string> strings;
  for (int c = 0; c < 0x20; ++c) strings.emplace_back(1, static_cast<char>(c));
  strings.emplace_back("\"");
  strings.emplace_back("\\");
  strings.emplace_back("/");
  strings.emplace_back("h\xC3\xA9llo \xE2\x9C\x93 \xF0\x9D\x84\x9E");  // raw UTF-8
  strings.emplace_back("mixed \"quote\"\n\ttab\\ \x01 end");

  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  for (std::size_t i = 0; i < strings.size(); ++i) {
    json.key(strings[i]).value(strings[i]);
  }
  json.endObject();
  ASSERT_TRUE(json.complete());

  const JsonValue back = parseJson(out.str(), "written");
  ASSERT_EQ(back.kind, Kind::Object);
  ASSERT_EQ(back.keys.size(), strings.size());
  for (std::size_t i = 0; i < strings.size(); ++i) {
    EXPECT_EQ(back.keys[i], strings[i]) << "member " << i;
    ASSERT_EQ(back.items[i].kind, Kind::String);
    EXPECT_EQ(back.items[i].text, strings[i]) << "member " << i;
  }
}

TEST(JsonCodecTest, SixtyFourBitIntegersKeepTheirExactToken) {
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  std::ostringstream out;
  JsonWriter(out).beginArray().value(lo).value(hi).value(top).value(0.1).endArray();

  const JsonValue back = parseJson(out.str(), "written");
  ASSERT_EQ(back.items.size(), 4u);
  for (const JsonValue& item : back.items) EXPECT_EQ(item.kind, Kind::Number);
  EXPECT_EQ(back.items[0].text, "-9223372036854775808");
  EXPECT_EQ(back.items[1].text, "9223372036854775807");
  EXPECT_EQ(back.items[2].text, "18446744073709551615");
  EXPECT_EQ(back.items[3].text, "0.1");
}

TEST(JsonCodecTest, NestedContainersRoundTripInOrder) {
  std::ostringstream out;
  JsonWriter json(out);
  json.beginObject();
  json.key("z").beginArray().value(true).beginArray().endArray().beginObject().endObject();
  json.endArray();
  json.key("a").beginObject().key("inner").beginArray().value(false).valueNull();
  json.endArray().endObject();
  json.endObject();
  ASSERT_TRUE(json.complete());

  const JsonValue back = parseJson(out.str(), "written");
  ASSERT_EQ(back.keys, (std::vector<std::string>{"z", "a"}));  // input order kept
  const JsonValue& z = back.items[0];
  ASSERT_EQ(z.kind, Kind::Array);
  ASSERT_EQ(z.items.size(), 3u);
  EXPECT_TRUE(z.items[0].kind == Kind::Bool && z.items[0].boolean);
  EXPECT_TRUE(z.items[1].kind == Kind::Array && z.items[1].items.empty());
  EXPECT_TRUE(z.items[2].kind == Kind::Object && z.items[2].keys.empty());
  const JsonValue* inner = back.find("a")->find("inner");
  ASSERT_NE(inner, nullptr);
  ASSERT_EQ(inner->items.size(), 2u);
  EXPECT_TRUE(inner->items[0].kind == Kind::Bool && !inner->items[0].boolean);
  EXPECT_EQ(inner->items[1].kind, Kind::Null);
  EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(JsonCodecTest, NonFiniteDoublesAreWrittenAsNull) {
  std::ostringstream out;
  JsonWriter(out)
      .beginArray()
      .value(std::numeric_limits<double>::quiet_NaN())
      .value(std::numeric_limits<double>::infinity())
      .value(-std::numeric_limits<double>::infinity())
      .endArray();
  EXPECT_EQ(out.str(), "[null,null,null]");
  for (const JsonValue& item : parseJson(out.str(), "written").items) {
    EXPECT_EQ(item.kind, Kind::Null);
  }
}

TEST(JsonCodecTest, UnicodeEscapesDecodeToUtf8) {
  const JsonValue value =
      parseJson(R"(["\u00e9\u2713", "\uD834\uDD1E", "\u0000"])", "doc.json");
  EXPECT_EQ(value.items[0].text, "\xC3\xA9\xE2\x9C\x93");
  EXPECT_EQ(value.items[1].text, "\xF0\x9D\x84\x9E");  // one surrogate pair
  EXPECT_EQ(value.items[2].text, std::string(1, '\0'));
}

TEST(JsonCodecTest, ValuesRecordTheLineTheyStartOn) {
  const JsonValue value = parseJson("\n{\"a\": 1,\n \"b\":\n  [2]}", "doc.json", 10);
  EXPECT_EQ(value.line, 11u);
  EXPECT_EQ(value.find("a")->line, 11u);
  EXPECT_EQ(value.find("b")->line, 13u);
}

TEST(JsonCodecTest, MalformedInputGetsSourceLineDiagnostics) {
  EXPECT_EQ(parseError(R"("\uD800")"), "doc.json:1: lone surrogate in a \\u escape");
  EXPECT_EQ(parseError(R"("\uDC00")"), "doc.json:1: lone surrogate in a \\u escape");
  EXPECT_EQ(parseError(R"("\uD800A")"), "doc.json:1: lone surrogate in a \\u escape");
  EXPECT_EQ(parseError(R"("\uzzzz")"),
            "doc.json:1: invalid \\u escape (expected 4 hex digits)");
  EXPECT_EQ(parseError(R"("\u12")"),
            "doc.json:1: invalid \\u escape (expected 4 hex digits)");
  EXPECT_EQ(parseError(R"("\q")"), "doc.json:1: unsupported escape '\\q'");
  EXPECT_EQ(parseError("\"a\tb\""), "doc.json:1: unescaped control character in a string");
  EXPECT_EQ(parseError(R"("open)"), "doc.json:1: unterminated string");
  EXPECT_EQ(parseError("{\"a\":1 \"b\":2}"),
            "doc.json:1: expected ',' or '}' in the document");
  EXPECT_EQ(parseError("[[1 2]]"), "doc.json:1: expected ',' or ']' in an array");
  EXPECT_EQ(parseError("{\"a\" 1}"), "doc.json:1: expected ':' after key 'a'");
  EXPECT_EQ(parseError("{\"a\":1,}"), "doc.json:1: expected '\"' to open a key");
  EXPECT_EQ(parseError("[1,]"), "doc.json:1: expected a value");
  EXPECT_EQ(parseError(""), "doc.json:1: expected a value");
  EXPECT_EQ(parseError("[nul]"), "doc.json:1: invalid value 'nul'");
  EXPECT_EQ(parseError("[.5]"), "doc.json:1: invalid value '.5'");
  for (const char* bad : {"01", "-", "1.", "1e", "1e+", "0x10", "1.2.3", "--1"}) {
    EXPECT_EQ(parseError(std::string("[") + bad + "]"),
              std::string("doc.json:1: invalid number '") + bad + "'");
  }
  EXPECT_EQ(parseError("{} {}"), "doc.json:1: trailing characters after the document");
}

TEST(JsonCodecTest, DiagnosticsCountLinesThroughMultiLineInput) {
  const std::string duplicateAtDepthTwo =
      "{\n"
      "  \"outer\": {\n"
      "    \"k\": 1,\n"
      "    \"k\": 2\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(parseError(duplicateAtDepthTwo), "doc.json:4: duplicate key 'k'");
  EXPECT_EQ(parseError(duplicateAtDepthTwo, 20), "doc.json:23: duplicate key 'k'");
  EXPECT_EQ(parseError("[\n1\n]\nx"), "doc.json:4: trailing characters after the document");
}

TEST(JsonCodecTest, NestingIsCappedAtTheDepthLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(parseError(nested(kMaxJsonDepth)), "");
  EXPECT_EQ(parseError(nested(kMaxJsonDepth + 1)),
            "doc.json:1: nesting deeper than 64 levels");
  EXPECT_EQ(parseError("\n\n" + nested(kMaxJsonDepth + 1)),
            "doc.json:3: nesting deeper than 64 levels");
}

TEST(JsonCodecTest, RootLabelNamesTheRootInDiagnostics) {
  try {
    (void)parseJson("{\"cmd\":1} x", "serve", 7, "the command object");
    ADD_FAILURE() << "expected a PreconditionError";
  } catch (const PreconditionError& error) {
    EXPECT_STREQ(error.what(), "serve:7: trailing characters after the command object");
  }
}

}  // namespace
}  // namespace rltherm
