// The project's one JSON codec: a streaming writer and a strict reader.
//
// Hand-rolled on purpose: the project takes no third-party dependencies.
//
// Writer: keeps a small nesting stack so commas and colons are placed
// automatically; misuse (a value where a key is required, unbalanced
// begin/end) trips a contract. Doubles are written with "%.12g" (enough for
// every metric the simulator produces), and non-finite doubles become
// `null` — JSON has no NaN/Inf, and a reader choking on a bare `nan` token is
// worse than an explicit null.
//
// Reader: parseJson() accepts RFC 8259 JSON and nothing else. Every failure
// goes through failParse (common/strict_file.hpp), so it reads
// "source:line: message" like every other strict reader in the project:
// duplicate keys, missing separators, unknown escapes, bad or lone-surrogate
// \u escapes, raw control characters in strings, invalid number tokens,
// nesting deeper than kMaxJsonDepth and trailing input are all rejected.
// Numbers keep their raw token (64-bit seeds stay exact); objects keep their
// members in input order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rltherm {

class JsonWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonWriter(std::ostream& out);

  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();

  /// Object member key; must be followed by exactly one value/container.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(bool v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(double v);
  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v);
  JsonWriter& valueNull();

  /// Writes `text` as a JSON number when it lexes as one in full (the bench
  /// tables format numeric cells as strings), otherwise as a JSON string.
  JsonWriter& valueAuto(std::string_view text);

  /// True once every opened object/array has been closed again.
  [[nodiscard]] bool complete() const noexcept;

 private:
  void beforeValue();
  void beforeContainerEnd(char expectedOpen);

  std::ostream& out_;
  std::string stack_;        ///< nesting: '{' or '[' per open container
  bool keyPending_ = false;  ///< key() emitted, value must follow
  bool needComma_ = false;   ///< a sibling value precedes the next one
  bool rootWritten_ = false;
};

/// Deepest container nesting parseJson accepts (the root container is 1).
inline constexpr std::size_t kMaxJsonDepth = 64;

/// One parsed JSON value.
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  std::string text;               ///< String: decoded UTF-8; Number: raw token
  std::vector<std::string> keys;  ///< Object: member names, in input order
  std::vector<JsonValue> items;   ///< Array: elements; Object: value of keys[i]
  std::size_t line = 0;           ///< input line the value starts on

  /// The object member named `key`, or nullptr (also for non-objects).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

/// Parses `text` as exactly one JSON value. `source` and `firstLine` (the
/// line `text` starts on) prefix every diagnostic; `rootLabel` names the
/// root value in them ("trailing characters after <rootLabel>").
[[nodiscard]] JsonValue parseJson(std::string_view text, const std::string& source,
                                  std::size_t firstLine = 1,
                                  std::string_view rootLabel = "the document");

}  // namespace rltherm
