#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"
#include "common/strict_file.hpp"

namespace rltherm {
namespace {

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] bool isDigit(char c) { return c >= '0' && c <= '9'; }

/// Full-token JSON number check: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
[[nodiscard]] bool isNumberToken(std::string_view token) {
  std::size_t i = 0;
  const auto digits = [&] {
    const std::size_t from = i;
    while (i < token.size() && isDigit(token[i])) ++i;
    return i > from;
  };
  if (i < token.size() && token[i] == '-') ++i;
  if (i < token.size() && token[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < token.size() && token[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < token.size() && (token[i] == 'e' || token[i] == 'E')) {
    ++i;
    if (i < token.size() && (token[i] == '+' || token[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == token.size();
}

void appendUtf8(std::string& out, std::uint32_t codePoint) {
  const auto byte = [&out](std::uint32_t b) { out.push_back(static_cast<char>(b)); };
  if (codePoint < 0x80) {
    byte(codePoint);
  } else if (codePoint < 0x800) {
    byte(0xC0 | (codePoint >> 6));
    byte(0x80 | (codePoint & 0x3F));
  } else if (codePoint < 0x10000) {
    byte(0xE0 | (codePoint >> 12));
    byte(0x80 | ((codePoint >> 6) & 0x3F));
    byte(0x80 | (codePoint & 0x3F));
  } else {
    byte(0xF0 | (codePoint >> 18));
    byte(0x80 | ((codePoint >> 12) & 0x3F));
    byte(0x80 | ((codePoint >> 6) & 0x3F));
    byte(0x80 | (codePoint & 0x3F));
  }
}

/// Recursive-descent reader; `line_` follows the newlines it skips, so every
/// diagnostic names the line the offending token is on.
class Reader {
 public:
  Reader(std::string_view text, const std::string& source, std::size_t firstLine,
         std::string_view rootLabel)
      : text_(text), source_(source), rootLabel_(rootLabel), line_(firstLine) {}

  [[nodiscard]] JsonValue parseDocument() {
    skipSpace();
    JsonValue root = parseValue(0);
    skipSpace();
    if (pos_ != text_.size()) {
      fail("trailing characters after " + std::string(rootLabel_));
    }
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    failParse(source_, line_, message);
  }

  [[nodiscard]] bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skipSpace() {
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        break;
      }
    }
  }

  [[nodiscard]] JsonValue parseValue(std::size_t depth) {
    JsonValue value;
    value.line = line_;
    if (at('{') || at('[')) {
      if (depth == kMaxJsonDepth) {
        fail("nesting deeper than " + std::to_string(kMaxJsonDepth) + " levels");
      }
      parseContainer(value, depth + 1);
      return value;
    }
    if (at('"')) {
      value.kind = JsonValue::Kind::String;
      value.text = parseString("a string value");
      return value;
    }
    const std::size_t start = pos_;
    while (pos_ < text_.size() && std::string_view(",}] \t\r\n").find(text_[pos_]) ==
                                      std::string_view::npos) {
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token == "true" || token == "false") {
      value.kind = JsonValue::Kind::Bool;
      value.boolean = token == "true";
    } else if (token == "null") {
      value.kind = JsonValue::Kind::Null;
    } else if (!token.empty() && (token[0] == '-' || isDigit(token[0]))) {
      if (!isNumberToken(token)) fail("invalid number '" + std::string(token) + "'");
      value.kind = JsonValue::Kind::Number;
      value.text = token;
    } else if (token.empty()) {
      fail("expected a value");
    } else {
      fail("invalid value '" + std::string(token) + "'");
    }
    return value;
  }

  /// An object or array whose opening bracket is at pos_; `depth` is its own
  /// nesting depth (the root container is 1).
  void parseContainer(JsonValue& container, std::size_t depth) {
    const bool object = text_[pos_++] == '{';
    const char close = object ? '}' : ']';
    container.kind = object ? JsonValue::Kind::Object : JsonValue::Kind::Array;
    skipSpace();
    if (at(close)) {
      ++pos_;
      return;
    }
    for (;;) {
      skipSpace();
      if (object) {
        std::string key = parseString("a key");
        if (container.find(key) != nullptr) fail("duplicate key '" + key + "'");
        skipSpace();
        if (!at(':')) fail("expected ':' after key '" + key + "'");
        ++pos_;
        skipSpace();
        container.keys.push_back(std::move(key));
      }
      container.items.push_back(parseValue(depth));
      skipSpace();
      if (at(',')) {
        ++pos_;
        continue;
      }
      if (at(close)) {
        ++pos_;
        return;
      }
      const std::string name =
          depth == 1 ? std::string(rootLabel_) : object ? "an object" : "an array";
      fail(std::string("expected ',' or '") + close + "' in " + name);
    }
  }

  [[nodiscard]] std::string parseString(const char* what) {
    if (!at('"')) fail(std::string("expected '\"' to open ") + what);
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in a string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"':
        case '\\':
        case '/': out.push_back(escape); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendUtf8(out, parseUnicodeEscape()); break;
        default: fail(std::string("unsupported escape '\\") + escape + "'");
      }
    }
    fail("unterminated string");
  }

  /// The code point of a \u escape whose 'u' was just consumed; a UTF-16
  /// surrogate pair spans two escapes and decodes to one code point.
  [[nodiscard]] std::uint32_t parseUnicodeEscape() {
    const std::uint32_t unit = hexQuad();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("lone surrogate in a \\u escape");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (text_.substr(pos_, 2) != "\\u") fail("lone surrogate in a \\u escape");
    pos_ += 2;
    const std::uint32_t low = hexQuad();
    if (low < 0xDC00 || low > 0xDFFF) fail("lone surrogate in a \\u escape");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  [[nodiscard]] std::uint32_t hexQuad() {
    std::uint32_t unit = 0;
    const char* first = text_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
    const auto [end, error] = std::from_chars(first, last, unit, 16);
    if (error != std::errc() || end != first + 4) {
      fail("invalid \\u escape (expected 4 hex digits)");
    }
    pos_ += 4;
    return unit;
  }

  std::string_view text_;
  const std::string& source_;
  std::string_view rootLabel_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

void JsonWriter::beforeValue() {
  expects(!rootWritten_ || !stack_.empty(),
          "JsonWriter: only one root value is allowed");
  if (!stack_.empty() && stack_.back() == '{') {
    expects(keyPending_, "JsonWriter: object members need a key() first");
  }
  if (needComma_ && !keyPending_) out_ << ',';
  keyPending_ = false;
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ << '{';
  stack_.push_back('{');
  needComma_ = false;
  rootWritten_ = true;
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ << '[';
  stack_.push_back('[');
  needComma_ = false;
  rootWritten_ = true;
  return *this;
}

void JsonWriter::beforeContainerEnd(char expectedOpen) {
  expects(!stack_.empty() && stack_.back() == expectedOpen,
          "JsonWriter: unbalanced container close");
  expects(!keyPending_, "JsonWriter: key() without a value");
  stack_.pop_back();
  needComma_ = true;
}

JsonWriter& JsonWriter::endObject() {
  beforeContainerEnd('{');
  out_ << '}';
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  beforeContainerEnd('[');
  out_ << ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  expects(!stack_.empty() && stack_.back() == '{',
          "JsonWriter: key() outside an object");
  expects(!keyPending_, "JsonWriter: two keys in a row");
  if (needComma_) out_ << ',';
  out_ << '"' << escape(name) << "\":";
  keyPending_ = true;
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ << (v ? "true" : "false");
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  out_ << v;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  out_ << v;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    out_ << "null";
  } else {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.12g", v);
    out_ << buffer;
  }
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  out_ << '"' << escape(v) << '"';
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(const char* v) { return value(std::string_view(v)); }

JsonWriter& JsonWriter::valueNull() {
  beforeValue();
  out_ << "null";
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::valueAuto(std::string_view text) {
  if (!text.empty()) {
    const std::string owned(text);
    char* end = nullptr;
    const double parsed = std::strtod(owned.c_str(), &end);
    if (end == owned.c_str() + owned.size() && std::isfinite(parsed)) {
      return value(parsed);
    }
  }
  return value(text);
}

bool JsonWriter::complete() const noexcept {
  return rootWritten_ && stack_.empty() && !keyPending_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const auto it = std::find(keys.begin(), keys.end(), key);
  return it == keys.end() ? nullptr : &items[static_cast<std::size_t>(it - keys.begin())];
}

JsonValue parseJson(std::string_view text, const std::string& source,
                    std::size_t firstLine, std::string_view rootLabel) {
  return Reader(text, source, firstLine, rootLabel).parseDocument();
}

}  // namespace rltherm
