// Finding ordering, the two output formats, and the committed-baseline
// machinery. Findings are written and read with the project's JSON codec
// (common/json.hpp); the baseline reader walks the parsed tree and rejects
// anything writeFindingsJson would not have written, with a
// "path:line: message" diagnostic.
//
// Baseline matching keys on (file, rule, message) and ignores line numbers:
// editing an unrelated part of a file must not invalidate its baseline
// entries. Matching consumes entries one-for-one, so N+1 occurrences of an
// identical finding against N baselined ones still gate.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/strict_file.hpp"
#include "lint.hpp"

namespace rltherm::lint {

namespace {

/// Fails on the first member of `object` that `valid` does not name.
void allowKeys(const JsonValue& object, std::initializer_list<std::string_view> valid,
               const std::string& where, const std::string& source) {
  for (std::size_t i = 0; i < object.keys.size(); ++i) {
    if (std::find(valid.begin(), valid.end(), object.keys[i]) == valid.end()) {
      failParse(source, object.items[i].line,
                "unknown key '" + object.keys[i] + "' in " + where);
    }
  }
}

/// The finding member `key`, which must be present and of `kind`.
const JsonValue& member(const JsonValue& object, const char* key, JsonValue::Kind kind,
                        const char* type, const std::string& source) {
  const JsonValue* value = object.find(key);
  if (value == nullptr) {
    failParse(source, object.line, std::string("finding is missing key '") + key + "'");
  }
  if (value->kind != kind) {
    failParse(source, value->line, std::string("key '") + key + "' must be " + type);
  }
  return *value;
}

Finding readFinding(const JsonValue& object, const std::string& source) {
  if (object.kind != JsonValue::Kind::Object) {
    failParse(source, object.line, "each finding must be an object");
  }
  allowKeys(object, {"file", "line", "rule", "message"},
            "a finding (valid: file, line, message, rule)", source);
  Finding f;
  f.file = member(object, "file", JsonValue::Kind::String, "a string", source).text;
  f.rule = member(object, "rule", JsonValue::Kind::String, "a string", source).text;
  f.message = member(object, "message", JsonValue::Kind::String, "a string", source).text;
  const JsonValue& line =
      member(object, "line", JsonValue::Kind::Number, "a non-negative integer", source);
  const char* end = line.text.data() + line.text.size();
  const auto [ptr, ec] = std::from_chars(line.text.data(), end, f.line);
  if (ec != std::errc() || ptr != end) {
    failParse(source, line.line, "key 'line' must be a non-negative integer");
  }
  return f;
}

}  // namespace

void sortFindings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

void writeFindingsText(const std::vector<Finding>& findings, std::ostream& out) {
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
}

void writeFindingsJson(const std::vector<Finding>& findings, std::ostream& out) {
  out << "{\"findings\":[";
  bool first = true;
  for (const Finding& f : findings) {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
    JsonWriter json(out);
    json.beginObject();
    json.key("file").value(f.file);
    json.key("line").value(static_cast<std::uint64_t>(f.line));
    json.key("rule").value(f.rule);
    json.key("message").value(f.message);
    json.endObject();
  }
  out << (findings.empty() ? "]}\n" : "\n]}\n");
}

std::vector<Finding> readFindingsJson(std::istream& in, std::string* error,
                                      const std::string& source) {
  std::ostringstream ss;
  ss << in.rdbuf();
  std::vector<Finding> out;
  try {
    const JsonValue root = parseJson(ss.str(), source, 1, "the baseline");
    if (root.kind != JsonValue::Kind::Object) {
      failParse(source, root.line, "the baseline must be an object");
    }
    allowKeys(root, {"findings"}, "the baseline (valid: findings)", source);
    const JsonValue* findings = root.find("findings");
    if (findings == nullptr || findings->kind != JsonValue::Kind::Array) {
      failParse(source, root.line, "the baseline needs a \"findings\" array");
    }
    for (const JsonValue& item : findings->items) out.push_back(readFinding(item, source));
  } catch (const PreconditionError& e) {
    if (error != nullptr) *error = e.what();
    return {};
  }
  if (error != nullptr) error->clear();
  return out;
}

std::vector<Finding> diffAgainstBaseline(const std::vector<Finding>& current,
                                         const std::vector<Finding>& baseline,
                                         std::vector<Finding>* staleBaseline) {
  using Key = std::tuple<std::string, std::string, std::string>;
  std::map<Key, std::size_t> budget;
  for (const Finding& b : baseline) ++budget[{b.file, b.rule, b.message}];

  std::vector<Finding> fresh;
  for (const Finding& f : current) {
    const auto it = budget.find({f.file, f.rule, f.message});
    if (it != budget.end() && it->second > 0) {
      --it->second;
    } else {
      fresh.push_back(f);
    }
  }
  if (staleBaseline != nullptr) {
    staleBaseline->clear();
    for (const Finding& b : baseline) {
      auto it = budget.find({b.file, b.rule, b.message});
      if (it != budget.end() && it->second > 0) {
        --it->second;
        staleBaseline->push_back(b);
      }
    }
  }
  return fresh;
}

}  // namespace rltherm::lint
