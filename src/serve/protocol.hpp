// Line protocol front end for the fleet service.
//
// One command per line, each a FLAT JSON object; one JSON response line per
// command. Lines are read by the project's strict JSON reader
// (common/json.hpp), then held to a flat subset, in the spirit of the
// fault-plan TOML subset (common/strict_file.hpp): explicit about what it
// takes, diagnostic about everything else.
//
//   command   = "{" [ member ( "," member )* ] "}"
//   member    = string ":" value
//   value     = string | number | "true" | "false"
//   string    = '"' chars '"'   ; escapes: \" \\ \/ \b \f \n \r \t \uXXXX
//
// No nesting, no arrays, no null, and a hard cap of kMaxCommandBytes per
// line. \uXXXX escapes (surrogate pairs included) decode to UTF-8. Every
// command object carries a "cmd" member naming the verb: admit, evict, query,
// shutdown, stats, step. Unknown verbs, unknown keys, missing required keys,
// type mismatches and trailing input all fail with a "source:line: message"
// diagnostic (failParse), and the exact strings are golden-tested in
// tests/serve/protocol_test.cpp.
//
// Responses are single JSON objects: {"ok":true,...} on success and
// {"ok":false,"error":"..."} otherwise — both protocol errors and domain
// rejections (back-pressure, unknown tenant) use the same error shape, so a
// client needs exactly one failure path. 64-bit fingerprints and trace
// hashes travel as 16-digit hex STRINGS (JSON numbers are exact only to
// 2^53).
#pragma once

#include <cstddef>
#include <string>

#include "serve/fleet.hpp"

namespace rltherm::serve {

/// Hard per-line cap; an oversized command is rejected before parsing.
inline constexpr std::size_t kMaxCommandBytes = 4096;

/// One protocol conversation against a fleet service. Not thread-safe; the
/// CLI drives it from a single reader loop (stdin or one socket connection).
class ServeSession {
 public:
  /// `source` names the transport in diagnostics ("stdin", socket path, ...).
  explicit ServeSession(FleetService& service, std::string source = "serve");

  /// Handles one newline-delimited command (the newline itself excluded) and
  /// returns the response line, without a trailing newline. Blank or
  /// whitespace-only input returns an empty string (no response). Never
  /// throws: every failure becomes an {"ok":false,...} response.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// True once a shutdown command was processed; the transport loop exits.
  [[nodiscard]] bool shutdownRequested() const noexcept { return shutdown_; }

  /// 1-based number of the last line handled (blank lines count).
  [[nodiscard]] std::size_t lineNumber() const noexcept { return line_; }

 private:
  FleetService& service_;
  std::string source_;
  std::size_t line_ = 0;
  bool shutdown_ = false;
};

}  // namespace rltherm::serve
