// Minimal JSON value parser, the reading half of obs/json.hpp.
//
// Parses one document into a value tree: objects, arrays, strings,
// numbers, bools, null — the full subset the suite's own exporters
// emit. The serve layer reads `dsnet-job-v1` lines with it, and the
// tests use it to check the exporters' output by structure. Throws
// std::runtime_error with a byte offset on malformed input; the job
// layer wraps that with the stream line number. Not a streaming parser:
// job lines are small (a few hundred bytes) and parsed once per job,
// far off the serve hot path.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace dsn::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  /// Throws std::runtime_error when the key is absent.
  const JsonValue& at(const std::string& key) const;
};

/// Parses a complete JSON document. Trailing non-whitespace is an error.
JsonValue parseJson(const std::string& text);

}  // namespace dsn::obs
