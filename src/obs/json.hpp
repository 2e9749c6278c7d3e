// The JSON writer.
//
// Every JSON record and document the program writes goes through it:
// metrics, timing and run documents, bench records, fuzz reports, trace
// summaries, serve run and error records, job lines, flight-recorder
// events and the Chrome trace export. The writer tracks nesting and comma placement,
// escapes strings per RFC 8259 and emits non-finite doubles as null
// (JSON has no NaN). It appends into a std::string, either its own or a
// caller's, and allocates nothing itself: nesting is a fixed array,
// numbers render through stack buffers and strings are escaped in
// place, so a caller's string with enough capacity never grows.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace dsn::obs {

/// Appends `s` to `out`, escaped for inclusion inside a JSON string
/// literal (quotes not included).
void appendJsonEscaped(std::string& out, std::string_view s);

/// `s` escaped as by appendJsonEscaped.
std::string jsonEscape(std::string_view s);

class JsonWriter {
 public:
  /// Deepest container nesting a document may reach.
  static constexpr std::size_t kMaxDepth = 64;

  /// Writes into the writer's own string; read it back with str().
  JsonWriter() : out_(own_) {}
  /// Appends to `out`, after whatever it already holds.
  explicit JsonWriter(std::string& out) : out_(out) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  // ---- containers ----
  JsonWriter& beginObject() { return open(Scope::kObject, '{'); }
  JsonWriter& endObject();
  JsonWriter& beginArray() { return open(Scope::kArray, '['); }
  JsonWriter& endArray();

  /// Emits the key of the next member (only valid inside an object).
  JsonWriter& key(std::string_view name);

  // ---- scalar values ----
  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(double d);
  JsonWriter& value(bool b) { return scalar(b ? "true" : "false"); }
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& value(unsigned v) {
    return value(static_cast<std::uint64_t>(v));
  }
  JsonWriter& null() { return scalar("null"); }

  /// key + value in one call.
  template <typename T>
  JsonWriter& kv(std::string_view name, const T& v) {
    key(name);
    return value(v);
  }

  /// Everything written so far (the whole document once every
  /// container is closed).
  const std::string& str() const { return out_; }
  /// Open container depth (0 = document complete).
  std::size_t depth() const { return depth_; }

 private:
  enum class Scope : std::uint8_t { kObject, kArray };
  std::string own_;
  std::string& out_;
  std::array<Scope, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  bool needComma_ = false;
  bool keyPending_ = false;

  bool inScope(Scope scope) const {
    return depth_ > 0 && stack_[depth_ - 1] == scope;
  }
  void beforeValue();
  JsonWriter& open(Scope scope, char bracket);
  JsonWriter& close(char bracket);
  /// Writes one already-rendered scalar token.
  JsonWriter& scalar(std::string_view token);
};

}  // namespace dsn::obs
