#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace dsn::obs {

void appendJsonEscaped(std::string& out, std::string_view s) {
  // Plain runs are appended whole; only the characters RFC 8259 makes
  // us escape are written one by one.
  std::size_t plain = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[6] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out.append(s.data() + plain, s.size() - plain);
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  appendJsonEscaped(out, s);
  return out;
}

void JsonWriter::beforeValue() {
  if (inScope(Scope::kObject)) {
    DSN_CHECK(keyPending_, "JsonWriter: object member needs a key first");
    keyPending_ = false;
    return;  // key() already placed the comma
  }
  if (needComma_) out_ += ',';
}

JsonWriter& JsonWriter::key(std::string_view name) {
  DSN_CHECK(inScope(Scope::kObject), "JsonWriter: key() outside an object");
  DSN_CHECK(!keyPending_, "JsonWriter: consecutive keys");
  if (needComma_) out_ += ',';
  out_ += '"';
  appendJsonEscaped(out_, name);
  out_ += "\":";
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::open(Scope scope, char bracket) {
  DSN_CHECK(depth_ < kMaxDepth, "JsonWriter: nesting deeper than kMaxDepth");
  beforeValue();
  out_ += bracket;
  stack_[depth_++] = scope;
  needComma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close(char bracket) {
  out_ += bracket;
  --depth_;
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  DSN_CHECK(inScope(Scope::kObject),
            "JsonWriter: endObject without beginObject");
  DSN_CHECK(!keyPending_, "JsonWriter: dangling key at endObject");
  return close('}');
}

JsonWriter& JsonWriter::endArray() {
  DSN_CHECK(inScope(Scope::kArray), "JsonWriter: endArray without beginArray");
  return close(']');
}

JsonWriter& JsonWriter::value(std::string_view s) {
  beforeValue();
  out_ += '"';
  appendJsonEscaped(out_, s);
  out_ += '"';
  needComma_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double d) {
  if (!std::isfinite(d)) return null();
  char buf[40];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", d);
  return scalar(std::string_view(buf, static_cast<std::size_t>(n)));
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return scalar(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return scalar(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

JsonWriter& JsonWriter::scalar(std::string_view token) {
  beforeValue();
  out_ += token;
  needComma_ = true;
  return *this;
}

}  // namespace dsn::obs
