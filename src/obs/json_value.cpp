#include "obs/json_value.hpp"

#include <cctype>
#include <cstdlib>
#include <stdexcept>

namespace dsn::obs {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = parseValue();
    skipWs();
    if (pos_ != s_.size()) fail("trailing input");
    return v;
  }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;

  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error(what + " at offset " + std::to_string(pos_));
  }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(const char* word, std::size_t len) {
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parseValue() {
    skipWs();
    const char c = peek();
    if (c == '{') return parseObject();
    if (c == '[') return parseArray();
    if (c == '"') {
      JsonValue v;
      v.type = JsonValue::Type::kString;
      v.str = parseString();
      return v;
    }
    JsonValue v;
    if (consume("null", 4)) return v;
    if (consume("true", 4)) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false", 5)) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    return parseNumber();
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("bad escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) fail("bad \\u escape");
          const unsigned long code =
              std::strtoul(s_.substr(pos_, 4).c_str(), nullptr, 16);
          pos_ += 4;
          // Job lines only escape control characters; keep it ASCII.
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a number");
    // The scan above accepts any run of number characters; the token
    // is a number only if strtod consumes all of it ("3-9e+" or "-"
    // would otherwise read as 3 and 0).
    const std::string token = s_.substr(start, pos_ - start);
    char* end = nullptr;
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos_ = start;
      fail("bad number");
    }
    return v;
  }

  JsonValue parseArray() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parseValue());
      skipWs();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skipWs();
      std::string key = parseString();
      skipWs();
      expect(':');
      v.object.emplace(std::move(key), parseValue());
      skipWs();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }
};

}  // namespace

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto it = object.find(key);
  if (it == object.end()) throw std::runtime_error("missing key: " + key);
  return it->second;
}

JsonValue parseJson(const std::string& text) { return Parser(text).parse(); }

}  // namespace dsn::obs
