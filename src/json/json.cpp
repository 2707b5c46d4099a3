#include "json/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dfx::json {

std::int64_t Value::as_int() const {
  if (is_int()) return std::get<std::int64_t>(data_);
  if (is_double()) return static_cast<std::int64_t>(std::get<double>(data_));
  throw std::runtime_error("json: not a number");
}

double Value::as_double() const {
  if (is_double()) return std::get<double>(data_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(data_));
  throw std::runtime_error("json: not a number");
}

// Hot by name collision with ZoneStore::find; JSON never runs on the
// serve path (config load and result emission only).
// dfx-lint: allow(hot-path-cost): offline JSON layer, not the serve path.
const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(std::string(key));
  return it == obj.end() ? nullptr : &it->second;
}

std::int64_t Value::get_int(std::string_view key, std::int64_t dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : dflt;
}

double Value::get_double(std::string_view key, double dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_number()) ? v->as_double() : dflt;
}

std::string Value::get_string(std::string_view key, std::string dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : std::move(dflt);
}

bool Value::get_bool(std::string_view key, bool dflt) const {
  const Value* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : dflt;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  [[nodiscard]] std::variant<Value, ParseError> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return error_;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return v;
  }

 private:
  ParseError fail(std::string msg) {
    error_ = ParseError{pos_, std::move(msg)};
    ok_ = false;
    return error_;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool at_end() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail("invalid literal");
      return false;
    }
    pos_ += lit.size();
    return true;
  }

  [[nodiscard]] bool parse_value(Value& out) {
    if (at_end()) {
      fail("unexpected end of input");
      return false;
    }
    switch (peek()) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't':
        if (!expect_literal("true")) return false;
        out = Value(true);
        return true;
      case 'f':
        if (!expect_literal("false")) return false;
        out = Value(false);
        return true;
      case 'n':
        if (!expect_literal("null")) return false;
        out = Value(nullptr);
        return true;
      default:
        return parse_number(out);
    }
  }

  [[nodiscard]] bool parse_object(Value& out) {
    ++pos_;  // '{'
    Object obj;
    skip_ws();
    if (consume('}')) {
      out = Value(std::move(obj));
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) {
        fail("expected ':'");
        return false;
      }
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      obj.emplace(std::move(key), std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) break;
      fail("expected ',' or '}'");
      return false;
    }
    out = Value(std::move(obj));
    return true;
  }

  [[nodiscard]] bool parse_array(Value& out) {
    ++pos_;  // '['
    Array arr;
    skip_ws();
    if (consume(']')) {
      out = Value(std::move(arr));
      return true;
    }
    while (true) {
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      arr.push_back(std::move(v));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) break;
      fail("expected ',' or ']'");
      return false;
    }
    out = Value(std::move(arr));
    return true;
  }

  [[nodiscard]] bool parse_string(std::string& out) {
    if (at_end() || peek() != '"') {
      fail("expected string");
      return false;
    }
    ++pos_;
    out.clear();
    while (true) {
      if (at_end()) {
        fail("unterminated string");
        return false;
      }
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) {
        fail("unterminated escape");
        return false;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("bad \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad \\u escape");
              return false;
            }
          }
          // Encode BMP code point as UTF-8 (surrogate pairs unsupported;
          // snapshot text is ASCII in practice).
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
  }

  [[nodiscard]] bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    bool is_float = false;
    while (!at_end()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_float = is_float || c == '.' || c == 'e' || c == 'E';
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected value");
      return false;
    }
    const std::string token(text_.substr(start, pos_ - start));
    errno = 0;
    if (is_float) {
      char* end = nullptr;
      const double d = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        fail("bad number");
        return false;
      }
      out = Value(d);
    } else {
      char* end = nullptr;
      const long long i = std::strtoll(token.c_str(), &end, 10);
      if (end != token.c_str() + token.size() || errno == ERANGE) {
        fail("bad number");
        return false;
      }
      out = Value(static_cast<std::int64_t>(i));
    }
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  ParseError error_;
};

void escape_to(const std::string& s, std::string& out) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void serialize_to(const Value& v, std::string& out, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_int()) {
    out += std::to_string(v.as_int());
  } else if (v.is_double()) {
    const double d = v.as_double();
    if (std::isfinite(d)) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
    } else {
      out += "null";  // JSON has no Inf/NaN
    }
  } else if (v.is_string()) {
    escape_to(v.as_string(), out);
  } else if (v.is_array()) {
    const auto& arr = v.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    for (std::size_t i = 0; i < arr.size(); ++i) {
      if (i > 0) out.push_back(',');
      newline(depth + 1);
      serialize_to(arr[i], out, indent, depth + 1);
    }
    newline(depth);
    out.push_back(']');
  } else {
    const auto& obj = v.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    bool first = true;
    for (const auto& [k, val] : obj) {
      if (!first) out.push_back(',');
      first = false;
      newline(depth + 1);
      escape_to(k, out);
      out.push_back(':');
      if (indent >= 0) out.push_back(' ');
      serialize_to(val, out, indent, depth + 1);
    }
    newline(depth);
    out.push_back('}');
  }
}

}  // namespace

[[nodiscard]] std::variant<Value, ParseError> parse(std::string_view text) {
  return Parser(text).run();
}

Value parse_or_throw(std::string_view text) {
  auto result = parse(text);
  if (auto* err = std::get_if<ParseError>(&result)) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(err->offset) + ": " +
                             err->message);
  }
  return std::get<Value>(std::move(result));
}

std::string serialize(const Value& v) {
  std::string out;
  serialize_to(v, out, -1, 0);
  return out;
}

std::string serialize_pretty(const Value& v) {
  std::string out;
  serialize_to(v, out, 2, 0);
  return out;
}

}  // namespace dfx::json
