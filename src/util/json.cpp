#include "util/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/byte_io.hpp"

namespace mrmtp::util {

Json& JsonObject::operator[](std::string_view key) {
  for (auto& [k, v] : members_) {
    if (k == key) return v;
  }
  members_.emplace_back(std::string(key), Json());
  return members_.back().second;
}

const Json* JsonObject::find(std::string_view key) const {
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::int64_t Json::as_int() const {
  if (is_int()) return std::get<std::int64_t>(value_);
  if (is_double()) return static_cast<std::int64_t>(std::get<double>(value_));
  throw CodecError("Json::as_int on non-number");
}

double Json::as_double() const {
  if (is_double()) return std::get<double>(value_);
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
  throw CodecError("Json::as_double on non-number");
}

Json& Json::operator[](std::string_view key) {
  if (is_null()) value_ = JsonObject{};
  if (!is_object()) throw CodecError("Json::operator[] on non-object");
  return as_object()[key];
}

const Json* Json::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  return as_object().find(key);
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_to(std::string& out, const Json& j, bool pretty, int depth) {
  auto indent = [&](int d) {
    if (pretty) out.append(static_cast<std::size_t>(d) * 2, ' ');
  };
  auto newline = [&] {
    if (pretty) out.push_back('\n');
  };

  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_int()) {
    out += std::to_string(j.as_int());
  } else if (j.is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", j.as_double());
    out += buf;
  } else if (j.is_string()) {
    escape_to(out, j.as_string());
  } else if (j.is_array()) {
    const auto& arr = j.as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out.push_back('[');
    newline();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      indent(depth + 1);
      dump_to(out, arr[i], pretty, depth + 1);
      if (i + 1 < arr.size()) out.push_back(',');
      newline();
    }
    indent(depth);
    out.push_back(']');
  } else {
    const auto& obj = j.as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out.push_back('{');
    newline();
    std::size_t i = 0;
    for (const auto& [k, v] : obj) {
      indent(depth + 1);
      escape_to(out, k);
      out += pretty ? ": " : ":";
      dump_to(out, v, pretty, depth + 1);
      if (++i < obj.size()) out.push_back(',');
      newline();
    }
    indent(depth);
    out.push_back('}');
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    throw CodecError("JSON parse error at offset " + std::to_string(pos_) +
                     ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("bad literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      char c = next();
      if (c == '}') return Json(std::move(obj));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      char c = next();
      if (c == ']') return Json(std::move(arr));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad \\u escape");
            }
            // UTF-8 encode (BMP only; surrogate pairs not needed for config).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    if (is_double) {
      return Json(std::strtod(token.c_str(), nullptr));
    }
    return Json(static_cast<std::int64_t>(std::strtoll(token.c_str(), nullptr, 10)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump(bool pretty) const {
  std::string out;
  dump_to(out, *this, pretty, 0);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace mrmtp::util
