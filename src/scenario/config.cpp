#include "scenario/config.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace specdag::scenario {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError("JSON error at offset " + std::to_string(pos_) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > Json::kMaxDepth) {
          fail("nesting deeper than " + std::to_string(Json::kMaxDepth) + " levels");
        }
        Json value = c == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      for (const auto& [existing, unused] : members) {
        if (existing == key) fail("duplicate key \"" + key + "\"");
      }
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(members));
      }
      fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array elements;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(elements));
    }
    for (;;) {
      elements.push_back(parse_value());
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(elements));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string result;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return result;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        result += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': result += '"'; break;
        case '\\': result += '\\'; break;
        case '/': result += '/'; break;
        case 'b': result += '\b'; break;
        case 'f': result += '\f'; break;
        case 'n': result += '\n'; break;
        case 'r': result += '\r'; break;
        case 't': result += '\t'; break;
        case 'u': result += parse_unicode_escape(); break;
        default: fail("unknown escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned int code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid hex digit in \\u escape");
    }
    if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate pairs are not supported");
    // UTF-8 encode (BMP only).
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(token, &consumed);
    } catch (const std::exception&) {
      fail("invalid number \"" + token + "\"");
    }
    if (consumed != token.size() || !std::isfinite(value)) {
      fail("invalid number \"" + token + "\"");
    }
    return Json(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // open arrays and objects around pos_
};

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double value) {
  // Integral values print without a fractional part so specs stay readable
  // and uint round trips are exact up to 2^53.
  if (value == std::floor(value) && std::abs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  // Trim to the shortest representation that round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", precision, value);
    if (std::stod(probe) == value) {
      out += probe;
      return;
    }
  }
  out += buf;
}

}  // namespace

Json::Json(double value) : type_(Type::kNumber), number_(value) {
  if (!std::isfinite(value)) throw JsonError("Json: non-finite number");
}

Json Json::parse(const std::string& text) { return Parser(text).parse_document(); }

Json Json::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw JsonError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) throw JsonError("expected a boolean");
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) throw JsonError("expected a number");
  return number_;
}

std::int64_t Json::as_int() const {
  const double v = as_number();
  if (v != std::floor(v)) throw JsonError("expected an integer");
  return static_cast<std::int64_t>(v);
}

std::uint64_t Json::as_uint() const {
  const double v = as_number();
  if (v != std::floor(v) || v < 0.0 || v >= 18446744073709551616.0) {
    throw JsonError("expected a non-negative integer");
  }
  return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) throw JsonError("expected a string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) throw JsonError("expected an array");
  return array_;
}

Json::Array& Json::as_array() {
  if (type_ != Type::kArray) throw JsonError("expected an array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) throw JsonError("expected an object");
  return object_;
}

Json::Object& Json::as_object() {
  if (type_ != Type::kObject) throw JsonError("expected an object");
  return object_;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(const std::string& key, Json value) {
  for (auto& [k, v] : as_object()) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

void Json::set_path(const std::string& dotted_path, Json value) {
  const std::size_t dot = dotted_path.find('.');
  if (dot == std::string::npos) {
    set(dotted_path, std::move(value));
    return;
  }
  const std::string head = dotted_path.substr(0, dot);
  const std::string tail = dotted_path.substr(dot + 1);
  for (auto& [k, v] : as_object()) {
    if (k == head) {
      v.set_path(tail, std::move(value));
      return;
    }
  }
  Json child = make_object();
  child.set_path(tail, std::move(value));
  object_.emplace_back(head, std::move(child));
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v ? v->as_bool() : fallback;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v ? v->as_number() : fallback;
}

std::uint64_t Json::uint_or(const std::string& key, std::uint64_t fallback) const {
  const Json* v = find(key);
  return v ? v->as_uint() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  const Json* v = find(key);
  return v ? v->as_string() : fallback;
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull: return true;
    case Json::Type::kBool: return a.bool_ == b.bool_;
    case Json::Type::kNumber: return a.number_ == b.number_;
    case Json::Type::kString: return a.string_ == b.string_;
    case Json::Type::kArray: return a.array_ == b.array_;
    case Json::Type::kObject: return a.object_ == b.object_;
  }
  return false;
}

namespace {

void dump_value(std::string& out, const Json& value, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (value.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += value.as_bool() ? "true" : "false"; break;
    case Json::Type::kNumber: dump_number(out, value.as_number()); break;
    case Json::Type::kString: dump_string(out, value.as_string()); break;
    case Json::Type::kArray: {
      const auto& elements = value.as_array();
      if (elements.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        dump_value(out, elements[i], indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      const auto& members = value.as_object();
      if (members.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        newline(depth + 1);
        dump_string(out, members[i].first);
        out += indent > 0 ? ": " : ":";
        dump_value(out, members[i].second, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_value(out, *this, indent, 0);
  return out;
}

}  // namespace specdag::scenario
