#include "common/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

namespace xanadu::common {

void JsonObject::set(std::string key, JsonValue value) {
  auto [it, inserted] = members_.insert_or_assign(key, std::move(value));
  (void)it;
  if (inserted) order_.push_back(std::move(key));
}

bool JsonObject::contains(std::string_view key) const {
  return members_.find(key) != members_.end();
}

const JsonValue* JsonObject::find(std::string_view key) const {
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

const JsonValue& JsonObject::at(std::string_view key) const {
  auto it = members_.find(key);
  if (it == members_.end()) {
    throw std::out_of_range{"JsonObject::at: missing key '" + std::string{key} + "'"};
  }
  return it->second;
}

JsonValue& JsonValue::operator=(const JsonValue& other) {
  if (this == &other) return *this;
  kind_ = other.kind_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = other.string_;
  array_ = other.array_ ? std::make_unique<JsonArray>(*other.array_) : nullptr;
  object_ = other.object_ ? std::make_unique<JsonObject>(*other.object_) : nullptr;
  return *this;
}

void JsonValue::require(Kind expected) const {
  if (kind_ != expected) {
    throw std::logic_error{"JsonValue: wrong kind accessed"};
  }
}

bool JsonValue::as_bool() const {
  require(Kind::Boolean);
  return bool_;
}

double JsonValue::as_number() const {
  require(Kind::Number);
  return number_;
}

const std::string& JsonValue::as_string() const {
  require(Kind::String);
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  require(Kind::Array);
  return *array_;
}

const JsonObject& JsonValue::as_object() const {
  require(Kind::Object);
  return *object_;
}

namespace {

void dump_string(const std::string& s, std::ostringstream& out) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      case '\r': out << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void dump_value(const JsonValue& v, std::ostringstream& out) {
  switch (v.kind()) {
    case JsonValue::Kind::Null: out << "null"; break;
    case JsonValue::Kind::Boolean: out << (v.as_bool() ? "true" : "false"); break;
    case JsonValue::Kind::Number: {
      const double n = v.as_number();
      if (n == std::floor(n) && std::abs(n) < 1e15) {
        out << static_cast<long long>(n);
      } else {
        // Shortest representation that round-trips exactly.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", n);
        out << buf;
      }
      break;
    }
    case JsonValue::Kind::String: dump_string(v.as_string(), out); break;
    case JsonValue::Kind::Array: {
      out << '[';
      const auto& arr = v.as_array();
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out << ',';
        dump_value(arr[i], out);
      }
      out << ']';
      break;
    }
    case JsonValue::Kind::Object: {
      out << '{';
      const auto& obj = v.as_object();
      bool first = true;
      for (const auto& key : obj.keys()) {
        if (!first) out << ',';
        first = false;
        dump_string(key, out);
        out << ':';
        dump_value(obj.at(key), out);
      }
      out << '}';
      break;
    }
  }
}

/// Recursive-descent JSON parser with line/column error reporting.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value)) return make_error(error_);
    skip_ws();
    if (pos_ != text_.size()) {
      return make_error(at() + "trailing characters after JSON document");
    }
    return value;
  }

 private:
  [[nodiscard]] std::string at() const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream out;
    out << "json:" << line << ':' << col << ": ";
    return out.str();
  }

  bool fail(std::string message) {
    error_ = at() + std::move(message);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char expected) {
    if (eof() || text_[pos_] != expected) return false;
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    if (eof()) return fail("unexpected end of input");
    switch (peek()) {
      case '{':
      case '[': return parse_container(out);
      case '"': return parse_string_value(out);
      case 't':
      case 'f': return parse_bool(out);
      case 'n': return parse_null(out);
      default: return parse_number(out);
    }
  }

  /// Parses an array or object one level deeper, refusing to pass
  /// kMaxJsonDepth.  A failure ends the whole parse, so depth_ is only
  /// restored on success.
  bool parse_container(JsonValue& out) {
    if (depth_ == kMaxJsonDepth) {
      return fail("nesting deeper than " + std::to_string(kMaxJsonDepth) +
                  " levels");
    }
    ++depth_;
    if (!(peek() == '{' ? parse_object(out) : parse_array(out))) return false;
    --depth_;
    return true;
  }

  bool parse_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_null(JsonValue& out) {
    if (!parse_literal("null")) return false;
    out = JsonValue{};
    return true;
  }

  bool parse_bool(JsonValue& out) {
    if (peek() == 't') {
      if (!parse_literal("true")) return false;
      out = JsonValue{true};
    } else {
      if (!parse_literal("false")) return false;
      out = JsonValue{false};
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!eof() && (peek() == '-' || peek() == '+')) ++pos_;
    while (!eof() && (std::isdigit(static_cast<unsigned char>(peek())) ||
                      peek() == '.' || peek() == 'e' || peek() == 'E' ||
                      peek() == '-' || peek() == '+')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected a value");
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
      pos_ = start;
      return fail("malformed number");
    }
    out = JsonValue{value};
    return true;
  }

  bool parse_string_raw(std::string& out) {
    if (!consume('"')) return fail("expected '\"'");
    out.clear();
    while (true) {
      if (eof()) return fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (eof()) return fail("unterminated escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return fail("invalid \\u escape");
            }
            // Encode as UTF-8 (basic multilingual plane only; surrogate
            // pairs are not needed by the state language).
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
            break;
          }
          default: return fail("unknown escape sequence");
        }
      } else {
        out += c;
      }
    }
  }

  bool parse_string_value(JsonValue& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = JsonValue{std::move(s)};
    return true;
  }

  bool parse_array(JsonValue& out) {
    consume('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) {
      out = JsonValue{std::move(arr)};
      return true;
    }
    while (true) {
      skip_ws();
      JsonValue element;
      if (!parse_value(element)) return false;
      arr.push_back(std::move(element));
      skip_ws();
      if (consume(']')) break;
      if (!consume(',')) return fail("expected ',' or ']' in array");
    }
    out = JsonValue{std::move(arr)};
    return true;
  }

  bool parse_object(JsonValue& out) {
    consume('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) {
      out = JsonValue{std::move(obj)};
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':' after object key");
      skip_ws();
      JsonValue value;
      if (!parse_value(value)) return false;
      // Duplicate keys are rejected rather than last-wins overwritten:
      // silently dropping an earlier member turns malformed documents
      // (hand-edited metadata, corrupted dumps) into plausible-looking
      // state, and dump() never emits duplicates, so round-trips lose
      // nothing.
      if (obj.contains(key)) {
        return fail("duplicate object key \"" + key + "\"");
      }
      obj.set(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) break;
      if (!consume(',')) return fail("expected ',' or '}' in object");
    }
    out = JsonValue{std::move(obj)};
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // Arrays and objects open at pos_.
  std::string error_;
};

}  // namespace

std::string JsonValue::dump() const {
  std::ostringstream out;
  dump_value(*this, out);
  return out.str();
}

Result<JsonValue> parse_json(std::string_view text) {
  return Parser{text}.parse();
}

}  // namespace xanadu::common
