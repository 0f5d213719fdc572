#pragma once

// A small, dependency-free JSON reader used to parse Xanadu's explicit-chain
// state-definition language (paper Listing 1).  Supports the full JSON value
// grammar (objects, arrays, strings with escapes, numbers, booleans, null).
// Object member order is preserved, which the state-language translator
// relies on for stable diagnostics.

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace xanadu::common {

class JsonValue;

/// Ordered object representation: lookup map plus insertion-ordered keys.
class JsonObject {
 public:
  /// Inserts or overwrites a member.
  void set(std::string key, JsonValue value);

  [[nodiscard]] bool contains(std::string_view key) const;
  /// Returns nullptr when the key is absent.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// Throws std::out_of_range when the key is absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  [[nodiscard]] const std::vector<std::string>& keys() const { return order_; }
  [[nodiscard]] std::size_t size() const { return order_.size(); }
  [[nodiscard]] bool empty() const { return order_.empty(); }

 private:
  std::map<std::string, JsonValue, std::less<>> members_;
  std::vector<std::string> order_;
};

using JsonArray = std::vector<JsonValue>;

/// Variant JSON value.  Implemented with an explicit kind tag plus storage
/// unique_ptrs so that the recursive type stays movable and compact.
class JsonValue {
 public:
  enum class Kind { Null, Boolean, Number, String, Array, Object };

  JsonValue() : kind_(Kind::Null) {}
  JsonValue(bool b) : kind_(Kind::Boolean), bool_(b) {}          // NOLINT
  JsonValue(double n) : kind_(Kind::Number), number_(n) {}       // NOLINT
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}        // NOLINT
  JsonValue(std::string s)                                       // NOLINT
      : kind_(Kind::String), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string{s}) {}        // NOLINT
  JsonValue(JsonArray a)                                         // NOLINT
      : kind_(Kind::Array), array_(std::make_unique<JsonArray>(std::move(a))) {}
  JsonValue(JsonObject o)                                        // NOLINT
      : kind_(Kind::Object),
        object_(std::make_unique<JsonObject>(std::move(o))) {}

  JsonValue(JsonValue&&) noexcept = default;
  JsonValue& operator=(JsonValue&&) noexcept = default;
  JsonValue(const JsonValue& other) { *this = other; }
  JsonValue& operator=(const JsonValue& other);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::Object; }

  // Accessors throw std::logic_error when the kind does not match.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Serialises back to compact JSON text (useful in tests and debugging).
  [[nodiscard]] std::string dump() const;

 private:
  void require(Kind expected) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::unique_ptr<JsonArray> array_;
  std::unique_ptr<JsonObject> object_;
};

/// Parses `text` as a single JSON document.  Trailing non-whitespace is an
/// error.  Returns a descriptive Error (with line/column) on malformed input.
[[nodiscard]] Result<JsonValue> parse_json(std::string_view text);

}  // namespace xanadu::common
