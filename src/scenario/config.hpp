// Dependency-free JSON-subset parser and writer for scenario specs.
//
// Supports the JSON the scenario engine needs — null, booleans, finite
// numbers, strings (with the standard escapes, \uXXXX limited to the BMP),
// arrays and objects — and nothing else: no comments, no NaN/Infinity, no
// duplicate-key tolerance. Objects preserve insertion order so a parse ->
// dump -> parse round trip is the identity on the value level.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace specdag::scenario {

class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  Json() : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value);
  Json(int value) : Json(static_cast<double>(value)) {}
  // Integers above 2^53 would be silently rounded by the double
  // representation; refusing them keeps every stored integer exact.
  Json(std::uint64_t value) : Json(checked_integer(value)) {}
  template <typename T,
            typename = std::enable_if_t<std::is_same_v<T, std::size_t> &&
                                        !std::is_same_v<std::size_t, std::uint64_t>>>
  Json(T value) : Json(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}
  Json(Array value) : type_(Type::kArray), array_(std::move(value)) {}
  Json(Object value) : type_(Type::kObject), object_(std::move(value)) {}

  static Json make_object() { return Json(Object{}); }
  static Json make_array() { return Json(Array{}); }

  // Arrays and objects nest at most this deep in a parsed document. The
  // parser recurses once per level, so the cap bounds its stack; no spec,
  // grid or manifest nests deeper than about 8.
  static constexpr std::size_t kMaxDepth = 256;

  // Parses a complete document; trailing non-whitespace is an error.
  // Throws JsonError with a byte offset on malformed input, including
  // nesting deeper than kMaxDepth.
  static Json parse(const std::string& text);
  static Json parse_file(const std::string& path);

  // Serializes the value. indent > 0 pretty-prints with that many spaces.
  std::string dump(int indent = 0) const;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Checked accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;   // requires an integral number
  std::uint64_t as_uint() const;  // requires a non-negative integral number
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  // Object helpers. find() returns nullptr when the key is absent.
  const Json* find(const std::string& key) const;
  void set(const std::string& key, Json value);  // insert or overwrite
  // Sets a dotted path ("client.train.batch_size"), creating intermediate
  // objects as needed — the sweep executor applies grid axes through this.
  void set_path(const std::string& dotted_path, Json value);

  // Typed lookups with defaults, for tolerant spec deserialization.
  bool bool_or(const std::string& key, bool fallback) const;
  double number_or(const std::string& key, double fallback) const;
  std::uint64_t uint_or(const std::string& key, std::uint64_t fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;

  friend bool operator==(const Json& a, const Json& b);

 private:
  static double checked_integer(std::uint64_t value) {
    if (value > (std::uint64_t{1} << 53)) {
      throw JsonError("integer " + std::to_string(value) +
                      " cannot be represented exactly as a JSON number");
    }
    return static_cast<double>(value);
  }

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace specdag::scenario
