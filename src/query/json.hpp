// A minimal JSON reader for the query layer: just enough to load
// `storm.state.v1` snapshots back into a TableSet (statectl, CI
// round-trip tests). Recursive descent, no dependencies.
//
// Integers are kept exact: a numeric token with no fraction/exponent
// is parsed into int64 (negative) or uint64 (non-negative) alongside
// the double, so every 64-bit counter, timestamp and digest survives a
// round trip bit-for-bit. An integral token neither type holds is a
// parse error, not a clamp.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace storm::query::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  bool integral = false;      // token had no fraction or exponent
  bool negative = false;      // integral token with a leading '-'
  std::int64_t integer = 0;   // exact value of a negative integral token
  std::uint64_t uinteger = 0; // exact value of a non-negative one
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup (first match), or nullptr.
  const Value* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }

  /// Stores the token's exact value in `out` when it was integral and
  /// T can hold it; otherwise returns false and leaves `out` alone.
  template <std::integral T>
  bool exact(T& out) const {
    if (!is_number() || !integral) return false;
    if (negative ? !std::in_range<T>(integer) : !std::in_range<T>(uinteger)) {
      return false;
    }
    out = negative ? static_cast<T>(integer) : static_cast<T>(uinteger);
    return true;
  }
  double as_double() const { return number; }
};

using Object = std::vector<std::pair<std::string, Value>>;
using Array = std::vector<Value>;

/// Parse one JSON document (leading/trailing whitespace allowed).
/// Returns false and sets *err (if given) on malformed input.
bool parse(std::string_view text, Value& out, std::string* err = nullptr);

}  // namespace storm::query::json
