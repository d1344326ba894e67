// Minimal JSON document model, emitter, and parser.
//
// Used for the MR-MTP topology configuration file (paper Listing 2) and for
// machine-readable experiment output. Objects preserve insertion order so
// emitted configuration is deterministic and diffable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mrmtp::util {

class Json;

using JsonArray = std::vector<Json>;
using JsonMember = std::pair<std::string, Json>;

/// Insertion-ordered JSON object.
class JsonObject {
 public:
  Json& operator[](std::string_view key);
  [[nodiscard]] const Json* find(std::string_view key) const;
  [[nodiscard]] std::size_t size() const { return members_.size(); }
  [[nodiscard]] bool empty() const { return members_.empty(); }
  [[nodiscard]] auto begin() const { return members_.begin(); }
  [[nodiscard]] auto end() const { return members_.end(); }

 private:
  std::vector<JsonMember> members_;
};

/// A JSON value: null, bool, integer, double, string, array, or object.
/// Integers are kept distinct from doubles so port numbers and tier values
/// round-trip exactly.
class Json {
 public:
  Json() = default;
  Json(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Json(bool b) : value_(b) {}  // NOLINT(google-explicit-constructor)
  Json(int v) : value_(static_cast<std::int64_t>(v)) {}  // NOLINT
  Json(std::int64_t v) : value_(v) {}   // NOLINT(google-explicit-constructor)
  Json(double v) : value_(v) {}         // NOLINT(google-explicit-constructor)
  Json(const char* s) : value_(std::string(s)) {}  // NOLINT
  Json(std::string s) : value_(std::move(s)) {}    // NOLINT
  Json(JsonArray a) : value_(std::move(a)) {}      // NOLINT
  Json(JsonObject o) : value_(std::move(o)) {}     // NOLINT

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::monostate>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  [[nodiscard]] bool is_double() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_number() const { return is_int() || is_double(); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  [[nodiscard]] bool as_bool() const { return std::get<bool>(value_); }
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const { return std::get<std::string>(value_); }
  [[nodiscard]] const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  [[nodiscard]] const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Member access; creates the object/member as needed (like nlohmann).
  Json& operator[](std::string_view key);
  [[nodiscard]] const Json* find(std::string_view key) const;

  /// Serializes with 2-space indentation when `pretty`, compact otherwise.
  [[nodiscard]] std::string dump(bool pretty = true) const;

  /// Parses a JSON document. Throws CodecError (see byte_io.hpp) on syntax
  /// errors with a character-offset message.
  static Json parse(std::string_view text);

 private:
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               JsonArray, JsonObject>
      value_;
};

}  // namespace mrmtp::util
