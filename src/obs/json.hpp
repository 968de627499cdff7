#pragma once

/// \file json.hpp
/// Minimal JSON value type with a serializer and a strict parser — just
/// enough for the observability layer's machine-readable outputs (Chrome
/// trace files, metrics snapshots, JSONL bench records) and for tests to
/// round-trip what the Python tooling (`tools/check_bench.py`) consumes.
/// Object keys keep insertion order so emitted files are stable and
/// diffable.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hetero::obs {

class Json;

using JsonArray = std::vector<Json>;
/// Insertion-ordered object: (key, value) pairs plus a key index.
using JsonMember = std::pair<std::string, Json>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double d) : type_(Type::kNumber), number_(d) {}
  Json(int i) : type_(Type::kNumber), number_(i) {}
  Json(std::int64_t i)
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  Json(std::uint64_t u)
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw hetero::Error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonMember>& as_object() const;

  /// Array building / access.
  void push_back(Json value);
  std::size_t size() const;
  const Json& operator[](std::size_t i) const;

  /// Object building / access. set() replaces an existing key in place.
  void set(const std::string& key, Json value);
  /// Reserves room for `members` object members, for a caller that knows
  /// how many set() calls follow.
  void reserve(std::size_t members);
  /// Member lookup; throws if absent.
  const Json& at(const std::string& key) const;
  /// Member lookup; returns nullptr if absent.
  const Json* find(const std::string& key) const;

  /// Compact single-line serialization (doubles print round-trippably;
  /// integral values print without a decimal point).
  std::string dump() const;
  /// Appends dump()'s text to `out`.
  void dump_to(std::string& out) const;

  /// Strict parse of one JSON document; throws hetero::Error with position
  /// information on malformed input.
  static Json parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  JsonArray array_;
  std::vector<JsonMember> members_;
};

}  // namespace hetero::obs
