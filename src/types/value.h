// Value: the engine's runtime scalar.
//
// recdb supports NULL, 64-bit integers, doubles, variable-length strings and
// geometry (for the PostGIS-style case study). Integers and doubles compare
// and hash cross-type so that `iid IN (1,2)` works regardless of storage type.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <variant>

#include "common/status.h"
#include "spatial/geometry.h"

namespace recdb {

enum class TypeId : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kGeometry = 4,
};

/// Human-readable type name ("INT", "DOUBLE", ...).
const char* TypeIdToString(TypeId t);

/// Parse a SQL type name (case-insensitive): INT/INTEGER/BIGINT, DOUBLE/
/// FLOAT/REAL, TEXT/VARCHAR/STRING, GEOMETRY.
Result<TypeId> TypeIdFromName(const std::string& name);

class Value {
 public:
  /// NULL of unknown type.
  Value() : type_(TypeId::kNull), var_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(TypeId::kInt64, v); }
  static Value Double(double v) { return Value(TypeId::kDouble, v); }
  static Value String(std::string v) {
    return Value(TypeId::kString, std::move(v));
  }
  static Value Geometry(spatial::Geometry g) {
    return Value(TypeId::kGeometry,
                 std::make_shared<spatial::Geometry>(std::move(g)));
  }
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  int64_t AsInt() const {
    RECDB_DCHECK(type_ == TypeId::kInt64);
    return std::get<int64_t>(var_);
  }
  double AsDouble() const {
    RECDB_DCHECK(type_ == TypeId::kDouble);
    return std::get<double>(var_);
  }
  const std::string& AsString() const {
    RECDB_DCHECK(type_ == TypeId::kString);
    return std::get<std::string>(var_);
  }
  const spatial::Geometry& AsGeometry() const {
    RECDB_DCHECK(type_ == TypeId::kGeometry);
    return *std::get<std::shared_ptr<spatial::Geometry>>(var_);
  }

  /// Numeric view: int widened to double. DCHECKs on non-numeric.
  double AsNumeric() const {
    if (type_ == TypeId::kInt64) return static_cast<double>(AsInt());
    return AsDouble();
  }
  bool is_numeric() const {
    return type_ == TypeId::kInt64 || type_ == TypeId::kDouble;
  }

  /// SQL truthiness: non-zero numeric. NULL and non-numerics are false.
  bool IsTruthy() const {
    if (type_ == TypeId::kInt64) return AsInt() != 0;
    if (type_ == TypeId::kDouble) return AsDouble() != 0.0;
    return false;
  }

  /// Three-valued SQL equality collapsed to bool: NULL != anything.
  bool SqlEquals(const Value& o) const;

  /// Total order for sorting: NULL first, then by type group; numerics
  /// compare cross-type by value. Returns <0, 0, >0.
  int Compare(const Value& o) const;

  /// Structural equality (used by tests and hashing); numerics cross-type.
  bool operator==(const Value& o) const { return Compare(o) == 0; }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// Hash consistent with operator== (numerics hash by double value).
  size_t Hash() const;

  /// Display form; strings unquoted, NULL as "NULL".
  std::string ToString() const;

  /// Become the string `data[0, n)`, reusing this value's string storage
  /// when it already holds one (a scan decodes each row into one scratch
  /// row).
  void AssignString(const char* data, size_t n) {
    if (type_ == TypeId::kString) {
      std::get<std::string>(var_).assign(data, n);
    } else {
      type_ = TypeId::kString;
      var_.emplace<std::string>(data, n);
    }
  }

  /// Cast to a column type on insert. Int<->double casts allowed; string to
  /// geometry parses WKT; anything else mismatching errors.
  Result<Value> CastTo(TypeId target) const;

 private:
  template <typename T>
  Value(TypeId t, T v) : type_(t), var_(std::move(v)) {}

  TypeId type_;
  std::variant<std::monostate, int64_t, double, std::string,
               std::shared_ptr<spatial::Geometry>>
      var_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace recdb
