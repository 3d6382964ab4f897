// Tuple: a row of Values, with byte (de)serialization for slotted pages.
//
// Wire format, per column: 1 type byte, then
//   kNull     -> nothing
//   kInt64    -> 8 bytes little-endian
//   kDouble   -> 8 bytes IEEE-754
//   kString   -> u32 length + bytes
//   kGeometry -> u8 geom type + u32 point count + 16 bytes per point
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/schema.h"
#include "types/value.h"

namespace recdb {

class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t NumValues() const { return values_.size(); }
  const Value& At(size_t i) const {
    RECDB_DCHECK(i < values_.size());
    return values_[i];
  }
  std::vector<Value>& values() { return values_; }
  const std::vector<Value>& values() const { return values_; }

  /// Append all values of another tuple (join concatenation).
  void Append(const Tuple& o) {
    values_.insert(values_.end(), o.values_.begin(), o.values_.end());
  }

  /// Serialize to bytes; appended to `out`.
  void SerializeTo(std::vector<uint8_t>* out) const;

  /// Deserialize `num_values` values from a byte span: the row decoder's
  /// all-columns case.
  static Result<Tuple> DeserializeFrom(const uint8_t* data, size_t len,
                                       size_t num_values);

  /// Decode the columns `mask` selects of a serialized row of `out->size()`
  /// columns into `*out`, leaving the other entries as they were. Every
  /// column, decoded or skipped, gets the same type, length and bounds
  /// checks, so a corrupt row fails whatever the mask.
  static Status DecodeColumns(const uint8_t* data, size_t len,
                              const std::vector<bool>& mask,
                              std::vector<Value>* out);

  /// DecodeColumns with no column selected: every check, no Value built.
  static Status CheckRow(const uint8_t* data, size_t len, size_t num_values);

  /// Serialized size in bytes.
  size_t SerializedSize() const;

  /// "(v1, v2, ...)"
  std::string ToString() const;

  bool operator==(const Tuple& o) const { return values_ == o.values_; }

 private:
  std::vector<Value> values_;
};

}  // namespace recdb
