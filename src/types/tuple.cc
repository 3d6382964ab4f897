#include "types/tuple.h"

#include <cstring>

namespace recdb {

namespace {

template <typename T>
void PutRaw(std::vector<uint8_t>* out, T v) {
  size_t off = out->size();
  out->resize(off + sizeof(T));
  std::memcpy(out->data() + off, &v, sizeof(T));
}

template <typename T>
bool GetRaw(const uint8_t* data, size_t len, size_t* pos, T* v) {
  if (*pos + sizeof(T) > len) return false;
  std::memcpy(v, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

void Tuple::SerializeTo(std::vector<uint8_t>* out) const {
  for (const auto& v : values_) {
    out->push_back(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kInt64:
        PutRaw(out, v.AsInt());
        break;
      case TypeId::kDouble:
        PutRaw(out, v.AsDouble());
        break;
      case TypeId::kString: {
        const std::string& s = v.AsString();
        PutRaw(out, static_cast<uint32_t>(s.size()));
        out->insert(out->end(), s.begin(), s.end());
        break;
      }
      case TypeId::kGeometry: {
        const auto& g = v.AsGeometry();
        out->push_back(static_cast<uint8_t>(g.type()));
        PutRaw(out, static_cast<uint32_t>(g.ring().size()));
        for (const auto& p : g.ring()) {
          PutRaw(out, p.x);
          PutRaw(out, p.y);
        }
        break;
      }
    }
  }
}

size_t Tuple::SerializedSize() const {
  size_t sz = 0;
  for (const auto& v : values_) {
    sz += 1;
    switch (v.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kInt64:
      case TypeId::kDouble:
        sz += 8;
        break;
      case TypeId::kString:
        sz += 4 + v.AsString().size();
        break;
      case TypeId::kGeometry:
        sz += 1 + 4 + 16 * v.AsGeometry().ring().size();
        break;
    }
  }
  return sz;
}

namespace {

/// The one row decoder. Walks `num_values` serialized columns, checking
/// each one's type byte, length and bounds, and writes column i into
/// `*slot(i)`; a column whose slot is null is checked, not built.
template <typename Slot>
Status DecodeRow(const uint8_t* data, size_t len, size_t num_values,
                 Slot&& slot) {
  size_t pos = 0;
  for (size_t i = 0; i < num_values; ++i) {
    Value* dst = slot(i);
    if (pos >= len) return Status::Internal("tuple deserialization underflow");
    TypeId t = static_cast<TypeId>(data[pos++]);
    switch (t) {
      case TypeId::kNull:
        if (dst != nullptr) *dst = Value::Null();
        break;
      case TypeId::kInt64: {
        int64_t v;
        if (!GetRaw(data, len, &pos, &v))
          return Status::Internal("tuple int underflow");
        if (dst != nullptr) *dst = Value::Int(v);
        break;
      }
      case TypeId::kDouble: {
        double v;
        if (!GetRaw(data, len, &pos, &v))
          return Status::Internal("tuple double underflow");
        if (dst != nullptr) *dst = Value::Double(v);
        break;
      }
      case TypeId::kString: {
        uint32_t n;
        if (!GetRaw(data, len, &pos, &n) || pos + n > len)
          return Status::Internal("tuple string underflow");
        if (dst != nullptr) {
          dst->AssignString(reinterpret_cast<const char*>(data + pos), n);
        }
        pos += n;
        break;
      }
      case TypeId::kGeometry: {
        if (pos >= len) return Status::Internal("tuple geom underflow");
        auto gt = static_cast<spatial::GeometryType>(data[pos++]);
        uint32_t n;
        if (!GetRaw(data, len, &pos, &n))
          return Status::Internal("tuple geom count underflow");
        // Bounds first: a corrupt count must not size an allocation.
        if ((len - pos) / 16 < n)
          return Status::Internal("tuple geom point underflow");
        if (gt == spatial::GeometryType::kPoint && n != 1)
          return Status::Internal("point with !=1 coords");
        if (dst == nullptr) {
          pos += size_t{16} * n;
          break;
        }
        std::vector<spatial::Point> pts(n);
        for (uint32_t k = 0; k < n; ++k) {
          GetRaw(data, len, &pos, &pts[k].x);
          GetRaw(data, len, &pos, &pts[k].y);
        }
        *dst = Value::Geometry(
            gt == spatial::GeometryType::kPoint
                ? spatial::Geometry::MakePoint(pts[0].x, pts[0].y)
                : spatial::Geometry::MakePolygon(std::move(pts)));
        break;
      }
      default:
        return Status::Internal("bad type byte in tuple");
    }
  }
  return Status::OK();
}

}  // namespace

Result<Tuple> Tuple::DeserializeFrom(const uint8_t* data, size_t len,
                                     size_t num_values) {
  std::vector<Value> values(num_values);
  RECDB_RETURN_NOT_OK(DecodeRow(data, len, num_values,
                                [&](size_t i) { return &values[i]; }));
  return Tuple(std::move(values));
}

Status Tuple::DecodeColumns(const uint8_t* data, size_t len,
                            const std::vector<bool>& mask,
                            std::vector<Value>* out) {
  return DecodeRow(data, len, out->size(), [&](size_t i) {
    return mask[i] ? &(*out)[i] : nullptr;
  });
}

Status Tuple::CheckRow(const uint8_t* data, size_t len, size_t num_values) {
  return DecodeRow(data, len, num_values,
                   [](size_t) -> Value* { return nullptr; });
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace recdb
