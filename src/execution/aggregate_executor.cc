#include "execution/aggregate_executor.h"

namespace recdb {

namespace {

size_t HashKeys(const std::vector<Value>& keys) {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& v : keys) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool KeysEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].Compare(b[i]) != 0) return false;
  }
  return true;
}

}  // namespace

Status HashAggregateExecutor::Accumulate(const Tuple& row,
                                         std::vector<AggState>* states) {
  for (size_t i = 0; i < plan_.aggs.size(); ++i) {
    const auto& agg = plan_.aggs[i];
    AggState& s = (*states)[i];
    if (agg.kind == AggKind::kCountStar) {
      ++s.count;
      continue;
    }
    RECDB_ASSIGN_OR_RETURN(Value v, agg.arg->Eval(row));
    if (v.is_null()) continue;  // SQL: aggregates skip NULLs
    ++s.count;
    switch (agg.kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (!v.is_numeric()) {
          return Status::ExecutionError("SUM/AVG over non-numeric value");
        }
        s.sum += v.AsNumeric();
        break;
      case AggKind::kMin:
        if (!s.has_value || v.Compare(s.min) < 0) s.min = v;
        break;
      case AggKind::kMax:
        if (!s.has_value || v.Compare(s.max) > 0) s.max = v;
        break;
      case AggKind::kCountStar:
        break;
    }
    s.has_value = true;
  }
  return Status::OK();
}

Tuple HashAggregateExecutor::Finalize(const Group& group) const {
  std::vector<Value> out = group.keys;
  for (size_t i = 0; i < plan_.aggs.size(); ++i) {
    const AggState& s = group.states[i];
    switch (plan_.aggs[i].kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        out.push_back(Value::Int(static_cast<int64_t>(s.count)));
        break;
      case AggKind::kSum:
        out.push_back(s.has_value ? Value::Double(s.sum) : Value::Null());
        break;
      case AggKind::kAvg:
        out.push_back(s.has_value
                          ? Value::Double(s.sum / static_cast<double>(s.count))
                          : Value::Null());
        break;
      case AggKind::kMin:
        out.push_back(s.has_value ? s.min : Value::Null());
        break;
      case AggKind::kMax:
        out.push_back(s.has_value ? s.max : Value::Null());
        break;
    }
  }
  return Tuple(std::move(out));
}

Status HashAggregateExecutor::InitImpl() {
  RECDB_RETURN_NOT_OK(child_->Init());
  groups_.clear();
  pos_ = 0;
  // Global aggregation (no GROUP BY) has exactly one group, even over zero
  // rows, and needs no index.
  const bool global = plan_.group_keys.empty();
  if (global) {
    groups_.push_back(Group{{}, std::vector<AggState>(plan_.aggs.size())});
  }
  // Group index: hash of key vector -> indices into groups_.
  std::unordered_multimap<size_t, size_t> index;

  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, child_->Next());
    if (!next.has_value()) break;
    if (global) {
      RECDB_RETURN_NOT_OK(Accumulate(*next, &groups_[0].states));
      continue;
    }
    std::vector<Value> keys;
    keys.reserve(plan_.group_keys.size());
    for (const auto& k : plan_.group_keys) {
      RECDB_ASSIGN_OR_RETURN(Value v, k->Eval(*next));
      keys.push_back(std::move(v));
    }
    size_t h = HashKeys(keys);
    Group* group = nullptr;
    auto [lo, hi] = index.equal_range(h);
    for (auto it = lo; it != hi; ++it) {
      if (KeysEqual(groups_[it->second].keys, keys)) {
        group = &groups_[it->second];
        break;
      }
    }
    if (group == nullptr) {
      index.emplace(h, groups_.size());
      groups_.push_back(
          Group{std::move(keys), std::vector<AggState>(plan_.aggs.size())});
      group = &groups_.back();
    }
    RECDB_RETURN_NOT_OK(Accumulate(*next, &group->states));
  }
  return Status::OK();
}

Result<std::optional<Tuple>> HashAggregateExecutor::NextImpl() {
  if (pos_ >= groups_.size()) return std::optional<Tuple>{};
  return std::make_optional(Finalize(groups_[pos_++]));
}

}  // namespace recdb
