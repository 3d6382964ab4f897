#include "execution/basic_executors.h"

#include <algorithm>

namespace recdb {

// ---------------------------------------------------------------- SeqScan

Status SeqScanExecutor::InitImpl() {
  iter_.emplace(plan_.table->heap.get(), plan_.table->schema.NumColumns(),
                ScanSpec{plan_.predicate.get(), plan_.emit_columns});
  return Status::OK();
}

Result<std::optional<Tuple>> SeqScanExecutor::NextImpl() {
  // tuples_scanned counts every live slot examined, passing or not.
  const uint64_t examined = iter_->rows_examined();
  auto next = iter_->Next();
  ctx_->stats.tuples_scanned += iter_->rows_examined() - examined;
  if (!next.ok()) return next.status();
  if (!next->has_value()) return std::optional<Tuple>{};
  return std::make_optional(std::move((*next)->second));
}

// ----------------------------------------------------------------- Filter

Result<std::optional<Tuple>> FilterExecutor::NextImpl() {
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, child_->Next());
    if (!next.has_value()) return std::optional<Tuple>{};
    RECDB_ASSIGN_OR_RETURN(bool pass, plan_.predicate->EvalPredicate(*next));
    if (pass) return next;
  }
}

// ---------------------------------------------------------------- Project

Result<std::optional<Tuple>> ProjectExecutor::NextImpl() {
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, child_->Next());
    if (!next.has_value()) return std::optional<Tuple>{};
    std::vector<Value> out;
    out.reserve(plan_.exprs.size());
    for (const auto& e : plan_.exprs) {
      RECDB_ASSIGN_OR_RETURN(Value v, e->Eval(*next));
      out.push_back(std::move(v));
    }
    Tuple row(std::move(out));
    if (plan_.distinct) {
      size_t h = 0x9e3779b97f4a7c15ULL;
      for (const auto& v : row.values()) {
        h ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      }
      bool dup = false;
      auto [lo, hi] = seen_.equal_range(h);
      for (auto it = lo; it != hi; ++it) {
        if (it->second == row) {
          dup = true;
          break;
        }
      }
      if (dup) continue;
      seen_.emplace(h, row);
    }
    return std::make_optional(std::move(row));
  }
}

// ---------------------------------------------------------- NestedLoopJoin

Status NestedLoopJoinExecutor::InitImpl() {
  RECDB_RETURN_NOT_OK(left_->Init());
  RECDB_RETURN_NOT_OK(right_->Init());
  inner_.clear();
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, right_->Next());
    if (!next.has_value()) break;
    inner_.push_back(std::move(*next));
  }
  outer_tuple_.reset();
  inner_pos_ = 0;
  return Status::OK();
}

Result<std::optional<Tuple>> NestedLoopJoinExecutor::NextImpl() {
  while (true) {
    if (!outer_tuple_.has_value()) {
      RECDB_ASSIGN_OR_RETURN(auto next, left_->Next());
      if (!next.has_value()) return std::optional<Tuple>{};
      outer_tuple_ = std::move(next);
      inner_pos_ = 0;
    }
    while (inner_pos_ < inner_.size()) {
      const Tuple& inner = inner_[inner_pos_++];
      Tuple joined = *outer_tuple_;
      joined.Append(inner);
      ++ctx_->stats.join_probes;
      if (plan_.predicate != nullptr) {
        RECDB_ASSIGN_OR_RETURN(bool pass,
                               plan_.predicate->EvalPredicate(joined));
        if (!pass) continue;
      }
      return std::make_optional(std::move(joined));
    }
    outer_tuple_.reset();
  }
}

// ---------------------------------------------------------------- HashJoin

Status HashJoinExecutor::InitImpl() {
  RECDB_RETURN_NOT_OK(left_->Init());
  RECDB_RETURN_NOT_OK(right_->Init());
  table_.clear();
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, right_->Next());
    if (!next.has_value()) break;
    RECDB_ASSIGN_OR_RETURN(Value key, plan_.right_key->Eval(*next));
    if (key.is_null()) continue;  // NULL never joins
    table_.emplace(std::move(key), std::move(*next));
  }
  probe_tuple_.reset();
  matches_.clear();
  match_pos_ = 0;
  return Status::OK();
}

Result<std::optional<Tuple>> HashJoinExecutor::NextImpl() {
  while (true) {
    while (match_pos_ < matches_.size()) {
      const Tuple* inner = matches_[match_pos_++];
      Tuple joined = *probe_tuple_;
      joined.Append(*inner);
      if (plan_.residual != nullptr) {
        RECDB_ASSIGN_OR_RETURN(bool pass,
                               plan_.residual->EvalPredicate(joined));
        if (!pass) continue;
      }
      return std::make_optional(std::move(joined));
    }
    RECDB_ASSIGN_OR_RETURN(auto next, left_->Next());
    if (!next.has_value()) return std::optional<Tuple>{};
    probe_tuple_ = std::move(next);
    ++ctx_->stats.join_probes;
    matches_.clear();
    match_pos_ = 0;
    RECDB_ASSIGN_OR_RETURN(Value key, plan_.left_key->Eval(*probe_tuple_));
    if (key.is_null()) continue;
    auto [lo, hi] = table_.equal_range(key);
    for (auto it = lo; it != hi; ++it) matches_.push_back(&it->second);
  }
}

// ------------------------------------------------------------- Sort / TopN

Result<std::vector<Value>> EvalSortKeys(const std::vector<SortKey>& keys,
                                        const Tuple& t) {
  std::vector<Value> out;
  out.reserve(keys.size());
  for (const auto& k : keys) {
    RECDB_ASSIGN_OR_RETURN(Value v, k.expr->Eval(t));
    out.push_back(std::move(v));
  }
  return out;
}

bool SortKeyVectorLess(const std::vector<SortKey>& keys,
                       const std::vector<Value>& a,
                       const std::vector<Value>& b) {
  for (size_t i = 0; i < keys.size(); ++i) {
    int c = a[i].Compare(b[i]);
    if (c == 0) continue;
    return keys[i].desc ? c > 0 : c < 0;
  }
  return false;
}

namespace {

struct KeyedRow {
  std::vector<Value> keys;
  // Arrival order, used as the final comparator key: pruning with
  // nth_element shuffles rows, so a trailing stable_sort alone cannot
  // restore arrival order among key ties — the tie-break must be explicit
  // for Top-N output to be deterministic regardless of pruning.
  uint64_t seq = 0;
  Tuple tuple;
};

Result<std::vector<Tuple>> DrainSorted(Executor* child,
                                       const std::vector<SortKey>& keys,
                                       size_t bound) {
  std::vector<KeyedRow> rows;
  // Total order: sort keys first, arrival order as tie-break.
  auto less = [&](const KeyedRow& x, const KeyedRow& y) {
    if (SortKeyVectorLess(keys, x.keys, y.keys)) return true;
    if (SortKeyVectorLess(keys, y.keys, x.keys)) return false;
    return x.seq < y.seq;
  };
  uint64_t seq = 0;
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, child->Next());
    if (!next.has_value()) break;
    RECDB_ASSIGN_OR_RETURN(auto kv, EvalSortKeys(keys, *next));
    rows.push_back(KeyedRow{std::move(kv), seq++, std::move(*next)});
    // Bounded selection: when far past the bound, prune to the best `bound`.
    if (bound > 0 && rows.size() >= bound * 2 + 16) {
      std::nth_element(rows.begin(), rows.begin() + bound - 1, rows.end(),
                       less);
      rows.resize(bound);
    }
  }
  std::sort(rows.begin(), rows.end(), less);
  if (bound > 0 && rows.size() > bound) rows.resize(bound);
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (auto& r : rows) out.push_back(std::move(r.tuple));
  return out;
}

}  // namespace

Status SortExecutor::InitImpl() {
  RECDB_RETURN_NOT_OK(child_->Init());
  RECDB_ASSIGN_OR_RETURN(rows_, DrainSorted(child_.get(), plan_.keys, 0));
  pos_ = 0;
  return Status::OK();
}

Result<std::optional<Tuple>> SortExecutor::NextImpl() {
  if (pos_ >= rows_.size()) return std::optional<Tuple>{};
  return std::make_optional(std::move(rows_[pos_++]));
}

Status TopNExecutor::InitImpl() {
  RECDB_RETURN_NOT_OK(child_->Init());
  rows_.clear();
  pos_ = 0;
  if (plan_.n == 0) return Status::OK();  // LIMIT 0
  RECDB_ASSIGN_OR_RETURN(rows_,
                         DrainSorted(child_.get(), plan_.keys, plan_.n));
  return Status::OK();
}

Result<std::optional<Tuple>> TopNExecutor::NextImpl() {
  if (pos_ >= rows_.size()) return std::optional<Tuple>{};
  return std::make_optional(std::move(rows_[pos_++]));
}

// ------------------------------------------------------------------ Limit

Result<std::optional<Tuple>> LimitExecutor::NextImpl() {
  if (emitted_ >= plan_.n) return std::optional<Tuple>{};
  RECDB_ASSIGN_OR_RETURN(auto next, child_->Next());
  if (!next.has_value()) return std::optional<Tuple>{};
  ++emitted_;
  return next;
}

}  // namespace recdb
