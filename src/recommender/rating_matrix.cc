#include "recommender/rating_matrix.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace recdb {

// ------------------------------------------------------------ RowStore

RowStore::LiveRow& RowStore::Live(int32_t r) {
  int32_t& s = slot_[r];
  if (s < 0) {
    const CsrRow base = BaseRow(r);
    s = static_cast<int32_t>(live_.size());
    LiveRow& row = live_.emplace_back();
    // Room for the insert that usually follows the copy, so a written row
    // is not reallocated at twice its size on its first write.
    row.idx.reserve(base.n + 1);
    row.rating.reserve(base.n + 1);
    row.idx.assign(base.idx, base.idx + base.n);
    row.rating.assign(base.rating, base.rating + base.n);
  }
  return live_[s];
}

bool RowStore::Upsert(int32_t r, int32_t idx, double rating) {
  LiveRow& row = Live(r);
  auto it = std::lower_bound(row.idx.begin(), row.idx.end(), idx);
  const size_t pos = static_cast<size_t>(it - row.idx.begin());
  if (it != row.idx.end() && *it == idx) {
    row.rating[pos] = rating;
    return false;
  }
  row.idx.insert(it, idx);
  row.rating.insert(row.rating.begin() + pos, rating);
  return true;
}

bool RowStore::Erase(int32_t r, int32_t idx) {
  LiveRow& row = Live(r);
  auto it = std::lower_bound(row.idx.begin(), row.idx.end(), idx);
  if (it == row.idx.end() || *it != idx) return false;
  row.rating.erase(row.rating.begin() + (it - row.idx.begin()));
  row.idx.erase(it);
  return true;
}

FlatCsr RowStore::Flatten() const {
  FlatCsr csr;
  size_t nnz = 0;
  for (size_t r = 0; r < num_rows(); ++r) {
    nnz += Row(static_cast<int32_t>(r)).n;
  }
  csr.offsets.reserve(num_rows() + 1);
  csr.idx.reserve(nnz);
  csr.rating.reserve(nnz);
  csr.offsets.push_back(0);
  for (size_t r = 0; r < num_rows(); ++r) {
    const CsrRow row = Row(static_cast<int32_t>(r));
    csr.idx.insert(csr.idx.end(), row.idx, row.idx + row.n);
    csr.rating.insert(csr.rating.end(), row.rating, row.rating + row.n);
    csr.offsets.push_back(static_cast<int64_t>(csr.idx.size()));
  }
  return csr;
}

void RowStore::Reset(FlatCsr&& base) {
  base_ = std::move(base);
  live_.clear();
  live_.shrink_to_fit();
  std::fill(slot_.begin(), slot_.end(), -1);
}

size_t RowStore::ApproxBytes() const {
  size_t total = base_.ApproxBytes() + slot_.capacity() * sizeof(int32_t) +
                 live_.capacity() * sizeof(LiveRow);
  for (const LiveRow& row : live_) {
    total += row.idx.capacity() * sizeof(int32_t) +
             row.rating.capacity() * sizeof(double);
  }
  return total;
}

// ------------------------------------------------------------ RatingMatrix

int32_t RatingMatrix::InternUser(int64_t user_id) {
  auto it = user_index_.find(user_id);
  if (it != user_index_.end()) return it->second;
  int32_t idx = static_cast<int32_t>(user_ids_.size());
  user_ids_.push_back(user_id);
  user_index_[user_id] = idx;
  users_.AddRow();
  return idx;
}

int32_t RatingMatrix::InternItem(int64_t item_id) {
  auto it = item_index_.find(item_id);
  if (it != item_index_.end()) return it->second;
  int32_t idx = static_cast<int32_t>(item_ids_.size());
  item_ids_.push_back(item_id);
  item_index_[item_id] = idx;
  items_.AddRow();
  return idx;
}

void RatingMatrix::Freeze() {
  // Full rebuilds call Freeze first so they always train over flat merged
  // state; a frozen matrix with no pending delta has nothing to flatten.
  if (frozen_ && !has_delta()) return;
  CommitRefreeze(BuildMergedCsr());
}

RatingMatrix::MergedCsr RatingMatrix::BuildMergedCsr() const {
  MergedCsr merged;
  merged.user = users_.Flatten();
  merged.item = items_.Flatten();
  merged.version = version_;
  obs::Count(obs::Counter::kIngestCsrBuilds);
  return merged;
}

bool RatingMatrix::CommitRefreeze(MergedCsr&& merged) {
  if (merged.version != version_) return false;
  users_.Reset(std::move(merged.user));
  items_.Reset(std::move(merged.item));
  frozen_ = true;
  delta_ops_.clear();
  return true;
}

RatingChange RatingMatrix::DoAdd(int64_t user_id, int64_t item_id,
                                 double rating) {
  int32_t u = InternUser(user_id);
  int32_t i = InternItem(item_id);
  auto existing = GetByIndex(u, i);
  if (existing && *existing == rating) {
    // Same-value overwrite: a complete no-op. Critically this must not
    // invalidate frozen state, and must not touch rating_sum_ — in IEEE
    // arithmetic (sum - old) + new can differ from sum even when old == new,
    // so "adjusting by zero" would silently drift GlobalMean().
    return RatingChange::kUnchanged;
  }
  const bool new_in_user = users_.Upsert(u, i, rating);
  const bool new_in_item = items_.Upsert(i, u, rating);
  RECDB_DCHECK(new_in_user == new_in_item);
  (void)new_in_item;
  if (new_in_user) {
    ++num_ratings_;
    rating_sum_ += rating;
  } else {
    // Overwrite with a different value: subtract old, add new.
    rating_sum_ += rating - *existing;
  }
  if (frozen_) {
    delta_ops_.push_back(DeltaOp{new_in_user ? DeltaOp::Kind::kAdd
                                             : DeltaOp::Kind::kOverwrite,
                                 u, i});
  }
  return new_in_user ? RatingChange::kInserted : RatingChange::kOverwritten;
}

RatingChange RatingMatrix::Add(int64_t user_id, int64_t item_id,
                               double rating) {
  RatingChange change = DoAdd(user_id, item_id, rating);
  if (change != RatingChange::kUnchanged) ++version_;
  return change;
}

bool RatingMatrix::DoRemove(int64_t user_id, int64_t item_id) {
  // A Remove of an absent pair mutates nothing: the frozen state stays
  // valid and no delta op is logged.
  auto u = UserIndex(user_id);
  auto i = ItemIndex(item_id);
  if (!u || !i) return false;
  auto existing = GetByIndex(*u, *i);
  if (!existing) return false;
  const bool a = users_.Erase(*u, *i);
  const bool b = items_.Erase(*i, *u);
  RECDB_DCHECK(a && b);
  (void)a;
  (void)b;
  --num_ratings_;
  rating_sum_ -= *existing;
  if (frozen_) delta_ops_.push_back(DeltaOp{DeltaOp::Kind::kRemove, *u, *i});
  return true;
}

bool RatingMatrix::Remove(int64_t user_id, int64_t item_id) {
  if (!DoRemove(user_id, item_id)) return false;
  ++version_;
  return true;
}

RatingMatrix::BatchResult RatingMatrix::ApplyBatch(
    const std::vector<BatchRatingOp>& ops) {
  BatchResult res;
  res.effective.assign(ops.size(), 0);
  for (size_t k = 0; k < ops.size(); ++k) {
    const BatchRatingOp& op = ops[k];
    bool effective = false;
    if (op.remove) {
      effective = DoRemove(op.user_id, op.item_id);
      if (effective) ++res.removed;
    } else {
      switch (DoAdd(op.user_id, op.item_id, op.rating)) {
        case RatingChange::kInserted:
          ++res.inserted;
          effective = true;
          break;
        case RatingChange::kOverwritten:
          ++res.overwritten;
          effective = true;
          break;
        case RatingChange::kUnchanged:
          break;
      }
    }
    if (effective) {
      res.effective[k] = 1;
    } else {
      ++res.noops;
    }
  }
  // One version bump for the whole statement.
  if (res.effective_ops() > 0) ++version_;
  return res;
}

std::optional<int32_t> RatingMatrix::UserIndex(int64_t user_id) const {
  auto it = user_index_.find(user_id);
  if (it == user_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<int32_t> RatingMatrix::ItemIndex(int64_t item_id) const {
  auto it = item_index_.find(item_id);
  if (it == item_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> RatingMatrix::GetByIndex(int32_t user_idx,
                                               int32_t item_idx) const {
  const CsrRow row = users_.Row(user_idx);
  const int32_t* it = std::lower_bound(row.idx, row.idx + row.n, item_idx);
  if (it != row.idx + row.n && *it == item_idx) {
    return row.rating[it - row.idx];
  }
  return std::nullopt;
}

void RatingMatrix::UnseenItems(int32_t user_idx, size_t begin, size_t end,
                               std::vector<int32_t>* out) const {
  const CsrRow rated = users_.Row(user_idx);
  end = std::min(end, NumItems());
  // Both sequences are index-ascending: merge from the first rated index
  // at or past `begin`.
  size_t k = std::lower_bound(rated.idx, rated.idx + rated.n,
                              static_cast<int32_t>(begin)) -
             rated.idx;
  for (size_t i = begin; i < end; ++i) {
    if (k < rated.n && rated.idx[k] == static_cast<int32_t>(i)) {
      ++k;
      continue;
    }
    out->push_back(static_cast<int32_t>(i));
  }
}

std::vector<int64_t> RatingMatrix::UnseenItemIds(int32_t user_idx) const {
  std::vector<int32_t> idx;
  UnseenItems(user_idx, 0, NumItems(), &idx);
  std::vector<int64_t> unseen;
  unseen.reserve(idx.size());
  for (int32_t i : idx) unseen.push_back(item_ids_[i]);
  return unseen;
}

std::optional<double> RatingMatrix::Get(int64_t user_id,
                                        int64_t item_id) const {
  auto u = UserIndex(user_id);
  auto i = ItemIndex(item_id);
  if (!u || !i) return std::nullopt;
  return GetByIndex(*u, *i);
}

double RatingMatrix::GlobalMean() const {
  if (num_ratings_ == 0) return 0;
  return rating_sum_ / static_cast<double>(num_ratings_);
}

namespace {

double RowMean(const CsrRow& row) {
  if (row.n == 0) return 0;
  double s = 0;
  for (size_t k = 0; k < row.n; ++k) s += row.rating[k];
  return s / static_cast<double>(row.n);
}

}  // namespace

double RatingMatrix::UserMean(int32_t user_idx) const {
  return RowMean(users_.Row(user_idx));
}

double RatingMatrix::ItemMean(int32_t item_idx) const {
  return RowMean(items_.Row(item_idx));
}

size_t RatingMatrix::CsrApproxBytes() const {
  return users_.ApproxBytes() + items_.ApproxBytes() +
         delta_ops_.capacity() * sizeof(DeltaOp);
}

}  // namespace recdb
