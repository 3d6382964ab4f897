#include "recommender/cf_model.h"

#include <algorithm>
#include <cmath>

namespace recdb {

namespace {

size_t NeighborhoodBytes(const std::vector<std::vector<Neighbor>>& nb) {
  size_t total = 0;
  for (const auto& row : nb) {
    total += sizeof(std::vector<Neighbor>) + row.capacity() * sizeof(Neighbor);
  }
  return total;
}

size_t NeighborhoodEntries(const std::vector<std::vector<Neighbor>>& nb) {
  size_t total = 0;
  for (const auto& row : nb) total += row.size();
  return total;
}

/// sim(a, b) by binary search of a's index-sorted row; nothing on a query
/// path asks for one pair's similarity.
double SimilarityLookup(const std::vector<std::vector<Neighbor>>& nb,
                        int32_t a, int32_t b) {
  if (static_cast<size_t>(a) >= nb.size()) return 0;
  const std::vector<Neighbor>& row = nb[a];
  auto it = std::lower_bound(
      row.begin(), row.end(), b,
      [](const Neighbor& n, int32_t idx) { return n.idx < idx; });
  return it != row.end() && it->idx == b ? it->sim : 0;
}

/// Dense scatter target reused across PredictBatch calls on one thread.
/// Epoch stamps make Reset O(1): a slot is live only when its stamp matches
/// the current epoch, so no per-call clearing of the value array.
struct DenseScratch {
  std::vector<double> val;
  std::vector<uint32_t> stamp;
  uint32_t epoch = 0;

  void Reset(size_t n) {
    if (stamp.size() < n) {
      stamp.resize(n, 0);
      val.resize(n, 0);
    }
    if (++epoch == 0) {  // wrapped: stamps from 2^32 calls ago could alias
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
  }
  void Set(int32_t i, double v) {
    val[i] = v;
    stamp[i] = epoch;
  }
  bool Get(int32_t i, double* v) const {
    if (stamp[i] != epoch) return false;
    *v = val[i];
    return true;
  }
};

DenseScratch& TlsScratch() {
  thread_local DenseScratch scratch;
  return scratch;
}

/// Item rows a delta op set can reach in a truncated table, where a row's
/// kept neighbors can change whenever any sim in it moves: for each op
/// (u, i) that is item i itself, every item sharing a rater with i (i's
/// norm — and for Pearson its mean — changed, which moves sim(i, j) for
/// every pair with nonzero dot), and every item rated by u (their dot with
/// i gained or lost the shared dimension; after a remove u may no longer
/// appear in i's merged rater list, so u is unioned in explicitly).
/// Computed on the merged matrix; an over-approximation is always safe, a
/// miss never is.
std::vector<int32_t> TouchedItemRows(const RatingMatrix& m,
                                     const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(m.NumItems(), 0);
  std::vector<char> user_done(m.NumUsers(), 0);
  auto mark_items_of = [&](int32_t v) {
    if (v < 0 || static_cast<size_t>(v) >= user_done.size() || user_done[v]) {
      return;
    }
    user_done[v] = 1;
    const CsrRow row = m.UserCsrRow(v);
    for (size_t k = 0; k < row.n; ++k) touched[row.idx[k]] = 1;
  };
  for (const auto& op : ops) {
    if (op.item_idx >= 0 &&
        static_cast<size_t>(op.item_idx) < touched.size()) {
      touched[op.item_idx] = 1;
      const CsrRow raters = m.ItemCsrRow(op.item_idx);
      for (size_t k = 0; k < raters.n; ++k) mark_items_of(raters.idx[k]);
    }
    mark_items_of(op.user_idx);
  }
  std::vector<int32_t> rows;
  for (size_t i = 0; i < touched.size(); ++i) {
    if (touched[i]) rows.push_back(static_cast<int32_t>(i));
  }
  return rows;
}

/// User-side mirror of TouchedItemRows.
std::vector<int32_t> TouchedUserRows(const RatingMatrix& m,
                                     const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(m.NumUsers(), 0);
  std::vector<char> item_done(m.NumItems(), 0);
  auto mark_raters_of = [&](int32_t j) {
    if (j < 0 || static_cast<size_t>(j) >= item_done.size() || item_done[j]) {
      return;
    }
    item_done[j] = 1;
    const CsrRow row = m.ItemCsrRow(j);
    for (size_t k = 0; k < row.n; ++k) touched[row.idx[k]] = 1;
  };
  for (const auto& op : ops) {
    if (op.user_idx >= 0 &&
        static_cast<size_t>(op.user_idx) < touched.size()) {
      touched[op.user_idx] = 1;
      const CsrRow rated = m.UserCsrRow(op.user_idx);
      for (size_t k = 0; k < rated.n; ++k) mark_raters_of(rated.idx[k]);
    }
    mark_raters_of(op.item_idx);
  }
  std::vector<int32_t> rows;
  for (size_t u = 0; u < touched.size(); ++u) {
    if (touched[u]) rows.push_back(static_cast<int32_t>(u));
  }
  return rows;
}

/// The distinct entities on `side` (item or user) that `ops` wrote,
/// ascending: the rows an untruncated refresh recomputes.
std::vector<int32_t> OpRows(const std::vector<DeltaOp>& ops,
                            int32_t DeltaOp::*side) {
  std::vector<int32_t> rows;
  rows.reserve(ops.size());
  for (const auto& op : ops) rows.push_back(op.*side);
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// The one refresh both CF families share. An untruncated table is
/// symmetric (similarity.h), so `rows` are the op entities: they are
/// recomputed, and each fresh row p is mirrored into the table as patches
/// that set, insert or erase p's entry in every row its old or fresh row
/// names — rows recomputed here are already exact and get none. A truncated
/// table recomputes every row in `rows` and patches nothing. Returns the
/// rows the update changes, ascending (the caller maps them to the stale
/// ids whose cached scores the commit evicts).
template <typename Recompute>
std::vector<int32_t> PrepareNeighborhoodUpdate(
    const std::vector<std::vector<Neighbor>>& table, bool symmetric,
    const std::vector<int32_t>& rows, const Recompute& recompute,
    ModelUpdate* update) {
  update->rows = recompute(rows);
  std::vector<int32_t> changed;
  changed.reserve(update->rows.size());
  for (const auto& [p, row] : update->rows) changed.push_back(p);
  if (!symmetric) return changed;

  auto patch = [&](int32_t q, int32_t p, float sim, bool erase) {
    if (std::binary_search(changed.begin(), changed.end(), q)) return;
    update->patches.push_back(NeighborPatch{q, p, sim, erase});
  };
  const std::vector<Neighbor> none;
  for (const auto& [p, fresh] : update->rows) {
    const std::vector<Neighbor>& old =
        static_cast<size_t>(p) < table.size() ? table[p] : none;
    // Both rows are index-sorted: one merge pass classifies every neighbor.
    size_t a = 0, b = 0;
    while (a < old.size() || b < fresh.size()) {
      if (b == fresh.size() ||
          (a < old.size() && old[a].idx < fresh[b].idx)) {
        patch(old[a].idx, p, 0, /*erase=*/true);
        ++a;
      } else if (a == old.size() || fresh[b].idx < old[a].idx) {
        patch(fresh[b].idx, p, fresh[b].sim, /*erase=*/false);
        ++b;
      } else {
        if (old[a].sim != fresh[b].sim) {
          patch(fresh[b].idx, p, fresh[b].sim, /*erase=*/false);
        }
        ++a;
        ++b;
      }
    }
  }
  std::sort(update->patches.begin(), update->patches.end(),
            [](const NeighborPatch& x, const NeighborPatch& y) {
              return x.row != y.row ? x.row < y.row : x.idx < y.idx;
            });
  // The patched rows, which no fresh row is, join the changed set.
  std::vector<int32_t> patched;
  for (const NeighborPatch& np : update->patches) {
    if (patched.empty() || patched.back() != np.row) patched.push_back(np.row);
  }
  const size_t num_fresh = changed.size();
  changed.insert(changed.end(), patched.begin(), patched.end());
  std::inplace_merge(changed.begin(), changed.begin() + num_fresh,
                     changed.end());
  return changed;
}

/// Install recomputed rows into the index-sorted table, growing it for
/// entities interned since the model was built, then apply the patches in
/// place (caller holds the writer lock).
void InstallNeighborRows(std::vector<std::vector<Neighbor>>* nb,
                         ModelUpdate&& update) {
  if (update.num_rows > nb->size()) nb->resize(update.num_rows);
  size_t installed = 0;
  for (auto& [idx, row] : update.rows) {
    if (idx < 0 || static_cast<size_t>(idx) >= nb->size()) continue;
    (*nb)[idx] = std::move(row);
    ++installed;
  }
  for (const NeighborPatch& np : update.patches) {
    if (np.row < 0 || static_cast<size_t>(np.row) >= nb->size()) continue;
    std::vector<Neighbor>& row = (*nb)[np.row];
    auto it = std::lower_bound(
        row.begin(), row.end(), np.idx,
        [](const Neighbor& n, int32_t idx) { return n.idx < idx; });
    const bool found = it != row.end() && it->idx == np.idx;
    if (np.erase) {
      if (found) row.erase(it);
    } else if (found) {
      it->sim = np.sim;
    } else {
      // Grow a full row by a sixteenth, not by doubling: a refresh inserts
      // a few entries into rows of up to a catalog's length.
      if (row.size() == row.capacity()) {
        const size_t pos = it - row.begin();
        row.reserve(row.size() + row.size() / 16 + 1);
        it = row.begin() + pos;
      }
      row.insert(it, Neighbor{np.idx, np.sim});
    }
  }
  obs::Count(obs::Counter::kIngestRowUpdates, installed);
}

}  // namespace

ItemCFModel::ItemCFModel(std::shared_ptr<const RatingMatrix> ratings,
                         bool centered, const SimilarityOptions& opts,
                         std::vector<std::vector<Neighbor>> neighborhoods)
    : RecModel(std::move(ratings)),
      centered_(centered),
      opts_(opts),
      neighborhoods_(std::move(neighborhoods)) {}

std::unique_ptr<ItemCFModel> ItemCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  SimilarityOptions o = opts;
  o.centered = centered;
  ratings->Freeze();
  auto neighborhoods = BuildItemNeighborhoods(*ratings, o);
  return std::unique_ptr<ItemCFModel>(new ItemCFModel(
      std::move(ratings), centered, o, std::move(neighborhoods)));
}

void ItemCFModel::DoPredictBatch(int32_t u, std::span<const int32_t> items,
                                 std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  std::fill(out.begin(), out.end(), 0.0);
  if (u < 0 || static_cast<size_t>(u) >= ratings_->NumUsers()) return;
  // The user's rated items, ascending — the canonical summation order
  // (DESIGN.md §10). The row view includes ratings that landed since the
  // last flatten.
  const CsrRow rated = ratings_->UserCsrRow(u);
  if (rated.n == 0) return;
  // A candidate past the table (unknown, or interned after this model was
  // built) has no neighborhood and scores 0 (Algorithm 1, line 14).
  const int32_t num_rows = static_cast<int32_t>(neighborhoods_.size());
  auto in_table = [&](int32_t i) { return i >= 0 && i < num_rows; };

  if (opts_.top_k > 0) {
    // Gather: scatter the user's ratings once, then walk each candidate's
    // index-sorted row against them (CandItems = ItemNeighbors(i) ∩
    // UserItems(u), Algorithm 1 line 10) in ascending rated-item order.
    DenseScratch& scratch = TlsScratch();
    scratch.Reset(ratings_->NumItems());
    for (size_t k = 0; k < rated.n; ++k) {
      scratch.Set(rated.idx[k], rated.rating[k]);
    }
    for (size_t c = 0; c < items.size(); ++c) {
      if (!in_table(items[c])) continue;
      double num = 0, den = 0;
      for (const auto& nb : neighborhoods_[items[c]]) {
        double r;
        if (!scratch.Get(nb.idx, &r)) continue;
        num += static_cast<double>(nb.sim) * r;
        den += std::fabs(static_cast<double>(nb.sim));
      }
      out[c] = den == 0 ? 0 : num / den;
    }
    return;
  }

  // Transposed: the table is symmetric, so sim(i, j) sits in N(j) too.
  // Walking each rated j's row over the batch's index range adds j's term
  // to every candidate at once; each candidate's cell sees its terms in
  // ascending j, the gather order, so the result is the same bits for any
  // batch composition.
  int32_t lo = num_rows, hi = -1;
  for (int32_t i : items) {
    if (!in_table(i)) continue;
    lo = std::min(lo, i);
    hi = std::max(hi, i);
  }
  if (hi < 0) return;
  struct Acc {
    double num;
    double den;
  };
  thread_local std::vector<Acc> acc;
  acc.assign(static_cast<size_t>(hi - lo) + 1, Acc{0, 0});
  Acc* const base = acc.data();
  for (size_t k = 0; k < rated.n; ++k) {
    const int32_t j = rated.idx[k];
    if (j >= num_rows) continue;  // interned after the build: in no row
    const double r = rated.rating[k];
    const std::vector<Neighbor>& row = neighborhoods_[j];
    // The slice of N(j) inside [lo, hi], by binary search on both ends.
    auto first = std::lower_bound(
        row.begin(), row.end(), lo,
        [](const Neighbor& n, int32_t idx) { return n.idx < idx; });
    auto last = std::upper_bound(
        first, row.end(), hi,
        [](int32_t idx, const Neighbor& n) { return idx < n.idx; });
    for (auto it = first; it != last; ++it) {
      Acc& a = base[it->idx - lo];
      const double sim = it->sim;
      a.num += sim * r;
      a.den += std::fabs(sim);
    }
  }
  for (size_t c = 0; c < items.size(); ++c) {
    if (!in_table(items[c])) continue;
    const Acc& a = acc[items[c] - lo];
    out[c] = a.den == 0 ? 0 : a.num / a.den;
  }
}

double ItemCFModel::Similarity(int64_t item_a, int64_t item_b) const {
  auto a = ratings_->ItemIndex(item_a);
  auto b = ratings_->ItemIndex(item_b);
  if (!a || !b) return 0;
  return SimilarityLookup(neighborhoods_, *a, *b);
}

size_t ItemCFModel::ApproxBytes() const {
  return NeighborhoodBytes(neighborhoods_) +
         ratings_->CsrApproxBytes();
}

size_t ItemCFModel::NumNeighborEntries() const {
  return NeighborhoodEntries(neighborhoods_);
}

Result<ModelUpdate> ItemCFModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  ModelUpdate update;
  update.num_rows = ratings_->NumItems();
  if (ops.empty()) return update;
  const bool symmetric = opts_.top_k == 0;
  const std::vector<int32_t> changed = PrepareNeighborhoodUpdate(
      neighborhoods_, symmetric,
      symmetric ? OpRows(ops, &DeltaOp::item_idx)
                : TouchedItemRows(*ratings_, ops),
      [&](const std::vector<int32_t>& rows) {
        return RecomputeItemNeighborhoodRows(*ratings_, opts_, rows);
      },
      &update);
  update.stale_items.reserve(changed.size());
  for (int32_t idx : changed) {
    update.stale_items.push_back(ratings_->ItemIdAt(idx));
  }
  return update;
}

void ItemCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighborhoods_, std::move(update));
}

UserCFModel::UserCFModel(std::shared_ptr<const RatingMatrix> ratings,
                         bool centered, const SimilarityOptions& opts,
                         std::vector<std::vector<Neighbor>> neighborhoods)
    : RecModel(std::move(ratings)),
      centered_(centered),
      opts_(opts),
      neighborhoods_(std::move(neighborhoods)) {}

std::unique_ptr<UserCFModel> UserCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  SimilarityOptions o = opts;
  o.centered = centered;
  ratings->Freeze();
  auto neighborhoods = BuildUserNeighborhoods(*ratings, o);
  return std::unique_ptr<UserCFModel>(new UserCFModel(
      std::move(ratings), centered, o, std::move(neighborhoods)));
}

void UserCFModel::DoPredictBatch(int32_t u, std::span<const int32_t> items,
                                 std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  std::fill(out.begin(), out.end(), 0.0);
  // Unknown, or a user interned after this model was built: no
  // neighborhood yet.
  if (u < 0 || static_cast<size_t>(u) >= neighborhoods_.size()) return;
  const std::vector<Neighbor>& neighbors = neighborhoods_[u];
  const size_t num_items = ratings_->NumItems();
  if (num_items == 0) return;
  auto known = [&](int32_t i) {
    return i >= 0 && static_cast<size_t>(i) < num_items;
  };
  // Each candidate's sum runs over its raters in N(u) in ascending user
  // index; both kernels below add exactly those terms in that order (rows
  // come from the row view, so ratings since the last flatten count). Pick
  // the cheaper by average row length: the gather walks every candidate's
  // rater row, the scatter every neighbor's rated items plus the catalog.
  const double per_row =
      static_cast<double>(ratings_->NumRatings()) / num_items;
  const double per_user =
      static_cast<double>(ratings_->NumRatings()) / ratings_->NumUsers();
  const double gather_cost = static_cast<double>(items.size()) * (1 + per_row);
  const double scatter_cost =
      static_cast<double>(neighbors.size()) * per_user + num_items;

  if (scatter_cost < gather_cost) {
    // Scatter: N(u) is sorted by user index, so walking each neighbor's
    // rated items into catalog-wide num/den accumulators hands every cell
    // its terms in ascending rater index.
    struct Acc {
      double num;
      double den;
    };
    thread_local std::vector<Acc> acc;
    acc.assign(num_items, Acc{0, 0});
    for (const Neighbor& nb : neighbors) {
      const double sim = nb.sim;
      const CsrRow row = ratings_->UserCsrRow(nb.idx);
      for (size_t k = 0; k < row.n; ++k) {
        Acc& a = acc[row.idx[k]];
        a.num += sim * row.rating[k];
        a.den += std::fabs(sim);
      }
    }
    for (size_t c = 0; c < items.size(); ++c) {
      if (!known(items[c])) continue;
      const Acc& a = acc[items[c]];
      out[c] = a.den == 0 ? 0 : a.num / a.den;
    }
    return;
  }

  // Gather: scatter the neighbor sims once, then walk each candidate's
  // contiguous rater row (ascending user index) against them.
  DenseScratch& scratch = TlsScratch();
  scratch.Reset(ratings_->NumUsers());
  for (const Neighbor& nb : neighbors) {
    scratch.Set(nb.idx, static_cast<double>(nb.sim));
  }
  for (size_t c = 0; c < items.size(); ++c) {
    if (!known(items[c])) continue;
    double num = 0, den = 0;
    const CsrRow raters = ratings_->ItemCsrRow(items[c]);
    for (size_t k = 0; k < raters.n; ++k) {
      double sim;
      if (!scratch.Get(raters.idx[k], &sim)) continue;
      num += sim * raters.rating[k];
      den += std::fabs(sim);
    }
    out[c] = den == 0 ? 0 : num / den;
  }
}

double UserCFModel::Similarity(int64_t user_a, int64_t user_b) const {
  auto a = ratings_->UserIndex(user_a);
  auto b = ratings_->UserIndex(user_b);
  if (!a || !b) return 0;
  return SimilarityLookup(neighborhoods_, *a, *b);
}

size_t UserCFModel::ApproxBytes() const {
  return NeighborhoodBytes(neighborhoods_) +
         ratings_->CsrApproxBytes();
}

size_t UserCFModel::NumNeighborEntries() const {
  return NeighborhoodEntries(neighborhoods_);
}

Result<ModelUpdate> UserCFModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  ModelUpdate update;
  update.num_rows = ratings_->NumUsers();
  if (ops.empty()) return update;
  const bool symmetric = opts_.top_k == 0;
  const std::vector<int32_t> changed = PrepareNeighborhoodUpdate(
      neighborhoods_, symmetric,
      symmetric ? OpRows(ops, &DeltaOp::user_idx)
                : TouchedUserRows(*ratings_, ops),
      [&](const std::vector<int32_t>& rows) {
        return RecomputeUserNeighborhoodRows(*ratings_, opts_, rows);
      },
      &update);
  update.stale_users.reserve(changed.size());
  for (int32_t idx : changed) {
    update.stale_users.push_back(ratings_->UserIdAt(idx));
  }
  return update;
}

void UserCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighborhoods_, std::move(update));
}

}  // namespace recdb
