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

/// sim(a, b) from a's sim-sorted row: a linear scan, since nothing on a
/// query path asks for one pair's similarity.
double SimilarityLookup(const std::vector<std::vector<Neighbor>>& nb,
                        int32_t a, int32_t b) {
  if (static_cast<size_t>(a) >= nb.size()) return 0;
  for (const Neighbor& n : nb[a]) {
    if (n.idx == b) return n.sim;
  }
  return 0;
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

/// Item rows a delta op set can reach: for each op (u, i) that is item i
/// itself, every item sharing a rater with i (i's norm — and for Pearson
/// its mean — changed, which moves sim(i, j) for every pair with nonzero
/// dot), and every item rated by u (their dot with i gained or lost the
/// shared dimension; after a remove u may no longer appear in i's merged
/// rater list, so u is unioned in explicitly). Computed on the merged
/// matrix; an over-approximation is always safe, a miss never is.
std::vector<int32_t> TouchedItemRows(const RatingMatrix& m,
                                     const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(m.NumItems(), 0);
  std::vector<char> user_done(m.NumUsers(), 0);
  auto mark_items_of = [&](int32_t v) {
    if (v < 0 || static_cast<size_t>(v) >= user_done.size() || user_done[v]) {
      return;
    }
    user_done[v] = 1;
    for (const auto& e : m.UserVector(v)) touched[e.idx] = 1;
  };
  for (const auto& op : ops) {
    if (op.item_idx >= 0 &&
        static_cast<size_t>(op.item_idx) < touched.size()) {
      touched[op.item_idx] = 1;
      for (const auto& e : m.ItemVector(op.item_idx)) mark_items_of(e.idx);
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
    for (const auto& e : m.ItemVector(j)) touched[e.idx] = 1;
  };
  for (const auto& op : ops) {
    if (op.user_idx >= 0 &&
        static_cast<size_t>(op.user_idx) < touched.size()) {
      touched[op.user_idx] = 1;
      for (const auto& e : m.UserVector(op.user_idx)) mark_raters_of(e.idx);
    }
    mark_raters_of(op.item_idx);
  }
  std::vector<int32_t> rows;
  for (size_t u = 0; u < touched.size(); ++u) {
    if (touched[u]) rows.push_back(static_cast<int32_t>(u));
  }
  return rows;
}

/// Install recomputed rows into the sim-sorted table, growing it for
/// entities interned since the model was built.
void InstallNeighborRows(std::vector<std::vector<Neighbor>>* nb,
                         ModelUpdate&& update) {
  if (update.num_rows > nb->size()) nb->resize(update.num_rows);
  size_t installed = 0;
  for (auto& [idx, row] : update.rows) {
    if (idx < 0 || static_cast<size_t>(idx) >= nb->size()) continue;
    (*nb)[idx] = std::move(row);
    ++installed;
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
  if (u < 0 || static_cast<size_t>(u) >= ratings_->NumUsers()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // Resolve the user once: scatter their rated items into a dense
  // accumulator, then gather per candidate. Addition order per candidate is
  // the candidate's neighborhood order — the same order the per-pair scalar
  // path always used, so results are bit-identical at any batch size.
  //
  // When the matrix has been updated since the model froze it, the CSR
  // snapshot is stale; fall back to the mutable row — same entries in the
  // same idx order, so the accumulation (and the result) is unchanged.
  DenseScratch& scratch = TlsScratch();
  scratch.Reset(ratings_->NumItems());
  size_t num_rated = 0;
  if (ratings_->frozen()) {
    const CsrRow rated = ratings_->UserCsrRow(u);
    for (size_t k = 0; k < rated.n; ++k) {
      scratch.Set(rated.idx[k], rated.rating[k]);
    }
    num_rated = rated.n;
  } else {
    const auto& rated = ratings_->UserVector(u);
    for (const auto& e : rated) scratch.Set(e.idx, e.rating);
    num_rated = rated.size();
  }
  for (size_t c = 0; c < items.size(); ++c) {
    const int32_t i = items[c];
    if (i < 0 || num_rated == 0 ||
        static_cast<size_t>(i) >= neighborhoods_.size()) {
      // Unknown candidate, nothing rated, or an item interned after this
      // model was built (no neighborhood yet).
      out[c] = 0;
      continue;
    }
    // CandItems = ItemNeighbors(i) ∩ UserItems(u)  (Algorithm 1, line 10).
    double num = 0, den = 0;
    for (const auto& nb : neighborhoods_[i]) {
      double r;
      if (!scratch.Get(nb.idx, &r)) continue;
      num += static_cast<double>(nb.sim) * r;
      den += std::fabs(static_cast<double>(nb.sim));
    }
    out[c] = den == 0 ? 0 : num / den;  // empty overlap -> 0 (line 14)
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
  std::vector<int32_t> rows = TouchedItemRows(*ratings_, ops);
  update.rows = RecomputeItemNeighborhoodRows(*ratings_, opts_, rows);
  update.stale_items.reserve(update.rows.size());
  for (const auto& [idx, row] : update.rows) {
    update.stale_items.push_back(ratings_->ItemIdAt(idx));
  }
  return update;
}

void ItemCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighborhoods_, std::move(update));
}

bool ItemCFModel::ComputePruneBounds(PruneBoundTable* out) const {
  out->item_scale.resize(neighborhoods_.size());
  for (size_t i = 0; i < neighborhoods_.size(); ++i) {
    out->item_scale[i] = neighborhoods_[i].empty() ? 0.0 : 1.0;
  }
  out->item_offset.clear();
  // The Eq. (2) ratio is exact in the reals; double rounding can nudge it
  // past max |r| by O(n·eps) relative, far below this padding.
  out->slack = 1e-9;
  out->candidate_generation = true;
  out->rating_dependent = false;
  // idx >= neighborhoods_ size has no neighborhood row: the kernel returns
  // exactly 0 for it.
  out->oob_must_score = false;
  return true;
}

double ItemCFModel::PruneUserScale(int32_t user_idx) const {
  // Live merge view: a delta op that raises the user's max rating raises
  // the bound with it.
  const CsrRow row = ratings_->UserCsrRow(user_idx);
  double max_abs = 0;
  for (size_t k = 0; k < row.n; ++k) {
    max_abs = std::max(max_abs, std::fabs(row.rating[k]));
  }
  return max_abs;
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
  // Symmetric to ItemCF: the user's neighbor similarities are scattered
  // once, then each candidate item's contiguous rater row is gathered.
  // Addition order per candidate is the item's rater order (user-idx
  // ascending) — fixed per candidate, so independent of batch composition.
  if (u < 0 || static_cast<size_t>(u) >= neighborhoods_.size()) {
    // Unknown, or a user interned after this model was built: no
    // neighborhood yet.
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const auto& neighbors = neighborhoods_[u];
  DenseScratch& scratch = TlsScratch();
  scratch.Reset(ratings_->NumUsers());
  for (const auto& nb : neighbors) {
    scratch.Set(nb.idx, static_cast<double>(nb.sim));
  }
  // As in ItemCF, an unfrozen matrix routes through the mutable rows; the
  // per-candidate accumulation order (user-idx ascending) is identical.
  const bool frozen = ratings_->frozen();
  const size_t num_items = ratings_->NumItems();
  for (size_t c = 0; c < items.size(); ++c) {
    const int32_t i = items[c];
    if (i < 0 || static_cast<size_t>(i) >= num_items) {
      out[c] = 0;
      continue;
    }
    double num = 0, den = 0;
    auto accumulate = [&](int32_t rater_idx, double rating) {
      double sim;
      if (!scratch.Get(rater_idx, &sim)) return;
      num += sim * rating;
      den += std::fabs(sim);
    };
    if (frozen) {
      const CsrRow raters = ratings_->ItemCsrRow(i);
      for (size_t k = 0; k < raters.n; ++k) {
        accumulate(raters.idx[k], raters.rating[k]);
      }
    } else {
      for (const auto& e : ratings_->ItemVector(i)) {
        accumulate(e.idx, e.rating);
      }
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
  std::vector<int32_t> rows = TouchedUserRows(*ratings_, ops);
  update.rows = RecomputeUserNeighborhoodRows(*ratings_, opts_, rows);
  update.stale_users.reserve(update.rows.size());
  for (const auto& [idx, row] : update.rows) {
    update.stale_users.push_back(ratings_->UserIdAt(idx));
  }
  return update;
}

void UserCFModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  InstallNeighborRows(&neighborhoods_, std::move(update));
}

bool UserCFModel::ComputePruneBounds(PruneBoundTable* out) const {
  // Computed at (re)build time, when base == merged (no delta yet); the
  // rating_dependent flag makes later delta-touched item rows re-score.
  const size_t n = ratings_->NumItems();
  out->item_scale.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const CsrRow row = ratings_->ItemCsrRow(static_cast<int32_t>(i));
    double max_abs = 0;
    for (size_t k = 0; k < row.n; ++k) {
      max_abs = std::max(max_abs, std::fabs(row.rating[k]));
    }
    out->item_scale[i] = max_abs;
  }
  out->item_offset.clear();
  out->slack = 1e-9;
  out->candidate_generation = true;
  out->rating_dependent = true;
  // An item interned after the table was built still scores through its
  // (delta-only) rater row: no bound exists, score it unconditionally.
  out->oob_must_score = true;
  return true;
}

double UserCFModel::PruneUserScale(int32_t user_idx) const {
  if (user_idx < 0 || static_cast<size_t>(user_idx) >= neighborhoods_.size()) {
    return 0.0;  // kernel zero-fills users interned after the build
  }
  return neighborhoods_[user_idx].empty() ? 0.0 : 1.0;
}

}  // namespace recdb
