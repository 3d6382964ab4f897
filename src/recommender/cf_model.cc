#include "recommender/cf_model.h"

#include <algorithm>
#include <cmath>

#include "recommender/cf_kernel.h"

namespace recdb {

namespace {

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

/// Rows a delta op set can reach in a truncated table, where a row's kept
/// neighbors can change whenever any sim in it moves: for each op, its
/// row's entity e itself, every entity sharing a dimension with e (e's
/// norm — and for Pearson its mean — changed, which moves sim(e, f) for
/// every pair with nonzero dot), and every entity of the op's dimension d
/// (their dot with e gained or lost d; after a remove d may no longer
/// appear in e's merged vector, so d is unioned in explicitly). For ItemCF
/// e is the op's item and d its user; UserCF mirrors that. Computed on the
/// merged matrix; an over-approximation is always safe, a miss never is.
std::vector<int32_t> TouchedRows(const SideView& side,
                                 const std::vector<DeltaOp>& ops) {
  std::vector<char> touched(side.num_rows(), 0);
  std::vector<char> dim_done(side.num_dims(), 0);
  auto mark_rows_of = [&](int32_t d) {
    if (d < 0 || static_cast<size_t>(d) >= dim_done.size() || dim_done[d]) {
      return;
    }
    dim_done[d] = 1;
    const CsrRow row = side.Dimension(d);
    for (size_t k = 0; k < row.n; ++k) touched[row.idx[k]] = 1;
  };
  for (const auto& op : ops) {
    const int32_t e = side.RowOf(op);
    if (e >= 0 && static_cast<size_t>(e) < touched.size()) {
      touched[e] = 1;
      const CsrRow vec = side.Vector(e);
      for (size_t k = 0; k < vec.n; ++k) mark_rows_of(vec.idx[k]);
    }
    mark_rows_of(side.DimOf(op));
  }
  std::vector<int32_t> rows;
  for (size_t e = 0; e < touched.size(); ++e) {
    if (touched[e]) rows.push_back(static_cast<int32_t>(e));
  }
  return rows;
}

/// The distinct rows that `ops` wrote, ascending: the rows an untruncated
/// refresh recomputes.
std::vector<int32_t> OpRows(const SideView& side,
                            const std::vector<DeltaOp>& ops) {
  std::vector<int32_t> rows;
  rows.reserve(ops.size());
  for (const auto& op : ops) rows.push_back(side.RowOf(op));
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

/// The mirror half of an untruncated refresh. The table is symmetric
/// (similarity.h), so update->rows are the op entities' fresh rows, and
/// each fresh row p is mirrored into every row its old or fresh row names
/// with a changed entry — rows recomputed here are already exact and are
/// not mirrored into. The mirrored rows each get a stripe of their new
/// entries for the fresh rows (ModelUpdate::mirror_cells). Returns the rows
/// the update changes, ascending.
std::vector<int32_t> MirrorFreshRows(const std::vector<NeighborRow>& table,
                                     ModelUpdate* update) {
  std::vector<int32_t> changed;
  // slot[q]: q's stripe once the mirrored rows are numbered.
  constexpr int32_t kNone = -1, kFresh = -2, kMirrored = -3;
  std::vector<int32_t> slot(update->num_rows, kNone);
  for (const auto& [p, row] : update->rows) slot[p] = kFresh;
  const NeighborRow none;
  for (const auto& [p, fresh] : update->rows) {
    const NeighborRow& old =
        static_cast<size_t>(p) < table.size() ? table[p] : none;
    // Both rows iterate in ascending index: one merge pass finds every
    // neighbor whose entry for p is set, inserted or erased.
    auto a = old.begin(), b = fresh.begin();
    const auto a_end = old.end(), b_end = fresh.end();
    while (a != a_end || b != b_end) {
      int32_t q;
      if (b == b_end || (a != a_end && (*a).idx < (*b).idx)) {
        q = (*a++).idx;
      } else if (a == a_end || (*b).idx < (*a).idx) {
        q = (*b++).idx;
      } else {
        q = (*b).idx;
        if ((*a++).sim == (*b++).sim) continue;
      }
      if (slot[q] == kNone) slot[q] = kMirrored;
    }
  }
  for (size_t q = 0; q < slot.size(); ++q) {
    if (slot[q] == kNone) continue;
    changed.push_back(static_cast<int32_t>(q));
    if (slot[q] == kFresh) continue;
    slot[q] = static_cast<int32_t>(update->mirror_rows.size());
    update->mirror_rows.push_back(static_cast<int32_t>(q));
  }
  // Transpose the fresh rows into the stripes: by symmetry, q's entry for
  // p is p's entry for q.
  const size_t width = update->rows.size();
  update->mirror_cells.assign(update->mirror_rows.size() * width, 0.0f);
  for (size_t k = 0; k < width; ++k) {
    for (const Neighbor nb : update->rows[k].second) {
      const int32_t s = slot[nb.idx];
      if (s >= 0) update->mirror_cells[s * width + k] = nb.sim;
    }
  }
  return changed;
}

/// The matrix a model is built over, frozen to flat CSR first.
std::shared_ptr<const RatingMatrix> Frozen(std::shared_ptr<RatingMatrix> m) {
  m->Freeze();
  return m;
}

}  // namespace

NeighborhoodModel::NeighborhoodModel(std::shared_ptr<RatingMatrix> ratings,
                                     CfSide side, bool centered,
                                     const SimilarityOptions& opts)
    : RecModel(Frozen(std::move(ratings))), side_(side), opts_(opts) {
  opts_.centered = centered;
  neighborhoods_ = BuildNeighborTable(*ratings_, side_, opts_);
}

double NeighborhoodModel::Similarity(int64_t a, int64_t b) const {
  const SideView side(*ratings_, side_);
  const auto pa = side.Index(a);
  const auto pb = side.Index(b);
  if (!pa || !pb || static_cast<size_t>(*pa) >= neighborhoods_.size()) {
    return 0;
  }
  return neighborhoods_[*pa].Find(*pb);
}

size_t NeighborhoodModel::ApproxBytes() const {
  size_t total = ratings_->CsrApproxBytes();
  for (const NeighborRow& row : neighborhoods_) total += row.ApproxBytes();
  return total;
}

size_t NeighborhoodModel::NumNeighborEntries() const {
  size_t total = 0;
  for (const NeighborRow& row : neighborhoods_) total += row.NumEntries();
  return total;
}

Result<ModelUpdate> NeighborhoodModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  const SideView side(*ratings_, side_);
  ModelUpdate update;
  update.num_rows = side.num_rows();
  if (ops.empty()) return update;
  // Untruncated, the op entities' rows are recomputed and mirrored; a
  // truncated table recomputes every row an op can reach and mirrors
  // nothing.
  const bool symmetric = opts_.top_k == 0;
  update.rows = BuildNeighborRows(
      *ratings_, side_, opts_,
      symmetric ? OpRows(side, ops) : TouchedRows(side, ops));
  std::vector<int32_t> changed;
  if (symmetric) {
    changed = MirrorFreshRows(neighborhoods_, &update);
  } else {
    for (const auto& [p, row] : update.rows) changed.push_back(p);
  }
  // The commit evicts the cached scores of the changed rows' entities.
  std::vector<int64_t>& stale =
      side_ == CfSide::kItem ? update.stale_items : update.stale_users;
  stale.reserve(changed.size());
  for (int32_t idx : changed) stale.push_back(side.IdAt(idx));
  return update;
}

/// Install the recomputed rows, growing the table for entities interned
/// since the model was built, then write each mirrored row's stripe into
/// it in one forward walk (caller holds the writer lock).
void NeighborhoodModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  if (update.num_rows > neighborhoods_.size()) {
    neighborhoods_.resize(update.num_rows);
  }
  std::vector<int32_t> fresh;
  fresh.reserve(update.rows.size());
  for (auto& [idx, row] : update.rows) {
    RECDB_DCHECK(idx >= 0 && static_cast<size_t>(idx) < neighborhoods_.size());
    neighborhoods_[idx] = std::move(row);
    fresh.push_back(idx);
  }
  const std::span<const float> cells = update.mirror_cells;
  for (size_t s = 0; s < update.mirror_rows.size(); ++s) {
    neighborhoods_[update.mirror_rows[s]].SetEntries(
        fresh, cells.subspan(s * fresh.size(), fresh.size()));
  }
  obs::Count(obs::Counter::kIngestRowUpdates, fresh.size());
}

std::unique_ptr<ItemCFModel> ItemCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  return std::unique_ptr<ItemCFModel>(
      new ItemCFModel(std::move(ratings), centered, opts));
}

std::unique_ptr<UserCFModel> UserCFModel::Build(
    std::shared_ptr<RatingMatrix> ratings, bool centered,
    const SimilarityOptions& opts) {
  return std::unique_ptr<UserCFModel>(
      new UserCFModel(std::move(ratings), centered, opts));
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
    // row entries against them (CandItems = ItemNeighbors(i) ∩
    // UserItems(u), Algorithm 1 line 10) in ascending rated-item order.
    DenseScratch& scratch = TlsScratch();
    scratch.Reset(ratings_->NumItems());
    for (size_t k = 0; k < rated.n; ++k) {
      scratch.Set(rated.idx[k], rated.rating[k]);
    }
    for (size_t c = 0; c < items.size(); ++c) {
      if (!in_table(items[c])) continue;
      double num = 0, den = 0;
      for (const Neighbor nb : neighborhoods_[items[c]]) {
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
  // Walking each rated j's runs over the batch's index range adds j's term
  // to every candidate at once; each candidate's cell sees its terms in
  // ascending j, the gather order, so the result is the same bits for any
  // batch composition. A bridged zero cell adds +0 to num and den, which
  // start at +0.0 and so never hold -0.0: no sum changes (DESIGN.md §10).
  // The walk (cf_kernel.h) fuses rated rows four at a time, in the widest
  // variant this CPU runs; every variant gives these bits.
  int32_t lo = num_rows, hi = -1;
  for (int32_t i : items) {
    if (!in_table(i)) continue;
    lo = std::min(lo, i);
    hi = std::max(hi, i);
  }
  if (hi < 0) return;
  thread_local std::vector<double> num_buf, den_buf;
  const size_t width = static_cast<size_t>(hi - lo) + 1;
  num_buf.assign(width, 0.0);
  den_buf.assign(width, 0.0);
  double* const num = num_buf.data();
  double* const den = den_buf.data();
  AccumulateRatedRows(SupportedKernelVariants().back(), neighborhoods_, rated,
                      lo, hi, num, den);
  for (size_t c = 0; c < items.size(); ++c) {
    if (!in_table(items[c])) continue;
    const size_t at = static_cast<size_t>(items[c] - lo);
    out[c] = den[at] == 0 ? 0 : num[at] / den[at];
  }
}

void UserCFModel::DoPredictBatch(int32_t u, std::span<const int32_t> items,
                                 std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  std::fill(out.begin(), out.end(), 0.0);
  // Unknown, or a user interned after this model was built: no
  // neighborhood yet.
  if (u < 0 || static_cast<size_t>(u) >= neighborhoods_.size()) return;
  const NeighborRow& neighbors = neighborhoods_[u];
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
      static_cast<double>(neighbors.num_cells()) * per_user + num_items;

  if (scatter_cost < gather_cost) {
    // Scatter: N(u) iterates in user index, so walking each neighbor's
    // rated items into catalog-wide num/den accumulators hands every cell
    // its terms in ascending rater index.
    struct Acc {
      double num;
      double den;
    };
    thread_local std::vector<Acc> acc;
    acc.assign(num_items, Acc{0, 0});
    for (const Neighbor nb : neighbors) {
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
  for (const Neighbor nb : neighbors) {
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

}  // namespace recdb
