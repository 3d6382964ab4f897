#include "execution/recommend_executors.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <mutex>
#include <span>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

namespace {

/// Tuple shaped like the ratings table: user id, item id and score at their
/// column positions, NULL for any other ratings-table column.
Tuple MakeRecTuple(const ExecSchema& schema, size_t user_idx, size_t item_idx,
                   size_t rating_idx, int64_t user_id, int64_t item_id,
                   double score) {
  std::vector<Value> vals(schema.NumColumns(), Value::Null());
  vals[user_idx] = Value::Int(user_id);
  vals[item_idx] = Value::Int(item_id);
  vals[rating_idx] = Value::Double(score);
  return Tuple(std::move(vals));
}

/// The users an executor serves, in ascending id — the one user order of
/// every RECOMMEND stream (DESIGN.md §14): the pushed-down ids (`pushed`,
/// already sorted by the optimizer; null = every user in the snapshot, in
/// the matrix's id order) that the model knows and, on a sharded engine,
/// that this shard owns. Filtering preserves relative order, so a shard's
/// emission stays a subsequence of the single-node stream.
std::vector<int64_t> ServedUsers(const RatingMatrix& snapshot,
                                 const std::vector<int64_t>* pushed,
                                 const ExecContext& ctx) {
  std::vector<int64_t> out;
  if (pushed == nullptr) {
    out.reserve(snapshot.NumUsers());
    for (int32_t u : snapshot.UsersById()) out.push_back(snapshot.UserIdAt(u));
  } else {
    out.reserve(pushed->size());
    for (int64_t id : *pushed) {
      if (snapshot.UserIndex(id).has_value()) out.push_back(id);
    }
  }
  if (ctx.ShardFilterActive()) {
    std::erase_if(out, [&](int64_t u) { return !ctx.OwnsUser(u); });
  }
  return out;
}

/// The grid's items, as indices, in ascending id — the one item order of
/// every RECOMMEND stream (DESIGN.md §14): the whole catalog in the
/// matrix's id order when nothing is pushed down, else the pushed-down ids
/// (already sorted by the optimizer) that the model knows.
void ResolveItems(const RatingMatrix& snapshot,
                  const std::optional<std::vector<int64_t>>& pushed,
                  ScoreGrid* g) {
  g->items.clear();
  if (!pushed.has_value()) {
    g->items = snapshot.ItemsById();
    return;
  }
  g->items.reserve(pushed->size());
  for (int64_t id : *pushed) {
    if (auto idx = snapshot.ItemIndex(id)) g->items.push_back(*idx);
  }
}

/// Dense index of a served user (ServedUsers keeps only known ones; an
/// unknown id reads as -1, which every row view and kernel treats as empty).
int32_t UserIdx(const RatingMatrix& snapshot, int64_t user_id) {
  return snapshot.UserIndex(user_id).value_or(-1);
}

/// Below this many candidate pairs a parallel fan-out costs more than it
/// saves; stay on the streaming serial path.
constexpr size_t kMinPairsForParallel = 256;

/// Score user `u` over `items` (item indices): rated items keep their
/// stored rating (and set the rated flag), the rest go through one
/// PredictBatchByIndex.
void ScoreUserRange(const RecModel* model, int32_t u,
                    std::span<const int32_t> items, UserRowScores* out) {
  const RatingMatrix& snapshot = model->ratings();
  const size_t n = items.size();
  out->score.assign(n, 0.0);
  out->rated.assign(n, 0);
  out->predicted = 0;
  out->batches = 0;
  if (n == 0) return;
  // Algorithm 1 line 8: a rated item carries its stored rating.
  for (size_t k = 0; k < n; ++k) {
    if (auto rated = snapshot.GetByIndex(u, items[k])) {
      out->score[k] = *rated;
      out->rated[k] = 1;
    }
  }
  std::vector<int32_t> cand;
  std::vector<size_t> cand_pos;
  cand.reserve(n);
  cand_pos.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    if (out->rated[k]) continue;
    cand.push_back(items[k]);
    cand_pos.push_back(k);
  }
  if (cand.empty()) return;
  std::vector<double> pred(cand.size(), 0.0);
  model->PredictBatchByIndex(u, cand, pred);
  for (size_t k = 0; k < cand.size(); ++k) out->score[cand_pos[k]] = pred[k];
  out->predicted = cand.size();
  out->batches = 1;
}

/// Raise a shared threshold to at least `t` (monotone CAS-max).
void RaiseThreshold(std::atomic<double>* shared, double t) {
  double cur = shared->load(std::memory_order_relaxed);
  while (cur < t && !shared->compare_exchange_weak(
                        cur, t, std::memory_order_relaxed)) {
  }
}

// ------------------------------------------------- the one scoring driver
//
// Both RECOMMEND drivers below walk a ScoreGrid. `make_row(user, item,
// score)` builds the emitted tuple from a user position, an item position
// and the score; in the buffered mode it runs on scheduler workers.

/// Reset the grid's cursors and fix its unit layout: the grid fans out once
/// it is large enough to spread over the scheduler, and a serial or small
/// grid streams row by row instead.
void LayOutUnits(ScoreGrid* g) {
  g->user_pos = 0;
  g->item_pos = 0;
  g->row_ready = false;
  g->buffered = false;
  g->buffer.clear();
  g->buffer_pos = 0;
  const size_t users = g->users.size();
  const size_t threads = TaskScheduler::Global().num_threads();
  g->fan_out =
      threads > 1 && users * g->items.size() >= kMinPairsForParallel;
  // When the users alone cannot occupy every worker, each user's items are
  // cut into slices so that even a single-user query spreads over the pool.
  g->splits =
      g->fan_out && users < threads ? (threads + users - 1) / users : 1;
  // Morsel size balances claim overhead against tail imbalance; correctness
  // does not depend on it.
  g->morsel = std::clamp<size_t>(users * g->splits / (threads * 4), 1, 1024);
}

/// One unit of scoring work: the slice [begin, end) of the grid's items for
/// the user at position `user`.
struct Unit {
  size_t user;
  size_t begin;
  size_t end;
};

Unit UnitAt(const ScoreGrid& g, size_t unit) {
  const size_t n = g.items.size();
  if (g.splits == 1) return {unit, 0, n};  // no divisions on the common path
  const size_t slice = unit % g.splits;
  return {unit / g.splits, slice * n / g.splits, (slice + 1) * n / g.splits};
}

/// Runs `body` over contiguous ranges of the grid's units (users x splits of
/// them, in user-major order) — morsel-parallel when the grid fans out,
/// else as one inline range — folding each range's ExecStats once and
/// accounting tasks_spawned / worker_time_ms once.
void ForEachUnitRange(
    const ScoreGrid& g, ExecContext* ctx,
    const std::function<void(size_t, size_t, ExecStats*)>& body) {
  const size_t units = g.users.size() * g.splits;
  std::mutex fold_mu;
  ExecStats folded;
  auto run = [&](size_t begin, size_t end) {
    ExecStats local;
    body(begin, end, &local);
    std::lock_guard<std::mutex> lock(fold_mu);
    folded += local;
  };
  if (g.fan_out) {
    TaskRunStats run_stats =
        TaskScheduler::Global().ParallelFor(units, g.morsel, run);
    ctx->stats.tasks_spawned += run_stats.tasks_spawned;
    ctx->stats.worker_time_ms += run_stats.worker_time_ms;
  } else {
    run(0, units);
  }
  ctx->stats += folded;
}

/// Exact, parallel: each unit batch-scores its item slice into the morsel's
/// tuple slot; slots are concatenated in unit order, which is the serial
/// emission order. Leaves the grid in buffered mode.
template <typename MakeRow>
void ScoreExact(ScoreGrid* g, const RecModel* model, bool include_rated,
                ExecContext* ctx, const MakeRow& make_row) {
  const RatingMatrix& snapshot = model->ratings();
  std::vector<std::vector<Tuple>> slots(
      (g->users.size() * g->splits + g->morsel - 1) / g->morsel);
  ForEachUnitRange(*g, ctx, [&](size_t begin, size_t end, ExecStats* stats) {
    std::vector<Tuple>& out = slots[begin / g->morsel];
    UserRowScores row;
    for (size_t unit = begin; unit < end; ++unit) {
      const Unit w = UnitAt(*g, unit);
      ScoreUserRange(model, UserIdx(snapshot, g->users[w.user]),
                     std::span<const int32_t>(g->items).subspan(
                         w.begin, w.end - w.begin),
                     &row);
      stats->predictions += row.predicted;
      stats->predict_batches += row.batches;
      for (size_t i = 0; i < w.end - w.begin; ++i) {
        if (row.rated[i] && !include_rated) continue;  // unseen only
        out.push_back(make_row(w.user, w.begin + i, row.score[i]));
      }
    }
  });
  size_t total = 0;
  for (const auto& s : slots) total += s.size();
  g->buffer.reserve(total);
  for (auto& s : slots) {
    for (auto& t : s) g->buffer.push_back(std::move(t));
  }
  g->buffered = true;
}

/// The grid's next row: drained from the buffer, or — serially — streamed
/// out of one batch-scored row per user.
template <typename MakeRow>
std::optional<Tuple> NextScored(ScoreGrid* g, const RecModel* model,
                                bool include_rated, ExecContext* ctx,
                                const MakeRow& make_row) {
  if (g->buffered) {
    if (g->buffer_pos >= g->buffer.size()) return std::nullopt;
    return std::move(g->buffer[g->buffer_pos++]);
  }
  while (g->user_pos < g->users.size()) {
    if (!g->row_ready) {
      ScoreUserRange(model, UserIdx(model->ratings(), g->users[g->user_pos]),
                     g->items, &g->row);
      ctx->stats.predictions += g->row.predicted;
      ctx->stats.predict_batches += g->row.batches;
      g->row_ready = true;
      g->item_pos = 0;
    }
    while (g->item_pos < g->items.size()) {
      const size_t k = g->item_pos++;
      if (g->row.rated[k] && !include_rated) continue;  // unseen only
      return make_row(g->user_pos, k, g->row.score[k]);
    }
    ++g->user_pos;
    g->row_ready = false;
  }
  return std::nullopt;
}

}  // namespace

// ------------------------------------------------------------ PruneEngine

PruneEngine::PruneEngine(const RecModel* model, const RatingMatrix& snapshot,
                         const CandidateIndex* bounds)
    : model_(model),
      snapshot_(snapshot),
      bounds_(bounds),
      num_items_(snapshot.NumItems()) {
  // Dense selection needs no scratch.
  if (bounds_ != nullptr) rated_stamp_.assign(num_items_, 0);
}

void PruneEngine::StampRated(int32_t u) {
  // The row view reads the live row, so ratings written since the last
  // flatten count as rated too.
  const CsrRow rated = snapshot_.UserCsrRow(u);
  for (size_t k = 0; k < rated.n; ++k) {
    const int32_t i = rated.idx[k];
    if (static_cast<size_t>(i) < num_items_) rated_stamp_[i] = epoch_;
  }
}

double PruneEngine::PaddedBound(double scale_u, double offset_u,
                                double max_scale, double max_offset) const {
  const double core = scale_u * max_scale + offset_u + max_offset;
  const double pad =
      bounds_->bounds().slack * (std::fabs(scale_u * max_scale) +
                                 std::fabs(offset_u) + std::fabs(max_offset));
  return core + pad + 1e-12;
}

void PruneEngine::ScoreBatch(int32_t u, const std::vector<int32_t>& items,
                             TopKPruner* pruner) {
  if (items.empty()) return;
  batch_pred_.resize(items.size());
  model_->PredictBatchByIndex(u, items, batch_pred_);
  // A score below the running threshold cannot enter the heap, so it is
  // rejected before the id lookups. An equal score can still win on the id
  // position, so it is offered (DESIGN.md §13).
  for (size_t k = 0; k < items.size(); ++k) {
    if (batch_pred_[k] < pruner->Threshold()) continue;
    pruner->Offer(batch_pred_[k], snapshot_.ItemIdPos(items[k]),
                  snapshot_.ItemIdAt(items[k]));
  }
  stats.predictions += items.size();
  ++stats.predict_batches;
}

void PruneEngine::ZeroMerge(size_t swept, TopKPruner* pruner) {
  // Every offer carries the same score and a rising rank (the id
  // position), so the first rejection ends the merge.
  const std::vector<int32_t>& by_id = snapshot_.ItemsById();
  for (size_t p = 0; p < by_id.size(); ++p) {
    const int32_t c = by_id[p];
    if (!InRange(c)) continue;
    const int64_t rank = static_cast<int64_t>(p);
    if (!pruner->WouldAccept(0.0, rank)) return;
    if (static_cast<size_t>(c) >= swept && !Rated(c)) {
      pruner->Offer(0.0, rank, snapshot_.ItemIdAt(c));
    }
  }
}

size_t PruneEngine::InRangeCount(const CandidateIndex::Block& B) const {
  if (range_begin_ == 0 && range_end_ == num_items_) return B.end - B.begin;
  size_t n = 0;
  for (uint32_t p = B.begin; p < B.end; ++p) {
    n += InRange(bounds_->order()[p]);
  }
  return n;
}

std::vector<TopKPruner::Entry> PruneEngine::UserTopK(int64_t user_id,
                                                     size_t k, double floor,
                                                     size_t begin,
                                                     size_t end) {
  TopKPruner pruner(k, floor);
  range_begin_ = std::min(begin, num_items_);
  range_end_ = std::clamp(end, range_begin_, num_items_);
  auto uopt = snapshot_.UserIndex(user_id);
  if (!uopt.has_value()) return {};
  const int32_t u = *uopt;
  if (bounds_ != nullptr) {
    SweepBounds(u, &pruner);
    return pruner.DrainBestFirst();
  }
  // Dense selection: every unrated item in range, in one batch.
  batch_items_.clear();
  snapshot_.UnseenItems(u, range_begin_, range_end_, &batch_items_);
  ScoreBatch(u, batch_items_, &pruner);
  return pruner.DrainBestFirst();
}

void PruneEngine::SweepBounds(int32_t u, TopKPruner* pruner) {
  const PruneBoundTable& bt = bounds_->bounds();
  const bool has_offset = !bt.item_offset.empty();
  ++epoch_;
  StampRated(u);

  // All-zero users (no factor row): every prediction is exactly 0.0, so
  // the whole catalog goes through the zero-merge.
  bool pure_zero = model_->PruneUserAllZero(u);
  double scale_u = 0, offset_u = 0;
  if (!pure_zero) {
    scale_u = model_->PruneUserScale(u);
    offset_u = model_->PruneUserOffset(u);
    if (scale_u == 0.0 && offset_u == 0.0 && !has_offset) pure_zero = true;
  }
  if (pure_zero) {
    ZeroMerge(0, pruner);
    return;
  }

  // Sweep the bound blocks in descending static-bound order, batch-scoring
  // the unrated items of each surviving block.
  const std::vector<CandidateIndex::Block>& blocks = bounds_->blocks();
  const std::vector<int32_t>& order = bounds_->order();
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const CandidateIndex::Block& B = blocks[bi];
    if (pruner->CanSkip(PaddedBound(scale_u, offset_u, B.suffix_scale,
                                    B.suffix_offset))) {
      // No later block can beat the threshold either.
      for (size_t b2 = bi; b2 < blocks.size(); ++b2) {
        stats.items_pruned += InRangeCount(blocks[b2]);
        ++stats.blocks_skipped;
      }
      break;
    }
    if (pruner->CanSkip(
            PaddedBound(scale_u, offset_u, B.max_scale, B.max_offset))) {
      stats.items_pruned += InRangeCount(B);
      ++stats.blocks_skipped;
      continue;
    }
    batch_items_.clear();
    for (uint32_t p = B.begin; p < B.end; ++p) {
      const int32_t c = order[p];
      if (InRange(c) && !Rated(c)) batch_items_.push_back(c);
    }
    ScoreBatch(u, batch_items_, pruner);
  }
  ZeroMerge(bounds_->bound_table_size(), pruner);
}

void PruneEngine::FlushStats(ExecStats* out) {
  *out += stats;
  stats = ExecStats{};
}

// -------------------------------------------------- Recommend / FilterRec

Tuple RecommendExecutor::RecTuple(int64_t user_id, int64_t item_id,
                                  double score) const {
  return MakeRecTuple(plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
                      plan_.rating_col_idx, user_id, item_id, score);
}

Status RecommendExecutor::InitImpl() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  grid_.users = ServedUsers(
      snapshot, plan_.user_ids.has_value() ? &*plan_.user_ids : nullptr,
      *ctx_);
  ResolveItems(snapshot, plan_.item_ids, &grid_);
  LayOutUnits(&grid_);
  // Buffered modes: the bounded Top-k under the optimizer's preconditions
  // (no item pushdown, so the grid is the whole catalog; unseen-only
  // emission), for every model, and exact scoring once the grid fans out.
  // Anything else streams row by row from NextImpl.
  if (plan_.prune && plan_.prune_limit > 0 && !plan_.include_rated &&
      !plan_.item_ids.has_value()) {
    ScoreTopK();
  } else if (grid_.fan_out) {
    ScoreExact(&grid_, model, plan_.include_rated, ctx_,
               [&](size_t u, size_t i, double score) {
                 return RecTuple(grid_.users[u],
                                 snapshot.ItemIdAt(grid_.items[i]), score);
               });
  }
  return Status::OK();
}

void RecommendExecutor::ScoreTopK() {
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  // The model's bound index, or null (CF): each unit then selects densely.
  const std::shared_ptr<const CandidateIndex> bounds =
      plan_.rec->candidate_index();
  const size_t k = plan_.prune_limit;
  obs::Count(obs::Counter::kPruneTopkQueries);
  Stopwatch watch;
  // One global Top-k over the exact path's order: score desc, then arrival
  // — user position, then item position, which is the item's id position
  // since the grid lists the whole catalog in id order. Both positions
  // fold into one rank (user position * catalog size + id position), so
  // the bounded heap, its tie-break and its threshold are TopKPruner's
  // own. A unit's slice [begin, end) is walked as an item-index range: the
  // slices still partition the catalog, and the kernels stay in index
  // space.
  const int64_t stride = static_cast<int64_t>(snapshot.NumItems());
  // The highest k-th score any morsel's full heap has reached. At least k
  // real tuples score >= it, so a tuple scoring below it can never make the
  // global top-k; one scoring exactly it still may (on the arrival
  // tie-break), so it is a floor that keeps ties. Relaxed ordering: it is
  // a pruning hint and publishes no other data.
  std::atomic<double> shared_floor{-std::numeric_limits<double>::infinity()};
  std::mutex merge_mu;
  TopKPruner global(k);
  ForEachUnitRange(grid_, ctx_, [&](size_t begin, size_t end,
                                    ExecStats* stats) {
    PruneEngine engine(model, snapshot, bounds.get());
    TopKPruner local(k);
    for (size_t unit = begin; unit < end; ++unit) {
      const Unit w = UnitAt(grid_, unit);
      const double floor = std::max(
          local.Threshold(), shared_floor.load(std::memory_order_relaxed));
      const int64_t base = static_cast<int64_t>(w.user) * stride;
      for (const TopKPruner::Entry& e :
           engine.UserTopK(grid_.users[w.user], k, floor, w.begin, w.end)) {
        local.Offer(e.score, base + e.rank, e.item_id);
      }
      if (local.full()) RaiseThreshold(&shared_floor, local.Threshold());
    }
    engine.FlushStats(stats);
    std::lock_guard<std::mutex> lock(merge_mu);
    for (const TopKPruner::Entry& e : local.DrainBestFirst()) {
      global.Offer(e.score, e.rank, e.item_id);
    }
  });
  // Emit the <= k survivors in arrival order (user position, then item
  // position): an order-preserving subsequence of the exact stream, so the
  // parent TopN's arrival tie-break picks the same rows in the same order.
  std::vector<TopKPruner::Entry> survivors = global.DrainBestFirst();
  std::sort(survivors.begin(), survivors.end(),
            [](const TopKPruner::Entry& a, const TopKPruner::Entry& b) {
              return a.rank < b.rank;
            });
  grid_.buffer.reserve(survivors.size());
  for (const TopKPruner::Entry& e : survivors) {
    grid_.buffer.push_back(
        RecTuple(grid_.users[e.rank / stride], e.item_id, e.score));
  }
  grid_.buffered = true;
  obs::ObserveUs(obs::Histogram::kPruneGenUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
}

Result<std::optional<Tuple>> RecommendExecutor::NextImpl() {
  const RecModel* model = plan_.rec->model();
  return NextScored(&grid_, model, plan_.include_rated, ctx_,
                    [&](size_t u, size_t i, double score) {
                      return RecTuple(grid_.users[u],
                                      model->ratings().ItemIdAt(grid_.items[i]),
                                      score);
                    });
}

// -------------------------------------------------------- JoinRecommend

Status JoinRecommendExecutor::InitImpl() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  RECDB_RETURN_NOT_OK(outer_->Init());
  grid_.users =
      ServedUsers(plan_.rec->model()->ratings(), &plan_.user_ids, *ctx_);
  grid_.items.clear();
  outer_rows_.clear();
  drained_ = false;
  return Status::OK();
}

Status JoinRecommendExecutor::DrainOuter() {
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  // Probes are committed only once the drain completes, so an outer error
  // leaves no half-counted drain behind for a re-Init re-run sharing this
  // ExecContext to double-count.
  std::vector<Tuple> rows;
  std::vector<int32_t> items;
  uint64_t probes = 0;
  while (true) {
    auto next = outer_->Next();
    if (!next.ok()) return next.status();
    if (!next.value().has_value()) break;
    ++probes;
    // A NULL, non-INT or unknown item id scores nothing and emits nothing.
    const Value& item_val = next.value()->At(plan_.outer_item_col);
    if (item_val.is_null() || item_val.type() != TypeId::kInt64) continue;
    const std::optional<int32_t> item = snapshot.ItemIndex(item_val.AsInt());
    if (!item.has_value()) continue;
    items.push_back(*item);
    rows.push_back(std::move(*next.value()));
  }
  ctx_->stats.join_probes += probes;
  grid_.items = std::move(items);
  outer_rows_ = std::move(rows);
  return Status::OK();
}

Result<std::optional<Tuple>> JoinRecommendExecutor::NextImpl() {
  // 〈recommend columns〉 ++ 〈outer tuple〉 (paper: tup concatenated).
  const RecModel* model = plan_.rec->model();
  auto make_row = [&](size_t u, size_t i, double score) {
    Tuple out = MakeRecTuple(
        plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
        plan_.rating_col_idx, grid_.users[u],
        model->ratings().ItemIdAt(grid_.items[i]), score);
    const Tuple& outer = outer_rows_[i];
    const size_t outer_start = plan_.schema.NumColumns() - outer.NumValues();
    for (size_t c = 0; c < outer.NumValues(); ++c) {
      out.values()[outer_start + c] = outer.At(c);
    }
    return out;
  };
  if (!drained_) {
    RECDB_RETURN_NOT_OK(DrainOuter());
    drained_ = true;
    LayOutUnits(&grid_);
    if (grid_.fan_out) {
      ScoreExact(&grid_, model, plan_.include_rated, ctx_, make_row);
    }
  }
  return NextScored(&grid_, model, plan_.include_rated, ctx_, make_row);
}

// ------------------------------------------------------- IndexRecommend

IndexRecommendExecutor::~IndexRecommendExecutor() = default;

Status IndexRecommendExecutor::InitImpl() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  // Index-served users partition exactly like model-scored ones: only the
  // owner shard materializes and serves them.
  users_ = ServedUsers(
      snapshot, plan_.user_ids.empty() ? nullptr : &plan_.user_ids, *ctx_);
  user_pos_ = 0;
  current_.clear();
  current_pos_ = 0;
  loaded_ = false;
  // Bounded fallback: needs a per-user cap (the threshold's k) and the
  // full catalog (an item pushdown already bounds the miss scan).
  prune_active_ = plan_.prune && plan_.per_user_limit > 0 &&
                  !plan_.item_ids.has_value();
  engine_.reset();
  if (prune_active_) cindex_ = plan_.rec->candidate_index();
  // Hash the pushed-down item ids once (the per-candidate std::find was
  // O(|items|^2) across a user's scan) and keep a deduplicated list of the
  // indices of the ones the model knows, so a duplicated IN-list entry
  // cannot emit the same tuple twice on the cache-miss path.
  item_filter_.reset();
  item_list_.clear();
  if (plan_.item_ids.has_value()) {
    item_filter_.emplace();
    item_filter_->reserve(plan_.item_ids->size());
    for (int64_t id : *plan_.item_ids) {
      if (!item_filter_->insert(id).second) continue;
      if (auto idx = snapshot.ItemIndex(id)) item_list_.push_back(*idx);
    }
  } else if (!prune_active_) {
    item_list_ = snapshot.ItemsById();
  }
  return Status::OK();
}

Status IndexRecommendExecutor::LoadCurrentUser() {
  current_.clear();
  current_pos_ = 0;
  loaded_ = true;
  int64_t user_id = users_[user_pos_];
  const RecScoreIndex& index = *plan_.rec->score_index();

  auto item_ok = [&](int64_t item) {
    return !item_filter_.has_value() || item_filter_->count(item) > 0;
  };

  if (index.HasUser(user_id)) {
    // Phase II/III of Algorithm 3: walk the user's RecTree best-first,
    // stopping at the rating bound; filter items; cap at the limit.
    ++ctx_->stats.index_hits;
    obs::Count(obs::Counter::kRecIndexUserHits);
    index.Scan(user_id, plan_.min_score, [&](int64_t item, double score) {
      if (item_ok(item)) current_.emplace_back(item, score);
      return plan_.per_user_limit == 0 ||
             current_.size() < plan_.per_user_limit;
    });
    return Status::OK();
  }

  // Cache miss: fall back to the model — collect the user's unseen
  // candidates, score them in one batch, then sort and cap.
  ++ctx_->stats.index_misses;
  obs::Count(obs::Counter::kRecIndexUserMisses);
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  if (prune_active_) {
    // Bounded miss: exact top-per_user_limit under the fallback's (score
    // desc, id asc) order with min_score as the pruner floor — identical to
    // scoring the full catalog, filtering and capping.
    if (engine_ == nullptr) {
      obs::Count(obs::Counter::kPruneTopkQueries);
      engine_ = std::make_unique<PruneEngine>(model, snapshot, cindex_.get());
    }
    auto entries =
        engine_->UserTopK(user_id, plan_.per_user_limit, plan_.min_score);
    current_.reserve(entries.size());
    for (const TopKPruner::Entry& e : entries) {
      current_.emplace_back(e.item_id, e.score);
    }
    engine_->FlushStats(&ctx_->stats);
    return Status::OK();
  }
  UserRowScores row;
  ScoreUserRange(model, UserIdx(snapshot, user_id), item_list_, &row);
  ctx_->stats.predictions += row.predicted;
  ctx_->stats.predict_batches += row.batches;
  for (size_t k = 0; k < item_list_.size(); ++k) {
    if (!row.rated[k] && row.score[k] >= plan_.min_score) {  // unseen only
      current_.emplace_back(snapshot.ItemIdAt(item_list_[k]), row.score[k]);
    }
  }
  std::sort(current_.begin(), current_.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (plan_.per_user_limit > 0 && current_.size() > plan_.per_user_limit) {
    current_.resize(plan_.per_user_limit);
  }
  return Status::OK();
}

Result<std::optional<Tuple>> IndexRecommendExecutor::NextImpl() {
  while (user_pos_ < users_.size()) {
    if (!loaded_) {
      RECDB_RETURN_NOT_OK(LoadCurrentUser());
    }
    if (current_pos_ < current_.size()) {
      const auto& [item, score] = current_[current_pos_++];
      return std::make_optional(
          MakeRecTuple(plan_.schema, plan_.user_col_idx, plan_.item_col_idx,
                       plan_.rating_col_idx, users_[user_pos_], item, score));
    }
    ++user_pos_;
    loaded_ = false;
  }
  return std::optional<Tuple>{};
}

}  // namespace recdb
