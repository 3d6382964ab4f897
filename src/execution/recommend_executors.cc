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
/// already sorted by the optimizer; null = every user in the snapshot) that
/// the model knows and, on a sharded engine, that this shard owns. Filtering
/// preserves relative order, so a shard's emission stays a subsequence of
/// the single-node stream.
std::vector<int64_t> ServedUsers(const RatingMatrix& snapshot,
                                 const std::vector<int64_t>* pushed,
                                 const ExecContext& ctx) {
  std::vector<int64_t> out;
  if (pushed == nullptr) {
    // The matrix lists users in interning order; a canonical load interns
    // them sorted, so only users added later need the sort.
    out = snapshot.user_ids();
    if (!std::is_sorted(out.begin(), out.end())) {
      std::sort(out.begin(), out.end());
    }
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

std::vector<int64_t> ResolveItems(
    const RatingMatrix& snapshot,
    const std::optional<std::vector<int64_t>>& pushed) {
  if (!pushed.has_value()) return snapshot.item_ids();
  std::vector<int64_t> out;
  out.reserve(pushed->size());
  for (int64_t id : *pushed) {
    if (snapshot.ItemIndex(id).has_value()) out.push_back(id);
  }
  return out;
}

/// Below this many candidate pairs a parallel fan-out costs more than it
/// saves; stay on the streaming serial path.
constexpr size_t kMinPairsForParallel = 256;

/// Score one user over items[begin, end): rated items keep their stored
/// rating (and set the rated flag), the rest go through one PredictBatch.
void ScoreUserRange(const RecModel* model, const RatingMatrix& snapshot,
                    int64_t user_id, const std::vector<int64_t>& items,
                    size_t begin, size_t end, UserRowScores* out) {
  const size_t n = end - begin;
  out->score.assign(n, 0.0);
  out->rated.assign(n, 0);
  out->predicted = 0;
  out->batches = 0;
  std::vector<int64_t> cand;
  std::vector<size_t> cand_pos;
  cand.reserve(n);
  cand_pos.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    auto rated = snapshot.Get(user_id, items[begin + k]);
    if (rated.has_value()) {
      out->score[k] = *rated;  // Algorithm 1 line 8
      out->rated[k] = 1;
    } else {
      cand.push_back(items[begin + k]);
      cand_pos.push_back(k);
    }
  }
  if (cand.empty()) return;
  std::vector<double> pred(cand.size(), 0.0);
  model->PredictBatch(user_id, cand, pred);
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
      ScoreUserRange(model, snapshot, g->users[w.user], g->items, w.begin,
                     w.end, &row);
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
      ScoreUserRange(model, model->ratings(), g->users[g->user_pos], g->items,
                     0, g->items.size(), &g->row);
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
                         const CandidateIndex& index, bool rank_by_id)
    : model_(model),
      snapshot_(snapshot),
      index_(index),
      rank_by_id_(rank_by_id),
      num_items_(snapshot.NumItems()) {
  walk_stamp_.assign(num_items_, 0);
  consume_stamp_.assign(num_items_, 0);
  rated_stamp_.assign(num_items_, 0);
  user_stamp_.assign(snapshot.base_num_users(), 0);
  block_items_.resize(index.blocks().size());
  if (rank_by_id_) {
    // Items interned after the base: out-of-band for order_by_id(), merged
    // in by external id during the zero-merge.
    for (size_t i = snapshot.base_num_items(); i < num_items_; ++i) {
      oob_by_id_.emplace_back(snapshot.ItemIdAt(static_cast<int32_t>(i)),
                              static_cast<int32_t>(i));
    }
    std::sort(oob_by_id_.begin(), oob_by_id_.end());
  }
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
      index_.bounds().slack * (std::fabs(scale_u * max_scale) +
                               std::fabs(offset_u) + std::fabs(max_offset));
  return core + pad + 1e-12;
}

void PruneEngine::GenerateCandidates(int32_t u) {
  candidates_.clear();
  start_.clear();
  const uint32_t e = epoch_;
  auto mark = [&](int32_t i) {
    if (i < 0 || static_cast<size_t>(i) >= num_items_) return false;
    if (walk_stamp_[i] == e) return false;
    walk_stamp_[i] = e;
    candidates_.push_back(i);
    return true;
  };
  // Start items: the user's base row plus, when the row was written since
  // the last flatten, its live row (covers ratings added since — their
  // item-based similarities anchor to the base, and the user-based
  // families need the base row, which the live row contains unless
  // removed; removed base items cannot seed a nonzero similarity for item
  // families and are re-covered below for user families via the base).
  const CsrRow base_row = snapshot_.BaseUserCsrRow(u);
  for (size_t a = 0; a < base_row.n; ++a) {
    if (mark(base_row.idx[a])) start_.push_back(base_row.idx[a]);
  }
  if (snapshot_.IsUserRowTouched(u)) {
    const CsrRow live = snapshot_.UserCsrRow(u);
    for (size_t a = 0; a < live.n; ++a) {
      if (mark(live.idx[a])) start_.push_back(live.idx[a]);
    }
  }
  // Two-hop: raters come from the base only — a nonzero similarity
  // requires a base co-rating, so raters added since cannot contribute a
  // nonzero score.
  for (int32_t j : start_) {
    const CsrRow raters = snapshot_.BaseItemCsrRow(j);
    for (size_t b = 0; b < raters.n; ++b) {
      const int32_t v = raters.idx[b];
      if (static_cast<size_t>(v) >= user_stamp_.size() ||
          user_stamp_[v] == e) {
        continue;
      }
      user_stamp_[v] = e;
      const CsrRow co = snapshot_.BaseUserCsrRow(v);
      for (size_t c = 0; c < co.n; ++c) mark(co.idx[c]);
      if (snapshot_.IsUserRowTouched(v)) {
        const CsrRow vlive = snapshot_.UserCsrRow(v);
        for (size_t c = 0; c < vlive.n; ++c) mark(vlive.idx[c]);
      }
    }
  }
}

void PruneEngine::ScoreBatch(int32_t u, const std::vector<int32_t>& items,
                             TopKPruner* pruner) {
  if (items.empty()) return;
  batch_pred_.resize(items.size());
  model_->PredictBatchByIndex(u, items, batch_pred_);
  for (size_t k = 0; k < items.size(); ++k) {
    const int64_t id = snapshot_.ItemIdAt(items[k]);
    pruner->Offer(batch_pred_[k], rank_by_id_ ? id : items[k], id);
  }
  stats.predictions += items.size();
  ++stats.predict_batches;
}

void PruneEngine::ZeroMerge(MergeMode mode, TopKPruner* pruner) {
  const size_t bts = index_.bound_table_size();
  // Offer 0.0 for every still-unconsumed unrated item in rank order; all
  // offers carry the same score with ascending rank, so the first
  // rejection ends the merge.
  auto offer = [&](int32_t c, int64_t rank, int64_t id) {
    if (!InRange(c)) return true;
    if (!pruner->WouldAccept(0.0, rank)) return false;
    if (mode == MergeMode::kSkipConsumed && consume_stamp_[c] == epoch_) {
      return true;
    }
    if (mode == MergeMode::kSkipInBounds && static_cast<size_t>(c) < bts) {
      return true;
    }
    if (Rated(c)) return true;
    pruner->Offer(0.0, rank, id);
    return true;
  };
  if (!rank_by_id_) {
    for (size_t c = range_begin_; c < range_end_; ++c) {
      const int32_t idx = static_cast<int32_t>(c);
      if (!offer(idx, idx, snapshot_.ItemIdAt(idx))) return;
    }
    return;
  }
  // External-id order: merge the base items (order_by_id) with the items
  // interned after the base (oob_by_id_), both id-ascending.
  const std::vector<int32_t>& by_id = index_.order_by_id();
  const std::vector<int64_t>& ids = snapshot_.item_ids();
  size_t a = 0, b = 0;
  while (a < by_id.size() || b < oob_by_id_.size()) {
    bool take_base;
    if (a >= by_id.size()) {
      take_base = false;
    } else if (b >= oob_by_id_.size()) {
      take_base = true;
    } else {
      take_base = ids[by_id[a]] < oob_by_id_[b].first;
    }
    const int32_t c = take_base ? by_id[a++] : oob_by_id_[b++].second;
    const int64_t id = ids[c];
    if (!offer(c, id, id)) return;
  }
}

size_t PruneEngine::InRangeCount(const CandidateIndex::Block& B) const {
  if (range_begin_ == 0 && range_end_ == num_items_) return B.end - B.begin;
  size_t n = 0;
  for (uint32_t p = B.begin; p < B.end; ++p) n += InRange(index_.order()[p]);
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
  const PruneBoundTable& bt = index_.bounds();
  const bool has_offset = !bt.item_offset.empty();
  ++epoch_;
  StampRated(u);

  // All-zero users (empty row / empty neighborhood / unknown to the
  // model): every prediction is exactly 0.0, so the whole catalog goes
  // through the zero-merge.
  bool pure_zero = model_->PruneUserAllZero(u);
  double scale_u = 0, offset_u = 0;
  if (!pure_zero) {
    scale_u = model_->PruneUserScale(u);
    offset_u = model_->PruneUserOffset(u);
    if (scale_u == 0.0 && offset_u == 0.0 && !has_offset) pure_zero = true;
  }
  if (pure_zero) {
    ZeroMerge(MergeMode::kAllUnrated, &pruner);
    return pruner.DrainBestFirst();
  }

  const size_t bts = index_.bound_table_size();
  const std::vector<CandidateIndex::Block>& blocks = index_.blocks();
  must_score_.clear();
  touched_blocks_.clear();

  if (bt.candidate_generation) {
    GenerateCandidates(u);
    // Partition: rated items are consumed (never emitted); out-of-bound
    // items either must be scored (no trustable bound) or are provably
    // 0.0 and stay for the zero-merge; delta-touched item rows with
    // rating-dependent bounds must be scored; the rest bucket per block.
    const std::vector<int32_t>& block_of = index_.block_of();
    for (int32_t c : candidates_) {
      if (!InRange(c)) continue;
      ++stats.candidates_generated;
      if (Rated(c)) {
        consume_stamp_[c] = epoch_;
        continue;
      }
      if (static_cast<size_t>(c) >= bts) {
        if (bt.oob_must_score) {
          must_score_.push_back(c);
          consume_stamp_[c] = epoch_;
        }
        continue;
      }
      if (bt.rating_dependent && snapshot_.IsItemRowTouched(c)) {
        must_score_.push_back(c);
        consume_stamp_[c] = epoch_;
        continue;
      }
      const int32_t blk = block_of[c];
      if (block_items_[blk].empty()) touched_blocks_.push_back(blk);
      block_items_[blk].push_back(c);
      consume_stamp_[c] = epoch_;  // scored, or provably below threshold
    }
    ScoreBatch(u, must_score_, &pruner);
    std::sort(touched_blocks_.begin(), touched_blocks_.end());
    for (size_t t = 0; t < touched_blocks_.size(); ++t) {
      const int32_t blk = touched_blocks_[t];
      const CandidateIndex::Block& B = blocks[blk];
      if (pruner.CanSkip(
              PaddedBound(scale_u, offset_u, B.suffix_scale,
                          B.suffix_offset))) {
        // No later block can beat the threshold either.
        for (size_t t2 = t; t2 < touched_blocks_.size(); ++t2) {
          stats.items_pruned += block_items_[touched_blocks_[t2]].size();
          ++stats.blocks_skipped;
        }
        break;
      }
      if (pruner.CanSkip(
              PaddedBound(scale_u, offset_u, B.max_scale, B.max_offset))) {
        stats.items_pruned += block_items_[blk].size();
        ++stats.blocks_skipped;
        continue;
      }
      ScoreBatch(u, block_items_[blk], &pruner);
    }
    for (int32_t blk : touched_blocks_) block_items_[blk].clear();
    ZeroMerge(MergeMode::kSkipConsumed, &pruner);
    return pruner.DrainBestFirst();
  }

  // Catalog-sweep families (e.g. SVD): no candidate sets — sweep the bound
  // blocks in descending static-bound order, batch-scoring the unrated
  // items of each surviving block.
  std::vector<int32_t>& blk_cand = must_score_;  // reuse scratch
  const std::vector<int32_t>& order = index_.order();
  for (size_t bi = 0; bi < blocks.size(); ++bi) {
    const CandidateIndex::Block& B = blocks[bi];
    if (pruner.CanSkip(PaddedBound(scale_u, offset_u, B.suffix_scale,
                                   B.suffix_offset))) {
      for (size_t b2 = bi; b2 < blocks.size(); ++b2) {
        stats.items_pruned += InRangeCount(blocks[b2]);
        ++stats.blocks_skipped;
      }
      break;
    }
    if (pruner.CanSkip(
            PaddedBound(scale_u, offset_u, B.max_scale, B.max_offset))) {
      stats.items_pruned += InRangeCount(B);
      ++stats.blocks_skipped;
      continue;
    }
    blk_cand.clear();
    for (uint32_t p = B.begin; p < B.end; ++p) {
      const int32_t c = order[p];
      if (InRange(c) && !Rated(c)) blk_cand.push_back(c);
    }
    ScoreBatch(u, blk_cand, &pruner);
  }
  ZeroMerge(MergeMode::kSkipInBounds, &pruner);
  return pruner.DrainBestFirst();
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

Status RecommendExecutor::Init() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  grid_.users = ServedUsers(
      snapshot, plan_.user_ids.has_value() ? &*plan_.user_ids : nullptr,
      *ctx_);
  grid_.items = ResolveItems(snapshot, plan_.item_ids);
  LayOutUnits(&grid_);
  // Bounded Top-k mode: only under the optimizer's preconditions (no item
  // pushdown so item position tie-breaks survive, unseen-only emission)
  // and only when the recommender published a prunable CandidateIndex.
  prune_active_ = false;
  if (plan_.prune && plan_.prune_limit > 0 && !plan_.include_rated &&
      !plan_.item_ids.has_value()) {
    cindex_ = plan_.rec->candidate_index();
    prune_active_ = cindex_ != nullptr && cindex_->prunable();
  }
  // Buffered modes: every bounded Top-k, and exact scoring once the grid
  // fans out. Anything else streams row by row from NextImpl.
  if (prune_active_) {
    ScoreTopK();
  } else if (grid_.fan_out) {
    ScoreExact(&grid_, model, plan_.include_rated, ctx_,
               [this](size_t u, size_t i, double score) {
                 return RecTuple(grid_.users[u], grid_.items[i], score);
               });
  }
  return Status::OK();
}

void RecommendExecutor::ScoreTopK() {
  const RecModel* model = plan_.rec->model();
  const RatingMatrix& snapshot = model->ratings();
  const size_t k = plan_.prune_limit;
  obs::Count(obs::Counter::kPruneTopkQueries);
  Stopwatch watch;
  // One global Top-k over the exact path's order: score desc, then arrival
  // — user position, then item position. Both positions fold into one rank
  // (user position * catalog size + item index), so the bounded heap, its
  // tie-break and its threshold are TopKPruner's own. With no item
  // pushdown, the grid's items are the whole catalog in index order, so a
  // unit's slice of them is also its item-index range.
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
    PruneEngine engine(model, snapshot, *cindex_, /*rank_by_id=*/false);
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
  return NextScored(&grid_, plan_.rec->model(), plan_.include_rated, ctx_,
                    [this](size_t u, size_t i, double score) {
                      return RecTuple(grid_.users[u], grid_.items[i], score);
                    });
}

// -------------------------------------------------------- JoinRecommend

Status JoinRecommendExecutor::Init() {
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
  std::vector<int64_t> items;
  uint64_t probes = 0;
  while (true) {
    auto next = outer_->Next();
    if (!next.ok()) return next.status();
    if (!next.value().has_value()) break;
    ++probes;
    // A NULL, non-INT or unknown item id scores nothing and emits nothing.
    const Value& item_val = next.value()->At(plan_.outer_item_col);
    if (item_val.is_null() || item_val.type() != TypeId::kInt64 ||
        !snapshot.ItemIndex(item_val.AsInt()).has_value()) {
      continue;
    }
    items.push_back(item_val.AsInt());
    rows.push_back(std::move(*next.value()));
  }
  ctx_->stats.join_probes += probes;
  grid_.items = std::move(items);
  outer_rows_ = std::move(rows);
  return Status::OK();
}

Result<std::optional<Tuple>> JoinRecommendExecutor::NextImpl() {
  // 〈recommend columns〉 ++ 〈outer tuple〉 (paper: tup concatenated).
  auto make_row = [this](size_t u, size_t i, double score) {
    Tuple out = MakeRecTuple(plan_.schema, plan_.user_col_idx,
                             plan_.item_col_idx, plan_.rating_col_idx,
                             grid_.users[u], grid_.items[i], score);
    const Tuple& outer = outer_rows_[i];
    const size_t outer_start = plan_.schema.NumColumns() - outer.NumValues();
    for (size_t c = 0; c < outer.NumValues(); ++c) {
      out.values()[outer_start + c] = outer.At(c);
    }
    return out;
  };
  const RecModel* model = plan_.rec->model();
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

Status IndexRecommendExecutor::Init() {
  if (plan_.rec->model() == nullptr) {
    return Status::ExecutionError("recommender " + plan_.rec->name() +
                                  " has no built model");
  }
  const RatingMatrix& snapshot = plan_.rec->model()->ratings();
  // Index-served users partition exactly like model-scored ones: only the
  // owner shard materializes and serves them.
  users_ = ServedUsers(
      snapshot, plan_.user_ids.empty() ? nullptr : &plan_.user_ids, *ctx_);
  // Hash the pushed-down item ids once (the per-candidate std::find was
  // O(|items|^2) across a user's scan) and keep a deduplicated list of the
  // ones the model knows, so a duplicated IN-list entry cannot emit the
  // same tuple twice on the cache-miss path.
  item_filter_.reset();
  item_list_.clear();
  if (plan_.item_ids.has_value()) {
    item_filter_.emplace();
    item_filter_->reserve(plan_.item_ids->size());
    for (int64_t id : *plan_.item_ids) {
      if (item_filter_->insert(id).second &&
          snapshot.ItemIndex(id).has_value()) {
        item_list_.push_back(id);
      }
    }
  }
  user_pos_ = 0;
  current_.clear();
  current_pos_ = 0;
  loaded_ = false;
  // Threshold-pruned fallback: needs a per-user cap (the threshold's k)
  // and the full catalog (an item pushdown already bounds the miss scan).
  prune_active_ = false;
  engine_.reset();
  if (plan_.prune && plan_.per_user_limit > 0 &&
      !plan_.item_ids.has_value()) {
    cindex_ = plan_.rec->candidate_index();
    prune_active_ = cindex_ != nullptr && cindex_->prunable();
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
    // Threshold-pruned miss: exact top-per_user_limit under the fallback's
    // (score desc, id asc) order with min_score as the pruner floor —
    // identical to scoring the full catalog, filtering and capping.
    if (engine_ == nullptr) {
      obs::Count(obs::Counter::kPruneTopkQueries);
      engine_ = std::make_unique<PruneEngine>(model, snapshot, *cindex_,
                                              /*rank_by_id=*/true);
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
  const std::vector<int64_t>& items =
      item_filter_.has_value() ? item_list_ : snapshot.item_ids();
  UserRowScores row;
  ScoreUserRange(model, snapshot, user_id, items, 0, items.size(), &row);
  ctx_->stats.predictions += row.predicted;
  ctx_->stats.predict_batches += row.batches;
  for (size_t k = 0; k < items.size(); ++k) {
    if (!row.rated[k] && row.score[k] >= plan_.min_score) {  // unseen only
      current_.emplace_back(items[k], row.score[k]);
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
