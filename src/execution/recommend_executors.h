// Recommendation-aware executors (paper Section IV):
//   RecommendExecutor       — RECOMMEND / FILTERRECOMMEND (Algorithms 1 & 2;
//                             pushed-down user/item predicates prune scoring)
//   JoinRecommendExecutor   — JOINRECOMMEND (a FilterRecommend over the
//                             outer relation's item list)
//   IndexRecommendExecutor  — INDEXRECOMMEND (Algorithm 3 over RecScoreIndex,
//                             with model fallback on cache miss)
//
// All scoring goes through RecModel::PredictBatchByIndex: each executor
// resolves its items to dense indices once, finds a user's rated items by
// index, scores the unrated ones in one batch call, and only then emits
// tuples — per-candidate model->Predict() calls and per-item id hashing do
// not appear on any hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "execution/executor.h"
#include "execution/topk_pruner.h"

namespace recdb {

/// One user's scores over a positional range of candidate items: rated
/// positions carry the stored rating, the rest the PredictBatch result.
struct UserRowScores {
  std::vector<double> score;   // per position
  std::vector<uint8_t> rated;  // per position: 1 = user already rated it
  uint64_t predicted = 0;      // candidates that went through the model
  uint64_t batches = 0;        // PredictBatch calls issued (0 or 1)
};

/// The users x items grid a RecommendExecutor or JoinRecommendExecutor
/// scores, and the state of the one driver both run over it (file-local to
/// recommend_executors.cc): serial streaming one batched user row at a
/// time, or — once the grid is large enough to spread over the scheduler —
/// units of (user, item slice) scored morsel-parallel into slots that
/// concatenate in the serial order (DESIGN.md §8).
struct ScoreGrid {
  std::vector<int64_t> users;  // served users, in ascending id
  std::vector<int32_t> items;  // item indices each user scores, emission order
  // Unit layout, fixed before scoring: item slices per user, units per
  // morsel, and whether the units fan out over the scheduler.
  size_t splits = 1;
  size_t morsel = 1;
  bool fan_out = false;
  // Serial mode: cursor and the current user's batched row of scores.
  size_t user_pos = 0;
  size_t item_pos = 0;
  UserRowScores row;
  bool row_ready = false;
  // Buffered mode: results materialized up front, drained by Next.
  bool buffered = false;
  std::vector<Tuple> buffer;
  size_t buffer_pos = 0;
};

/// Per-executor engine for the bounded Top-k (DESIGN.md §13): one user's
/// exact top-k over an item-index range, selected over doubles, with tuple
/// building left to the caller. A model without a bound table (CF) takes
/// dense selection: every unrated item in the range, found by merging the
/// user's index-sorted row, is scored in one PredictBatchByIndex call and
/// offered to the heap. A model with one (SVD) sweeps the CandidateIndex
/// blocks in descending-bound order against the running k-th score, then a
/// zero-score merge restores the provably-0.0 tail in tie-break order. Not
/// thread-safe — parallel paths construct one engine per morsel.
class PruneEngine {
 public:
  /// `bounds` is the model's bound index, or null when it publishes none.
  /// rank_by_id chooses the tie-break domain: false = item index
  /// (RecommendExecutor under a TopN), true = external item id (the
  /// IndexRecommend fallback's sort order).
  PruneEngine(const RecModel* model, const RatingMatrix& snapshot,
              const CandidateIndex* bounds, bool rank_by_id);

  /// One user's exact top-k over the unseen items whose index lies in
  /// [begin, end) (default: the whole catalog), best-first (score desc,
  /// rank asc). Bit-identical to batch-scoring those items and keeping the
  /// k best under the same order. `floor` models the plan's min_score (use
  /// -inf when absent).
  std::vector<TopKPruner::Entry> UserTopK(int64_t user_id, size_t k,
                                          double floor, size_t begin = 0,
                                          size_t end = SIZE_MAX);

  /// Add the accumulated counters into `out`, then zero them.
  void FlushStats(ExecStats* out);

  /// Accumulated across calls until FlushStats (blocks_skipped,
  /// items_pruned, predictions, predict_batches).
  ExecStats stats;

 private:
  /// The bounded sweep of a user with a bound table into `pruner`.
  void SweepBounds(int32_t u, TopKPruner* pruner);
  /// One index-space PredictBatchByIndex over `items`, each result offered
  /// to the pruner.
  void ScoreBatch(int32_t u, const std::vector<int32_t>& items,
                  TopKPruner* pruner);
  /// Zero-merge modes: kAllUnrated offers every unrated item (all-zero
  /// users), kSkipInBounds skips the bound table's domain (every in-bounds
  /// item was scored or pruned by the sweep).
  enum class MergeMode { kAllUnrated, kSkipInBounds };
  void ZeroMerge(MergeMode mode, TopKPruner* pruner);
  /// Float-safe upper bound for a block: the model's slack pads the
  /// magnitude of every term, plus an absolute epsilon.
  double PaddedBound(double scale_u, double offset_u, double max_scale,
                     double max_offset) const;
  /// Stamp the user's rated items (merged view) with the current epoch,
  /// once per user, so Rated() is one array read instead of a per-item
  /// binary search of the user's row.
  void StampRated(int32_t u);
  bool Rated(int32_t item_idx) const {
    return rated_stamp_[item_idx] == epoch_;
  }
  /// True when the item index lies in the current UserTopK range.
  bool InRange(int32_t item_idx) const {
    return static_cast<size_t>(item_idx) >= range_begin_ &&
           static_cast<size_t>(item_idx) < range_end_;
  }
  /// Items of a bound block inside the current UserTopK range.
  size_t InRangeCount(const CandidateIndex::Block& block) const;

  const RecModel* model_;
  const RatingMatrix& snapshot_;
  const CandidateIndex* bounds_;  // null: dense selection
  const bool rank_by_id_;
  const size_t num_items_;  // catalog size captured at construction

  std::vector<uint32_t> rated_stamp_;  // per item: rated by the user
  uint32_t epoch_ = 0;
  size_t range_begin_ = 0;  // current UserTopK item-index range
  size_t range_end_ = 0;
  std::vector<int32_t> batch_items_;
  std::vector<double> batch_pred_;
  /// Items interned after the bound build (beyond order_by_id()), sorted
  /// by external id — merged with it for the id-ordered zero-merge.
  std::vector<std::pair<int64_t, int32_t>> oob_by_id_;
};

class RecommendExecutor : public Executor {
 public:
  RecommendExecutor(const RecommendPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Bounded Top-k, for every model: each grid unit runs
  /// PruneEngine::UserTopK over its item slice into the morsel's heap
  /// under the shared floor. One global top-prune_limit over (score desc,
  /// user position, item position);
  /// morsels share the running global k-th score through a monotone
  /// atomic, and only the <= k global survivors are emitted, in arrival
  /// order — a subsequence of the exact stream, so the parent TopN's
  /// result is bit-identical.
  void ScoreTopK();
  Tuple RecTuple(int64_t user_id, int64_t item_id, double score) const;

  const RecommendPlan& plan_;
  ExecContext* ctx_;
  // Users and items resolved at Init (filters applied).
  ScoreGrid grid_;
};

class JoinRecommendExecutor : public Executor {
 public:
  JoinRecommendExecutor(const JoinRecommendPlan& plan, ExecutorPtr outer,
                        ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), outer_(std::move(outer)), ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Drain the outer once: keep the tuples whose item id the model knows,
  /// and their ids as the grid's item list, both in outer order.
  Status DrainOuter();

  const JoinRecommendPlan& plan_;
  ExecutorPtr outer_;
  ExecContext* ctx_;
  // The pushed-down users the model knows and this shard owns (resolved at
  // Init) x the outer's known items (filled by DrainOuter).
  ScoreGrid grid_;
  std::vector<Tuple> outer_rows_;  // parallel to grid_.items
  bool drained_ = false;
};

class IndexRecommendExecutor : public Executor {
 public:
  IndexRecommendExecutor(const IndexRecommendPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  ~IndexRecommendExecutor() override;
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Load the (item, score) list for users_[user_pos_], from the index when
  /// materialized (hit) or by batch-scoring through the model (miss).
  Status LoadCurrentUser();

  const IndexRecommendPlan& plan_;
  ExecContext* ctx_;
  // Pushed-down item ids as a hash set (O(1) membership instead of a per-
  // candidate std::find) plus the indices of the known ones, deduplicated,
  // for the cache-miss scan, so duplicated IN-list entries cannot emit
  // duplicate tuples. Without a pushdown the exact cache-miss scan lists
  // the whole catalog in index order.
  std::optional<std::unordered_set<int64_t>> item_filter_;
  std::vector<int32_t> item_list_;
  std::vector<int64_t> users_;
  size_t user_pos_ = 0;
  std::vector<std::pair<int64_t, double>> current_;  // best-first
  size_t current_pos_ = 0;
  bool loaded_ = false;
  // Bounded cache-miss fallback (external-id tie-break, floor =
  // min_score); lazily constructed at the first miss.
  bool prune_active_ = false;
  std::shared_ptr<const CandidateIndex> cindex_;
  std::unique_ptr<PruneEngine> engine_;
};

}  // namespace recdb
