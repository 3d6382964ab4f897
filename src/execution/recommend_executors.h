// Recommendation-aware executors (paper Section IV):
//   RecommendExecutor       — RECOMMEND / FILTERRECOMMEND (Algorithms 1 & 2;
//                             pushed-down user/item predicates prune scoring)
//   JoinRecommendExecutor   — JOINRECOMMEND (a FilterRecommend over the
//                             outer relation's item list)
//   IndexRecommendExecutor  — INDEXRECOMMEND (Algorithm 3 over RecScoreIndex,
//                             with model fallback on cache miss)
//
// All scoring goes through RecModel::PredictBatch (PredictBatchByIndex on
// the pruned sweep, which already holds item indices): each executor
// resolves a user's candidate set first, scores the unrated candidates in
// one batch call, and only then emits tuples — per-candidate
// model->Predict() calls do not appear on any hot path.
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
  std::vector<int64_t> items;  // item ids each user scores, emission order
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

/// Per-executor engine for the sublinear Top-N paths (DESIGN.md §13):
/// candidate generation over the matrix's base CSR (union-merged with the
/// live rows of rows written since the last flatten), the must-score
/// partition for items whose static bound cannot be trusted,
/// the WAND-style block sweep against a TopKPruner threshold, and the
/// zero-score merge that restores the provably-0.0 tail in tie-break
/// order. Scratch arrays are epoch-stamped and reused across users. Not
/// thread-safe — parallel paths construct one engine per morsel.
class PruneEngine {
 public:
  /// rank_by_id chooses the tie-break domain: false = item position
  /// (RecommendExecutor under a TopN), true = external item id (the
  /// IndexRecommend fallback's sort order).
  PruneEngine(const RecModel* model, const RatingMatrix& snapshot,
              const CandidateIndex& index, bool rank_by_id);

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

  /// Accumulated across calls until FlushStats (candidates_generated,
  /// blocks_skipped, items_pruned, predictions, predict_batches).
  ExecStats stats;

 private:
  /// Two-hop walk: start items = base row of u ∪ its live row, raters from
  /// the base item rows, candidate items = base ∪ live row of each rater.
  /// Fills candidates_ (deduplicated via walk_stamp_).
  void GenerateCandidates(int32_t u);
  /// One index-space PredictBatchByIndex over `items`, each result offered
  /// to the pruner.
  void ScoreBatch(int32_t u, const std::vector<int32_t>& items,
                  TopKPruner* pruner);
  /// Zero-merge modes: kAllUnrated offers every unrated item (all-zero
  /// users), kSkipConsumed skips consume-stamped items (candidate
  /// families), kSkipInBounds skips the bound table's domain (catalog-
  /// sweep families, where every in-bounds item was scored or pruned).
  enum class MergeMode { kAllUnrated, kSkipConsumed, kSkipInBounds };
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
  const CandidateIndex& index_;
  const bool rank_by_id_;
  const size_t num_items_;  // catalog size captured at construction

  std::vector<uint32_t> walk_stamp_;     // per item: candidate-walk dedup
  std::vector<uint32_t> consume_stamp_;  // per item: scored/pruned/rated
  std::vector<uint32_t> rated_stamp_;    // per item: rated by the user
  std::vector<uint32_t> user_stamp_;     // per base user: rater dedup
  uint32_t epoch_ = 0;
  size_t range_begin_ = 0;  // current UserTopK item-index range
  size_t range_end_ = 0;
  std::vector<int32_t> start_;
  std::vector<int32_t> candidates_;
  std::vector<int32_t> must_score_;
  std::vector<std::vector<int32_t>> block_items_;
  std::vector<int32_t> touched_blocks_;
  std::vector<double> batch_pred_;
  /// Items interned after the last flatten (beyond the base), sorted
  /// by external id — merged with index.order_by_id() for the id-ordered
  /// zero-merge.
  std::vector<std::pair<int64_t, int32_t>> oob_by_id_;
};

class RecommendExecutor : public Executor {
 public:
  RecommendExecutor(const RecommendPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  Status Init() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Bounded Top-k: each grid unit runs PruneEngine::UserTopK over its
  /// item slice into the morsel's heap under the shared floor. One global
  /// top-prune_limit over (score desc, user position, item position);
  /// morsels share the running global k-th score through a monotone
  /// atomic, and only the <= k global survivors are emitted, in arrival
  /// order — a subsequence of the exact stream, so the parent TopN's
  /// result is bit-identical.
  void ScoreTopK();
  Tuple RecTuple(int64_t user_id, int64_t item_id, double score) const;

  const RecommendPlan& plan_;
  ExecContext* ctx_;
  bool prune_active_ = false;
  std::shared_ptr<const CandidateIndex> cindex_;
  // Users and items resolved at Init (filters applied).
  ScoreGrid grid_;
};

class JoinRecommendExecutor : public Executor {
 public:
  JoinRecommendExecutor(const JoinRecommendPlan& plan, ExecutorPtr outer,
                        ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), outer_(std::move(outer)), ctx_(ctx) {}
  Status Init() override;
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
  Status Init() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  /// Load the (item, score) list for users_[user_pos_], from the index when
  /// materialized (hit) or by batch-scoring through the model (miss).
  Status LoadCurrentUser();

  const IndexRecommendPlan& plan_;
  ExecContext* ctx_;
  // Pushed-down item ids as a hash set (O(1) membership instead of a per-
  // candidate std::find) plus a deduplicated list of the known ones for
  // the cache-miss scan, so duplicated IN-list entries cannot emit
  // duplicate tuples.
  std::optional<std::unordered_set<int64_t>> item_filter_;
  std::vector<int64_t> item_list_;
  std::vector<int64_t> users_;
  size_t user_pos_ = 0;
  std::vector<std::pair<int64_t, double>> current_;  // best-first
  size_t current_pos_ = 0;
  bool loaded_ = false;
  // Threshold-pruned cache-miss fallback (external-id tie-break, floor =
  // min_score); lazily constructed at the first miss.
  bool prune_active_ = false;
  std::shared_ptr<const CandidateIndex> cindex_;
  std::unique_ptr<PruneEngine> engine_;
};

}  // namespace recdb
