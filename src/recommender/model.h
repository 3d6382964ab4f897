// RecModel: a built recommendation model (paper Step I output), queried by
// the RECOMMEND operators to produce RecScore(u, i) (paper Step II).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "recommender/algorithm.h"
#include "recommender/rating_matrix.h"
#include "recommender/similarity.h"

namespace recdb {

/// Incremental model maintenance payload: the rows a model must replace to
/// become equivalent to a full rebuild over the matrix's merged contents.
/// Produced by PrepareDeltaUpdate (read-only, runs off the writer lock) and
/// installed by ApplyDeltaUpdate (cheap, runs under the writer lock).
struct ModelUpdate {
  /// CF: recomputed neighborhood rows as (row index, fresh neighbor list).
  std::vector<std::pair<int32_t, std::vector<Neighbor>>> rows;
  /// CF, untruncated tables: each recomputed row's entries mirrored into
  /// its neighbors' rows, sorted by (row, idx), applied in place after
  /// `rows` are installed.
  std::vector<NeighborPatch> patches;
  /// CF: total row count after the update (covers newly interned entities).
  size_t num_rows = 0;
  /// SVD: folded-in factor rows for users/items new since the last train.
  std::vector<std::pair<int32_t, std::vector<float>>> user_rows;
  std::vector<std::pair<int32_t, std::vector<float>>> item_rows;
  size_t num_users = 0;
  size_t num_items = 0;
  /// External ids whose cached scores the commit must invalidate: for
  /// item-based CF every user gains/loses neighbors through these items;
  /// for user-based CF these users' whole prediction rows changed.
  std::vector<int64_t> stale_users;
  std::vector<int64_t> stale_items;
  /// Set by models with no incremental form: the commit must rebuild the
  /// model from scratch over the merged matrix (and invalidate the whole
  /// score index) instead of patching rows. Without this a base-class model
  /// would silently stay stale until the next full retrain.
  bool full_rebuild = false;

  bool empty() const {
    return rows.empty() && patches.empty() && user_rows.empty() &&
           item_rows.empty() && !full_rebuild;
  }
};

/// Static per-item upper-bound tables for WAND-style Top-k pruning
/// (DESIGN.md §13). For every item index i < item_scale.size() the model
/// guarantees
///
///   score(u, i) <= PruneUserScale(u) * item_scale[i]
///                  + PruneUserOffset(u) + item_offset[i]
///
/// against the model state the table was computed from, and every item
/// index at or above the table size (interned since) scores exactly 0.0.
/// Only SVD publishes one; a family that cannot bound its scores publishes
/// none, and its Top-k is dense selection over every unrated item.
struct PruneBoundTable {
  std::vector<double> item_scale;
  /// Additive per-item term (e.g. SVD item bias); empty means all zero.
  std::vector<double> item_offset;
  /// Relative padding applied to bounds before a skip decision, covering
  /// float rounding in the scoring kernels (the bound math is double, the
  /// kernels accumulate in float lanes for SVD).
  double slack = 0.0;
};

class RecModel {
 public:
  explicit RecModel(std::shared_ptr<const RatingMatrix> ratings)
      : ratings_(std::move(ratings)) {}
  virtual ~RecModel() = default;

  virtual RecAlgorithm algorithm() const = 0;

  /// RecScore(u, i) for a batch of candidate items of one user. The user
  /// and item ids are resolved to dense indices once, here, and the batch
  /// goes to the model's index-space kernel; out[k] is the score of
  /// items[k]. Unknown user/item or empty candidate overlap yields 0 (paper
  /// Algorithm 1). Each out[k] depends only on (user_id, items[k]) — never
  /// on the other batch members — so any batching of the same pairs is
  /// bit-identical. Thread-safe: const read of the model with thread-local
  /// scratch.
  ///
  /// Non-virtual choke point: every scoring path in the engine (executors,
  /// cache admission, materialization, evaluation, OnTop baseline) funnels
  /// through here or PredictBatchByIndex, so this is where
  /// model.predict_calls/predict_batches are counted. Implementations
  /// override DoPredictBatch.
  void PredictBatch(int64_t user_id, std::span<const int64_t> items,
                    std::span<double> out) const;

  /// PredictBatch for callers that already hold dense indices into
  /// ratings() (every executor): no id resolution at all. A
  /// negative index, or one at or beyond the matrix's row count, is
  /// unknown and scores 0 — exactly what PredictBatch returns for an
  /// unknown id, so PredictBatchByIndex(idx) == PredictBatch(IdAt(idx)).
  void PredictBatchByIndex(int32_t user_idx, std::span<const int32_t> items,
                           std::span<double> out) const {
    obs::Count(obs::Counter::kModelPredictCalls, items.size());
    obs::Count(obs::Counter::kModelPredictBatches);
    DoPredictBatch(user_idx, items, out);
  }

  /// RecScore(u, i) for external ids: a thin wrapper over a batch of one.
  double Predict(int64_t user_id, int64_t item_id) const {
    double out = 0;
    PredictBatch(user_id, std::span<const int64_t>(&item_id, 1),
                 std::span<double>(&out, 1));
    return out;
  }

  /// Rough model footprint in bytes (scalability ablations).
  virtual size_t ApproxBytes() const = 0;

  /// True when the model can patch itself row-by-row via
  /// PrepareDeltaUpdate/ApplyDeltaUpdate. Models without an incremental
  /// form (the base fallback) answer false, which makes the maintenance
  /// policy refresh them immediately on the first delta op — a write must
  /// never be silently unreflected until a threshold trips.
  virtual bool SupportsIncrementalUpdate() const { return false; }

  /// Compute the row replacements needed to bring this model in sync with
  /// the matrix's merged contents given the delta ops accumulated since it
  /// was built. Read-only with respect to the model (safe under a shared
  /// lock); the result commits via ApplyDeltaUpdate. The base model has no
  /// incremental form: it requests a full rebuild at commit time instead of
  /// returning an empty (and therefore silently stale) update.
  virtual Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const {
    ModelUpdate update;
    update.full_rebuild = !ops.empty();
    return update;
  }

  /// Install rows prepared by PrepareDeltaUpdate. Must run under the writer
  /// lock (mutates model state readers consult).
  virtual void ApplyDeltaUpdate(ModelUpdate&& update) { (void)update; }

  /// Bounded Top-k support (DESIGN.md §13): fill `out` with the per-item
  /// upper-bound table and return true, or return false when this family
  /// cannot bound its scores (its Top-k then selects densely).
  virtual bool ComputePruneBounds(PruneBoundTable* out) const {
    (void)out;
    return false;
  }

  /// Per-user multiplicative / additive bound terms (see PruneBoundTable).
  /// Evaluated live at query time against the row view, so user-side
  /// delta (e.g. a new highest rating) is always reflected.
  virtual double PruneUserScale(int32_t user_idx) const {
    (void)user_idx;
    return std::numeric_limits<double>::infinity();
  }
  virtual double PruneUserOffset(int32_t user_idx) const {
    (void)user_idx;
    return 0.0;
  }

  /// True when every score this model can emit for the user is exactly 0.0
  /// (e.g. an SVD user with no factor row): the bounded sweep then skips
  /// all scoring and fills the Top-k from unrated items in tie-break order.
  virtual bool PruneUserAllZero(int32_t user_idx) const {
    (void)user_idx;
    return false;
  }

  /// The snapshot the model was built from.
  const RatingMatrix& ratings() const { return *ratings_; }
  std::shared_ptr<const RatingMatrix> ratings_ptr() const { return ratings_; }

 protected:
  /// The one scoring kernel per model, in index space: user_idx and every
  /// items[k] are dense indices into ratings(), out of range (negative or
  /// past the row count) meaning unknown, which must score 0.
  virtual void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                              std::span<double> out) const = 0;

  std::shared_ptr<const RatingMatrix> ratings_;
};

}  // namespace recdb
