// Recommender: a named, registered recommender (paper CREATE RECOMMENDER).
//
// Owns one RatingMatrix (flat base + copy-on-write live rows), the built
// RecModel, the bound index (CandidateIndex), the pre-computation index
// (RecScoreIndex) and the maintenance policy. Ingest lands in the matrix's
// live rows without invalidating the base, scoring reads the row view, and
// maintenance is *incremental* — a two-phase refresh (PrepareRefresh off
// the writer lock, CommitRefresh under it) flattens the live rows into a
// fresh base and patches only the model rows the delta touched. A full
// retrain happens only at Build() time (CREATE RECOMMENDER / recovery),
// never in response to a statement.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "index/candidate_index.h"
#include "index/rec_score_index.h"
#include "recommender/cf_model.h"
#include "recommender/svd_model.h"

namespace recdb {

struct RecommenderConfig {
  std::string name;
  std::string ratings_table;
  std::string user_col;
  std::string item_col;
  std::string rating_col;
  RecAlgorithm algorithm = kDefaultAlgorithm;
  /// Maintain once the delta log reaches this fraction of the base ratings
  /// (the paper's N% system parameter). Reaching it triggers an incremental
  /// refresh, not a retrain.
  double rebuild_threshold = 0.10;
  SimilarityOptions sim_opts;
  SvdOptions svd_opts;
};

class Recommender {
 public:
  /// (user, item) pairs whose cached scores a mutation invalidated —
  /// handed to the invalidation listener (CacheManager) for lazy
  /// re-materialization.
  using InvalidatedPairs = std::vector<std::pair<int64_t, int64_t>>;

  explicit Recommender(RecommenderConfig config)
      : config_(std::move(config)),
        matrix_(std::make_shared<RatingMatrix>()) {}

  const RecommenderConfig& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  RecAlgorithm algorithm() const { return config_.algorithm; }

  /// Ingest one rating (does NOT rebuild the model). On a frozen matrix the
  /// mutation lands in a live row and stale score-index entries for
  /// the affected predictions are evicted (scoped per algorithm family).
  void AddRating(int64_t user_id, int64_t item_id, double rating);

  /// Remove a rating (SQL DELETE on the ratings table); counts toward the
  /// maintenance threshold like an insert.
  void RemoveRating(int64_t user_id, int64_t item_id);

  /// Batched ingest: apply one statement's rating mutations as a single
  /// versioned delta batch (RatingMatrix::ApplyBatch), with one delta-
  /// pending gauge adjustment and one invalidation-listener callback for
  /// the whole statement. Per-op DeltaOps and maintenance pressure are
  /// identical to the per-row loop.
  void ApplyRatingBatch(const std::vector<RatingMatrix::BatchRatingOp>& ops);

  /// Recommender Initialization: merge any pending delta and train the
  /// model from scratch for the configured algorithm. Returns the build
  /// wall time. The only full-retrain entry point.
  Result<double> Build();

  /// The one maintenance trigger (the paper's N%): true once the delta log
  /// reaches rebuild_threshold × base ratings. With an empty base any delta
  /// trips it, and a model with no incremental form cannot absorb delta
  /// rows at all, so any pending op trips it — a write must never sit
  /// silently unreflected until a threshold trips.
  bool NeedsRefresh() const {
    if (model_ == nullptr || !matrix_->has_delta()) return false;
    if (!model_->SupportsIncrementalUpdate()) return true;
    return static_cast<double>(matrix_->delta_size()) >=
           config_.rebuild_threshold * static_cast<double>(base_size_);
  }

  /// Build the model if none exists, else refresh incrementally once
  /// NeedsRefresh() trips; returns whether any maintenance happened. The
  /// refresh is bit-identical to a retrain for CF and a fold-in for SVD —
  /// statements never trigger a full retrain.
  Result<bool> MaintainIfNeeded() {
    if (model_ == nullptr) {
      RECDB_RETURN_NOT_OK(Build().status());
      return true;
    }
    if (!NeedsRefresh()) return false;
    return Refresh();
  }

  // --- two-phase incremental refresh ---------------------------------------

  /// Everything a re-freeze needs, prepared against one matrix version:
  /// the merged CSR candidate and the model row updates. Building it only
  /// reads, so it can run off the writer lock while readers score through
  /// the row view.
  struct RefreshPlan {
    RatingMatrix::MergedCsr csr;
    ModelUpdate update;
    size_t ops = 0;
    bool valid = false;
  };

  /// Prepare a refresh plan (shared lock is enough). valid=false when
  /// there is nothing to do (no model or no delta).
  Result<RefreshPlan> PrepareRefresh() const;

  /// Install a prepared plan (writer lock required). Returns false without
  /// changing anything if the matrix version moved since the plan was
  /// prepared — the caller retries or falls back to Refresh().
  bool CommitRefresh(RefreshPlan&& plan);

  /// One-step refresh under the writer lock: prepare + commit. Returns
  /// whether a merge happened.
  Result<bool> Refresh();

  /// Dedup guard for the background scheduler: returns true if this call
  /// claimed the pending-refresh slot (no job was in flight).
  bool TryMarkRefreshScheduled() {
    bool expected = false;
    return refresh_scheduled_.compare_exchange_strong(expected, true);
  }
  void ClearRefreshScheduled() { refresh_scheduled_.store(false); }

  /// Recovery aid: adopt a pre-loaded (typically already frozen) matrix
  /// instead of re-ingesting the ratings table row by row. Must be called
  /// before Build().
  void SeedMatrix(std::shared_ptr<RatingMatrix> matrix) {
    matrix_ = std::move(matrix);
  }

  /// CacheManager hook: invoked with the (user, item) pairs each mutation
  /// or refresh commit evicted from the score index. A recommender shared
  /// by several shards chains one manager per shard onto the listener that
  /// is already installed (see RecDB::GetCacheManager).
  void SetInvalidationListener(
      std::function<void(const InvalidatedPairs&)> listener) {
    invalidation_listener_ = std::move(listener);
  }
  const std::function<void(const InvalidatedPairs&)>& invalidation_listener()
      const {
    return invalidation_listener_;
  }

  /// Built model; null before the first Build().
  const RecModel* model() const { return model_.get(); }
  RecModel* mutable_model() { return model_.get(); }

  /// Test seam: install a model that did not come from Build() (e.g. a
  /// stub without incremental support). Resets maintenance pressure as a
  /// real build would and rebuilds the bound index against it.
  void AdoptModelForTest(std::unique_ptr<RecModel> model) {
    matrix_->Freeze();
    model_ = std::move(model);
    base_size_ = matrix_->NumRatings();
    candidate_index_ = CandidateIndex::Build(*model_);
  }

  /// Bounded Top-k bound index, rebuilt with the model at
  /// Build()/CommitRefresh; null before the first Build() and for models
  /// that publish no bound table (CF).
  std::shared_ptr<const CandidateIndex> candidate_index() const {
    return candidate_index_;
  }

  /// The one matrix: writes land in it and scoring reads its row view.
  const RatingMatrix& live() const { return *matrix_; }
  RatingMatrix* mutable_matrix() { return matrix_.get(); }

  size_t base_size() const { return base_size_; }

  /// Pre-computed score store (paper Section IV-C); populated by the cache
  /// manager or by full materialization.
  RecScoreIndex* score_index() { return &score_index_; }
  const RecScoreIndex& score_index() const { return score_index_; }

  /// Materialize predicted scores for every (user, unseen item) pair —
  /// HOTNESS-THRESHOLD = 0 behaviour. Expensive; benchmarks and tests use it
  /// to study the pre-computation upper bound.
  Status MaterializeAll();

  /// Materialize one user's scores for all unseen items (what the cache
  /// manager does for a hot user).
  Status MaterializeUser(int64_t user_id);

 private:
  /// Evict score-index entries staled by a mutation of (user, item),
  /// scoped to what the algorithm family can actually change, then notify
  /// the invalidation listener.
  void InvalidateForIngest(int64_t user_id, int64_t item_id);
  void CollectIngestInvalidations(int64_t user_id, int64_t item_id,
                                  InvalidatedPairs* out);
  void NotifyInvalidated(InvalidatedPairs&& pairs);

  RecommenderConfig config_;
  std::shared_ptr<RatingMatrix> matrix_;
  std::unique_ptr<RecModel> model_;
  std::shared_ptr<const CandidateIndex> candidate_index_;
  size_t base_size_ = 0;
  std::atomic<bool> refresh_scheduled_{false};
  std::function<void(const InvalidatedPairs&)> invalidation_listener_;
  RecScoreIndex score_index_;
};

}  // namespace recdb
