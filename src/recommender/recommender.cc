#include "recommender/recommender.h"

#include <algorithm>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

void Recommender::AddRating(int64_t user_id, int64_t item_id, double rating) {
  const size_t delta_before = matrix_->delta_size();
  RatingChange change = matrix_->Add(user_id, item_id, rating);
  if (change == RatingChange::kUnchanged) return;
  obs::Count(change == RatingChange::kInserted
                 ? obs::Counter::kIngestDeltaAdds
                 : obs::Counter::kIngestDeltaOverwrites);
  const size_t landed = matrix_->delta_size() - delta_before;
  if (landed > 0) {
    obs::AddGauge(obs::Gauge::kIngestDeltaPending,
                  static_cast<int64_t>(landed));
    InvalidateForIngest(user_id, item_id);
  }
}

void Recommender::RemoveRating(int64_t user_id, int64_t item_id) {
  const size_t delta_before = matrix_->delta_size();
  if (!matrix_->Remove(user_id, item_id)) return;
  obs::Count(obs::Counter::kIngestDeltaRemoves);
  const size_t landed = matrix_->delta_size() - delta_before;
  if (landed > 0) {
    obs::AddGauge(obs::Gauge::kIngestDeltaPending,
                  static_cast<int64_t>(landed));
    InvalidateForIngest(user_id, item_id);
  }
}

void Recommender::ApplyRatingBatch(
    const std::vector<RatingMatrix::BatchRatingOp>& ops) {
  const size_t delta_before = matrix_->delta_size();
  RatingMatrix::BatchResult res = matrix_->ApplyBatch(ops);
  if (res.effective_ops() == 0) return;
  obs::Count(obs::Counter::kIngestDeltaAdds, res.inserted);
  obs::Count(obs::Counter::kIngestDeltaOverwrites, res.overwritten);
  obs::Count(obs::Counter::kIngestDeltaRemoves, res.removed);
  obs::Count(obs::Counter::kIngestBatches);
  obs::Count(obs::Counter::kIngestBatchOps, res.effective_ops());
  const size_t landed = matrix_->delta_size() - delta_before;
  if (landed == 0) return;
  obs::AddGauge(obs::Gauge::kIngestDeltaPending,
                static_cast<int64_t>(landed));
  // One invalidation sweep and one listener callback per statement.
  InvalidatedPairs pairs;
  for (size_t k = 0; k < ops.size(); ++k) {
    if (!res.effective[k]) continue;
    CollectIngestInvalidations(ops[k].user_id, ops[k].item_id, &pairs);
  }
  NotifyInvalidated(std::move(pairs));
}

void Recommender::InvalidateForIngest(int64_t user_id, int64_t item_id) {
  InvalidatedPairs pairs;
  CollectIngestInvalidations(user_id, item_id, &pairs);
  NotifyInvalidated(std::move(pairs));
}

void Recommender::CollectIngestInvalidations(int64_t user_id, int64_t item_id,
                                             InvalidatedPairs* out) {
  InvalidatedPairs pairs;
  switch (config_.algorithm) {
    case RecAlgorithm::kItemCosCF:
    case RecAlgorithm::kItemPearCF:
      // The user's own rated vector feeds every one of their predictions
      // (Eq. 2 gathers neighborhoods against it): all of u's cached scores
      // are stale. Other users' predictions depend on the neighborhood
      // table, which only moves at refresh time.
      pairs = score_index_.EraseUserCollect(user_id);
      break;
    case RecAlgorithm::kUserCosCF:
    case RecAlgorithm::kUserPearCF:
      // Item i's rater row feeds every user's prediction *for i*; u is not
      // its own neighbor, so u's scores for other items are untouched.
      pairs = score_index_.EraseItem(item_id);
      if (score_index_.Erase(user_id, item_id)) {
        pairs.emplace_back(user_id, item_id);
      }
      break;
    case RecAlgorithm::kSVD:
      // Factors only move at refresh (fold-in); the rating itself merely
      // makes (u, i) a seen pair.
      if (score_index_.Erase(user_id, item_id)) {
        pairs.emplace_back(user_id, item_id);
      }
      break;
  }
  out->insert(out->end(), pairs.begin(), pairs.end());
}

void Recommender::NotifyInvalidated(InvalidatedPairs&& pairs) {
  if (pairs.empty()) return;
  obs::Count(obs::Counter::kIngestIndexInvalidations, pairs.size());
  if (invalidation_listener_) invalidation_listener_(pairs);
}

Result<double> Recommender::Build() {
  Stopwatch watch;
  // Merge any pending delta first so the model trains over flat state,
  // then train in place: later mutations land in live rows and never
  // disturb the base, so no defensive matrix copy is needed.
  const size_t delta_cleared = matrix_->delta_size();
  matrix_->Freeze();
  std::unique_ptr<RecModel> model =
      BuildRecModel(config_.algorithm, matrix_, config_.sim_opts,
                    config_.svd_opts);
  if (model == nullptr) {
    return Status::Internal("model construction failed for " + config_.name);
  }
  model_ = std::move(model);
  candidate_index_ = CandidateIndex::Build(*model_);
  base_size_ = matrix_->NumRatings();
  if (delta_cleared > 0) {
    obs::AddGauge(obs::Gauge::kIngestDeltaPending,
                  -static_cast<int64_t>(delta_cleared));
  }
  obs::Count(obs::Counter::kModelBuilds);
  obs::ObserveUs(obs::Histogram::kModelTrainUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return watch.ElapsedSeconds();
}

Result<Recommender::RefreshPlan> Recommender::PrepareRefresh() const {
  RefreshPlan plan;
  if (model_ == nullptr || !matrix_->has_delta()) return plan;
  Stopwatch watch;
  plan.csr = matrix_->BuildMergedCsr();
  plan.ops = matrix_->delta_size();
  auto update = model_->PrepareDeltaUpdate(matrix_->delta_ops());
  RECDB_RETURN_NOT_OK(update.status());
  plan.update = std::move(update).value();
  plan.valid = true;
  obs::ObserveUs(obs::Histogram::kIngestRefreshUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return plan;
}

bool Recommender::CommitRefresh(RefreshPlan&& plan) {
  if (!plan.valid) return false;
  Stopwatch watch;
  if (!matrix_->CommitRefreeze(std::move(plan.csr))) {
    obs::Count(obs::Counter::kIngestRefreshConflicts);
    return false;
  }
  InvalidatedPairs pairs;
  if (plan.update.full_rebuild) {
    // The model has no incremental form: retrain it from the merged (now
    // base) matrix and drop every cached score — nothing narrower is known
    // to be safe.
    std::vector<int64_t> users;
    score_index_.ForEach([&](int64_t user, int64_t, double) {
      if (users.empty() || users.back() != user) users.push_back(user);
    });
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    for (int64_t user : users) {
      auto erased = score_index_.EraseUserCollect(user);
      pairs.insert(pairs.end(), erased.begin(), erased.end());
    }
    std::unique_ptr<RecModel> rebuilt =
        BuildRecModel(config_.algorithm, matrix_, config_.sim_opts,
                    config_.svd_opts);
    if (rebuilt != nullptr) model_ = std::move(rebuilt);
    obs::Count(obs::Counter::kIngestFullRebuilds);
    obs::Count(obs::Counter::kModelBuilds);
  } else {
    for (int64_t user : plan.update.stale_users) {
      auto erased = score_index_.EraseUserCollect(user);
      pairs.insert(pairs.end(), erased.begin(), erased.end());
    }
    for (int64_t item : plan.update.stale_items) {
      auto erased = score_index_.EraseItem(item);
      pairs.insert(pairs.end(), erased.begin(), erased.end());
    }
    model_->ApplyDeltaUpdate(std::move(plan.update));
  }
  // Bounds from the just-patched (or rebuilt) model over the new base — the
  // published (base, model, index) triple is coherent.
  candidate_index_ = CandidateIndex::Build(*model_);
  base_size_ = matrix_->NumRatings();
  obs::AddGauge(obs::Gauge::kIngestDeltaPending,
                -static_cast<int64_t>(plan.ops));
  obs::Count(obs::Counter::kIngestRefreshes);
  obs::ObserveUs(obs::Histogram::kIngestSwapUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  NotifyInvalidated(std::move(pairs));
  return true;
}

Result<bool> Recommender::Refresh() {
  auto plan = PrepareRefresh();
  RECDB_RETURN_NOT_OK(plan.status());
  if (!plan.value().valid) return false;
  // Prepare and commit run back to back on one thread (writer lock held),
  // so the version cannot move and the commit cannot conflict.
  return CommitRefresh(std::move(plan).value());
}

Status Recommender::MaterializeUser(int64_t user_id) {
  if (model_ == nullptr) {
    return Status::ExecutionError("recommender " + config_.name +
                                  " has no built model");
  }
  Stopwatch watch;
  const RatingMatrix& r = *matrix_;
  auto uopt = r.UserIndex(user_id);
  if (!uopt) return Status::NotFound("unknown user");
  // Collect the user's unseen items, predict their scores in parallel
  // (Predict is a const read of the model), then insert serially — the
  // score index is not thread-safe and insertion order is kept stable.
  const std::vector<int64_t> unseen = r.UnseenItemIds(*uopt);
  std::vector<double> scores(unseen.size(), 0.0);
  TaskScheduler& sched = TaskScheduler::Global();
  const size_t morsel =
      std::clamp<size_t>(unseen.size() / (sched.num_threads() * 4), 32, 4096);
  sched.ParallelFor(unseen.size(), morsel, [&](size_t begin, size_t end) {
    // One PredictBatch per morsel: each score depends only on its own
    // (user, item) pair, so morsel boundaries cannot change results.
    model_->PredictBatch(
        user_id, std::span<const int64_t>(unseen.data() + begin, end - begin),
        std::span<double>(scores.data() + begin, end - begin));
  });
  for (size_t i = 0; i < unseen.size(); ++i) {
    score_index_.Put(user_id, unseen[i], scores[i]);
  }
  obs::ObserveUs(obs::Histogram::kCacheMaterializeUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return Status::OK();
}

Status Recommender::MaterializeAll() {
  if (model_ == nullptr) {
    return Status::ExecutionError("recommender " + config_.name +
                                  " has no built model");
  }
  const RatingMatrix& r = *matrix_;
  for (size_t u = 0; u < r.NumUsers(); ++u) {
    RECDB_RETURN_NOT_OK(
        MaterializeUser(r.UserIdAt(static_cast<int32_t>(u))));
  }
  return Status::OK();
}

}  // namespace recdb
