#include "ontop/external_recommender.h"

namespace recdb::ontop {

Status ExternalRecommender::Build() {
  auto snapshot = std::make_shared<RatingMatrix>(*ratings_);
  model_ = BuildRecModel(opts_.algorithm, std::move(snapshot),
                         opts_.sim_opts, opts_.svd_opts);
  if (model_ == nullptr) return Status::Internal("external model build failed");
  return Status::OK();
}

double ExternalRecommender::Predict(int64_t user_id, int64_t item_id) const {
  RECDB_DCHECK(model_ != nullptr);
  return model_->Predict(user_id, item_id);
}

std::vector<std::pair<int64_t, double>> ExternalRecommender::ScoreAllForUser(
    int64_t user_id) const {
  RECDB_DCHECK(model_ != nullptr);
  const RatingMatrix& r = model_->ratings();
  std::vector<std::pair<int64_t, double>> out;
  auto u = r.UserIndex(user_id);
  if (!u) return out;
  // Score the user's unseen items in one PredictBatch — the same batch
  // kernels the in-engine operators use, so the RecDB / OnTopDB comparison
  // stays an architecture comparison.
  const std::vector<int64_t> unseen = r.UnseenItemIds(*u);
  std::vector<double> scores(unseen.size(), 0.0);
  model_->PredictBatch(user_id, unseen, scores);
  out.reserve(unseen.size());
  for (size_t i = 0; i < unseen.size(); ++i) {
    out.emplace_back(unseen[i], scores[i]);
  }
  return out;
}

}  // namespace recdb::ontop
