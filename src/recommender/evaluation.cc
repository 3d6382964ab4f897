#include "recommender/evaluation.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace recdb {

namespace {

/// Deterministic pair hash for the holdout split (same mixing as the SVD
/// trainer's holdout, different constant so the splits are independent).
uint64_t SplitHash(int64_t u, int64_t i) {
  uint64_t h = static_cast<uint64_t>(u) * 0xc2b2ae3d27d4eb4fULL;
  h ^= static_cast<uint64_t>(i) + 0x165667b19e3779f9ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

Result<EvalResult> EvaluateAlgorithm(const RatingMatrix& full,
                                     RecAlgorithm algo,
                                     const EvalOptions& options) {
  if (options.holdout_mod < 2) {
    return Status::InvalidArgument("holdout_mod must be >= 2");
  }
  if (full.NumRatings() < 10) {
    return Status::InvalidArgument("too few ratings to evaluate");
  }

  struct TestRating {
    int64_t user, item;
    double rating;
  };
  auto train = std::make_shared<RatingMatrix>();
  std::vector<TestRating> test;
  for (size_t u = 0; u < full.NumUsers(); ++u) {
    int64_t uid = full.UserIdAt(static_cast<int32_t>(u));
    const CsrRow row = full.UserCsrRow(static_cast<int32_t>(u));
    for (size_t k = 0; k < row.n; ++k) {
      int64_t iid = full.ItemIdAt(row.idx[k]);
      if (SplitHash(uid, iid) % options.holdout_mod == 0) {
        test.push_back({uid, iid, row.rating[k]});
      } else {
        train->Add(uid, iid, row.rating[k]);
      }
    }
  }
  if (test.empty() || train->NumRatings() == 0) {
    return Status::InvalidArgument("degenerate train/test split");
  }

  auto model =
      BuildRecModel(algo, train, options.sim_opts, options.svd_opts);
  if (model == nullptr) return Status::Internal("model build failed");

  EvalResult result;
  result.num_train_ratings = train->NumRatings();
  result.num_test_ratings = test.size();

  // Prediction-error metrics. Test triples are user-major (the split loop
  // walks users in order), so consecutive runs share a user and batch
  // through one PredictBatch each.
  double se = 0, ae = 0, base_se = 0;
  const double mean = train->GlobalMean();
  std::unordered_map<int64_t, std::vector<TestRating>> by_user;
  {
    std::vector<int64_t> run_items;
    std::vector<double> run_scores;
    size_t p = 0;
    while (p < test.size()) {
      const int64_t uid = test[p].user;
      size_t q = p;
      run_items.clear();
      while (q < test.size() && test[q].user == uid) {
        run_items.push_back(test[q].item);
        ++q;
      }
      run_scores.assign(run_items.size(), 0.0);
      model->PredictBatch(uid, run_items, run_scores);
      for (size_t k = 0; k < run_items.size(); ++k) {
        const TestRating& t = test[p + k];
        double pred = run_scores[k];
        se += (pred - t.rating) * (pred - t.rating);
        ae += std::fabs(pred - t.rating);
        base_se += (mean - t.rating) * (mean - t.rating);
        by_user[t.user].push_back(t);
      }
      p = q;
    }
  }
  const double n = static_cast<double>(test.size());
  result.rmse = std::sqrt(se / n);
  result.mae = ae / n;
  result.global_mean_rmse = std::sqrt(base_se / n);

  // Ranking metrics: per user, rank every item unseen in training and check
  // how many of the top-k are relevant held-out items.
  double prec_sum = 0, rec_sum = 0;
  for (const auto& [uid, items] : by_user) {
    size_t relevant = 0;
    std::unordered_map<int64_t, bool> is_relevant;
    for (const auto& t : items) {
      if (t.rating >= options.relevance_threshold) {
        is_relevant[t.item] = true;
        ++relevant;
      }
    }
    if (relevant == 0) continue;
    auto uidx = train->UserIndex(uid);
    if (!uidx) continue;  // user has no training ratings: cold start
    std::vector<int64_t> unseen;
    for (int64_t iid : train->item_ids()) {
      if (train->Get(uid, iid).has_value()) continue;  // seen in training
      unseen.push_back(iid);
    }
    std::vector<double> pred(unseen.size(), 0.0);
    model->PredictBatch(uid, unseen, pred);
    std::vector<std::pair<double, int64_t>> scored;
    scored.reserve(unseen.size());
    for (size_t j = 0; j < unseen.size(); ++j) {
      scored.emplace_back(pred[j], unseen[j]);
    }
    size_t k = std::min(options.k, scored.size());
    if (k == 0) continue;
    std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                      [](const auto& a, const auto& b) {
                        if (a.first != b.first) return a.first > b.first;
                        return a.second < b.second;
                      });
    size_t hits = 0;
    for (size_t j = 0; j < k; ++j) {
      if (is_relevant.count(scored[j].second) > 0) ++hits;
    }
    prec_sum += static_cast<double>(hits) / static_cast<double>(options.k);
    rec_sum += static_cast<double>(hits) / static_cast<double>(relevant);
    ++result.num_ranked_users;
  }
  if (result.num_ranked_users > 0) {
    result.precision_at_k =
        prec_sum / static_cast<double>(result.num_ranked_users);
    result.recall_at_k = rec_sum / static_cast<double>(result.num_ranked_users);
  }
  return result;
}

}  // namespace recdb
