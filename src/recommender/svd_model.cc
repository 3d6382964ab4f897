#include "recommender/svd_model.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace recdb {

namespace {

/// Deterministic pair hash for the holdout split.
uint64_t PairHash(int64_t u, int64_t i) {
  uint64_t h = static_cast<uint64_t>(u) * 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<uint64_t>(i) + 0x7f4a7c159e3779b9ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

std::unique_ptr<SvdModel> SvdModel::Build(
    std::shared_ptr<RatingMatrix> ratings, const SvdOptions& opts) {
  return BuildWithHoldout(std::move(ratings), opts, /*holdout_mod=*/0);
}

std::unique_ptr<SvdModel> SvdModel::BuildWithHoldout(
    std::shared_ptr<RatingMatrix> ratings, const SvdOptions& opts,
    int32_t holdout_mod) {
  ratings->Freeze();
  auto model = std::unique_ptr<SvdModel>(new SvdModel(std::move(ratings), opts));
  model->Train(holdout_mod);
  return model;
}

void SvdModel::Train(int32_t holdout_mod) {
  const RatingMatrix& r = *ratings_;
  const size_t nu = r.NumUsers();
  const size_t ni = r.NumItems();
  const int32_t f = opts_.num_factors;
  global_mean_ = r.GlobalMean();

  Rng rng(opts_.seed);
  const double init_scale = 1.0 / std::sqrt(static_cast<double>(f));
  // Same draw order as the old vector-of-vectors layout (entity-major, then
  // factor), so flattening does not change the trained model.
  user_factors_.assign(nu * static_cast<size_t>(f), 0.0f);
  item_factors_.assign(ni * static_cast<size_t>(f), 0.0f);
  for (auto& v : user_factors_)
    v = static_cast<float>(rng.Gaussian(0, init_scale));
  for (auto& v : item_factors_)
    v = static_cast<float>(rng.Gaussian(0, init_scale));
  user_bias_.assign(nu, 0.0f);
  item_bias_.assign(ni, 0.0f);

  // Flatten training triples; hold out a deterministic slice if requested.
  struct Triple {
    int32_t u, i;
    float rating;
  };
  std::vector<Triple> train, held;
  train.reserve(r.NumRatings());
  for (size_t u = 0; u < nu; ++u) {
    const CsrRow row = r.UserCsrRow(static_cast<int32_t>(u));
    for (size_t k = 0; k < row.n; ++k) {
      Triple t{static_cast<int32_t>(u), row.idx[k],
               static_cast<float>(row.rating[k])};
      bool hold =
          holdout_mod > 1 &&
          PairHash(r.UserIdAt(t.u), r.ItemIdAt(t.i)) % holdout_mod == 0;
      (hold ? held : train).push_back(t);
    }
  }

  const float lr = static_cast<float>(opts_.learning_rate);
  const float lambda = static_cast<float>(opts_.regularization);
  const bool biases = opts_.use_biases;
  const float mean = biases ? static_cast<float>(global_mean_) : 0.0f;

  epoch_rmse_.clear();
  for (int32_t epoch = 0; epoch < opts_.num_epochs; ++epoch) {
    std::shuffle(train.begin(), train.end(), rng.engine());
    double se = 0;
    for (const auto& t : train) {
      float* pu = user_factors_.data() + static_cast<size_t>(t.u) * f;
      float* qi = item_factors_.data() + static_cast<size_t>(t.i) * f;
      float pred = mean;
      if (biases) pred += user_bias_[t.u] + item_bias_[t.i];
      for (int32_t k = 0; k < f; ++k) pred += pu[k] * qi[k];
      float err = t.rating - pred;
      se += static_cast<double>(err) * err;
      if (biases) {
        user_bias_[t.u] += lr * (err - lambda * user_bias_[t.u]);
        item_bias_[t.i] += lr * (err - lambda * item_bias_[t.i]);
      }
      for (int32_t k = 0; k < f; ++k) {
        float puk = pu[k];
        pu[k] += lr * (err * qi[k] - lambda * puk);
        qi[k] += lr * (err * puk - lambda * qi[k]);
      }
    }
    epoch_rmse_.push_back(
        train.empty() ? 0 : std::sqrt(se / static_cast<double>(train.size())));
  }

  if (!held.empty()) {
    double se = 0;
    for (const auto& t : held) {
      double err = t.rating - PredictByIndex(t.u, t.i);
      se += err * err;
    }
    holdout_rmse_ = std::sqrt(se / static_cast<double>(held.size()));
  }
}

double SvdModel::PredictByIndex(int32_t u, int32_t i) const {
  const int32_t f = opts_.num_factors;
  if (u < 0 || static_cast<size_t>(u) >= NumUserRows() || i < 0 ||
      static_cast<size_t>(i) >= NumItemRows()) {
    // Interned after training and not yet folded in: no factor row.
    return 0;
  }
  const float* pu = user_factors_.data() + static_cast<size_t>(u) * f;
  const float* qi = item_factors_.data() + static_cast<size_t>(i) * f;
  double pred = 0;
  if (opts_.use_biases) {
    pred = global_mean_ + user_bias_[u] + item_bias_[i];
  }
  for (int32_t k = 0; k < f; ++k) {
    pred += static_cast<double>(pu[k]) * qi[k];
  }
  return pred;
}

void SvdModel::DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                              std::span<double> out) const {
  RECDB_DCHECK(items.size() == out.size());
  if (user_idx < 0 || static_cast<size_t>(user_idx) >= NumUserRows()) {
    // Unknown user, or one interned after training whose factor row has
    // not been folded in yet.
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  // The user's factor row is resolved once; each candidate is then a dot
  // product streaming the contiguous row-major item factor rows, four at a
  // time in the widest variant this CPU runs (svd_kernel.h).
  ScoreItemRows(SupportedKernelVariants().back(), UserFactors(user_idx).data(),
                UserBase(user_idx), ItemRows(), items, out);
}

ItemFactorRows SvdModel::ItemRows() const {
  return {item_factors_.data(),
          opts_.use_biases ? item_bias_.data() : nullptr, NumItemRows(),
          opts_.num_factors};
}

double SvdModel::UserBase(int32_t user_idx) const {
  return opts_.use_biases ? global_mean_ + user_bias_[user_idx] : 0.0;
}

std::span<const float> SvdModel::UserFactors(int32_t user_idx) const {
  const int32_t f = opts_.num_factors;
  return {user_factors_.data() + static_cast<size_t>(user_idx) * f,
          static_cast<size_t>(f)};
}

std::span<const float> SvdModel::ItemFactors(int32_t item_idx) const {
  const int32_t f = opts_.num_factors;
  return {item_factors_.data() + static_cast<size_t>(item_idx) * f,
          static_cast<size_t>(f)};
}

Result<ModelUpdate> SvdModel::PrepareDeltaUpdate(
    const std::vector<DeltaOp>& ops) const {
  (void)ops;  // fold-in scope is "every entity newer than the trained rows"
  ModelUpdate update;
  const RatingMatrix& r = *ratings_;
  update.num_users = r.NumUsers();
  update.num_items = r.NumItems();
  const int32_t f = opts_.num_factors;
  const size_t trained_users = NumUserRows();
  const size_t trained_items = NumItemRows();
  const float lr = static_cast<float>(opts_.learning_rate);
  const float lambda = static_cast<float>(opts_.regularization);
  const bool biases = opts_.use_biases;
  const float mean = biases ? static_cast<float>(global_mean_) : 0.0f;

  // Fold new users first, against trained item rows only: zero-init, then
  // fold_in_epochs deterministic SGD passes over the user's merged ratings
  // in ascending item order. Ratings of items that are themselves new are
  // skipped (no trained factor row to regress against).
  for (size_t u = trained_users; u < update.num_users; ++u) {
    std::vector<float> pu(static_cast<size_t>(f), 0.0f);
    const CsrRow rated = r.UserCsrRow(static_cast<int32_t>(u));
    for (int32_t epoch = 0; epoch < opts_.fold_in_epochs; ++epoch) {
      for (size_t e = 0; e < rated.n; ++e) {
        const int32_t i = rated.idx[e];
        if (static_cast<size_t>(i) >= trained_items) continue;
        const float* qi = item_factors_.data() + static_cast<size_t>(i) * f;
        float pred = mean;
        if (biases) pred += item_bias_[i];  // new user's bias stays 0
        for (int32_t k = 0; k < f; ++k) pred += pu[k] * qi[k];
        float err = static_cast<float>(rated.rating[e]) - pred;
        for (int32_t k = 0; k < f; ++k) {
          pu[k] += lr * (err * qi[k] - lambda * pu[k]);
        }
      }
    }
    update.user_rows.emplace_back(static_cast<int32_t>(u), std::move(pu));
    update.stale_users.push_back(r.UserIdAt(static_cast<int32_t>(u)));
  }

  // Then new items, against all user rows including the just-folded ones.
  auto user_row = [&](int32_t u) -> const float* {
    if (static_cast<size_t>(u) < trained_users) {
      return user_factors_.data() + static_cast<size_t>(u) * f;
    }
    size_t off = static_cast<size_t>(u) - trained_users;
    return off < update.user_rows.size() ? update.user_rows[off].second.data()
                                         : nullptr;
  };
  for (size_t i = trained_items; i < update.num_items; ++i) {
    std::vector<float> qi(static_cast<size_t>(f), 0.0f);
    const CsrRow raters = r.ItemCsrRow(static_cast<int32_t>(i));
    for (int32_t epoch = 0; epoch < opts_.fold_in_epochs; ++epoch) {
      for (size_t e = 0; e < raters.n; ++e) {
        const int32_t u = raters.idx[e];
        const float* pu = user_row(u);
        if (!pu) continue;
        float pred = mean;
        if (biases && static_cast<size_t>(u) < trained_users) {
          pred += user_bias_[u];  // new item's bias stays 0
        }
        for (int32_t k = 0; k < f; ++k) pred += pu[k] * qi[k];
        float err = static_cast<float>(raters.rating[e]) - pred;
        for (int32_t k = 0; k < f; ++k) {
          qi[k] += lr * (err * pu[k] - lambda * qi[k]);
        }
      }
    }
    update.item_rows.emplace_back(static_cast<int32_t>(i), std::move(qi));
    update.stale_items.push_back(r.ItemIdAt(static_cast<int32_t>(i)));
  }
  return update;
}

void SvdModel::ApplyDeltaUpdate(ModelUpdate&& update) {
  const size_t f = static_cast<size_t>(opts_.num_factors);
  if (update.num_users * f > user_factors_.size()) {
    user_factors_.resize(update.num_users * f, 0.0f);
    user_bias_.resize(update.num_users, 0.0f);
  }
  if (update.num_items * f > item_factors_.size()) {
    item_factors_.resize(update.num_items * f, 0.0f);
    item_bias_.resize(update.num_items, 0.0f);
  }
  size_t folded = 0;
  for (auto& [idx, row] : update.user_rows) {
    if (idx < 0 || static_cast<size_t>(idx) >= NumUserRows()) continue;
    std::copy(row.begin(), row.end(),
              user_factors_.begin() + static_cast<size_t>(idx) * f);
    ++folded;
  }
  for (auto& [idx, row] : update.item_rows) {
    if (idx < 0 || static_cast<size_t>(idx) >= NumItemRows()) continue;
    std::copy(row.begin(), row.end(),
              item_factors_.begin() + static_cast<size_t>(idx) * f);
    ++folded;
  }
  obs::Count(obs::Counter::kIngestSvdFoldIns, folded);
}

bool SvdModel::ComputePruneBounds(PruneBoundTable* out) const {
  const int32_t f = opts_.num_factors;
  const size_t ni = NumItemRows();
  out->item_scale.resize(ni);
  for (size_t i = 0; i < ni; ++i) {
    const float* qi = item_factors_.data() + i * static_cast<size_t>(f);
    double sq = 0;
    for (int32_t k = 0; k < f; ++k) {
      sq += static_cast<double>(qi[k]) * qi[k];
    }
    out->item_scale[i] = std::sqrt(sq);
  }
  out->item_offset.clear();
  if (opts_.use_biases) {
    out->item_offset.assign(item_bias_.begin(), item_bias_.begin() + ni);
  }
  // The kernel accumulates in float lanes (svd_kernel.h); its result can
  // exceed the real-valued ‖p‖‖q‖ bound by O(f·eps_float) relative.
  out->slack = 1e-5;
  // Items without a factor row (interned since) score exactly 0 until
  // folded in, as the table's contract requires.
  return true;
}

double SvdModel::PruneUserScale(int32_t user_idx) const {
  if (user_idx < 0 || static_cast<size_t>(user_idx) >= NumUserRows()) {
    return 0.0;
  }
  const int32_t f = opts_.num_factors;
  const float* pu =
      user_factors_.data() + static_cast<size_t>(user_idx) * f;
  double sq = 0;
  for (int32_t k = 0; k < f; ++k) {
    sq += static_cast<double>(pu[k]) * pu[k];
  }
  return std::sqrt(sq);
}

double SvdModel::PruneUserOffset(int32_t user_idx) const {
  if (!opts_.use_biases || user_idx < 0 ||
      static_cast<size_t>(user_idx) >= NumUserRows()) {
    return 0.0;
  }
  return global_mean_ + static_cast<double>(user_bias_[user_idx]);
}

bool SvdModel::PruneUserAllZero(int32_t user_idx) const {
  // A user without a factor row is zero-filled by the kernel regardless of
  // biases, so the generic scale==0 inference would be wrong with biases on.
  return user_idx < 0 || static_cast<size_t>(user_idx) >= NumUserRows();
}

size_t SvdModel::ApproxBytes() const {
  return (user_factors_.capacity() + item_factors_.capacity()) *
             sizeof(float) +
         (user_bias_.capacity() + item_bias_.capacity()) * sizeof(float) +
         ratings_->CsrApproxBytes();
}

}  // namespace recdb
