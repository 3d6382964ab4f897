// SvdModel: regularized matrix factorization trained with stochastic
// gradient descent (paper Section IV-A.3, Eq. 3).
//
// Learns user factor vectors p_u and item factor vectors q_i minimizing
//   Σ (r_ui - q_i·p_u)² + λ(‖q_i‖² + ‖p_u‖²)
// Prediction is the dot product q_i·p_u (paper Algorithm 2), optionally
// offset by global mean + biases (off by default to follow Eq. 3 literally).
#pragma once

#include <memory>
#include <vector>

#include "recommender/model.h"
#include "recommender/svd_kernel.h"

namespace recdb {

struct SvdOptions {
  int32_t num_factors = 32;
  int32_t num_epochs = 25;
  double learning_rate = 0.01;
  double regularization = 0.05;  // λ in Eq. (3)
  uint64_t seed = 7;
  /// Add global mean + user/item bias terms to the model (Koren-style).
  /// Default false: the paper's Eq. (3) has factors only.
  bool use_biases = false;
  /// SGD passes used to fold in a user/item interned after training,
  /// holding the trained side fixed (incremental maintenance; a full
  /// retrain is never triggered by ingest). Not part of the wire format.
  int32_t fold_in_epochs = 10;
};

class SvdModel : public RecModel {
 public:
  /// Train on the full snapshot (frozen to flat CSR as a side effect).
  static std::unique_ptr<SvdModel> Build(
      std::shared_ptr<RatingMatrix> ratings,
      const SvdOptions& opts = {});

  /// Train while holding out every rating with (hash(u,i) % holdout_mod ==
  /// 0); held-out pairs are used for test RMSE only. holdout_mod <= 1 means
  /// no holdout. Accuracy-invariant tests use this.
  static std::unique_ptr<SvdModel> BuildWithHoldout(
      std::shared_ptr<RatingMatrix> ratings, const SvdOptions& opts,
      int32_t holdout_mod);

  RecAlgorithm algorithm() const override { return RecAlgorithm::kSVD; }

  /// Training RMSE at the end of each epoch (monotonicity checks).
  const std::vector<double>& epoch_rmse() const { return epoch_rmse_; }

  /// RMSE over the held-out set (0 when no holdout was used).
  double holdout_rmse() const { return holdout_rmse_; }

  /// Factor row accessors (paper Figure 2's User/Item Factor tables).
  /// Views into the single row-major SoA buffer per side.
  std::span<const float> UserFactors(int32_t user_idx) const;
  std::span<const float> ItemFactors(int32_t item_idx) const;

  /// The scoring kernel's inputs (svd_kernel.h): every item factor row,
  /// with the item biases when use_biases, and what a user's dot products
  /// are added to before the item bias (global mean + user bias, else 0).
  ItemFactorRows ItemRows() const;
  double UserBase(int32_t user_idx) const;

  size_t ApproxBytes() const override;

  const SvdOptions& options() const { return opts_; }

  /// Number of factor rows currently held per side (grows via fold-in).
  size_t NumUserRows() const {
    return user_factors_.size() / static_cast<size_t>(opts_.num_factors);
  }
  size_t NumItemRows() const {
    return item_factors_.size() / static_cast<size_t>(opts_.num_factors);
  }

  /// Incremental maintenance: deterministically fold in factor rows for
  /// users/items interned since training — zero-initialized, then
  /// fold_in_epochs SGD passes against the frozen counterpart factors
  /// (new users first from trained item rows, then new items against all
  /// user rows including the just-folded ones). Trained rows never move.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

  /// Cauchy–Schwarz bound: |p_u·q_i| <= ‖p_u‖·‖q_i‖, plus the exact bias
  /// offsets when use_biases (DESIGN.md §13). The slack covers the float
  /// lane accumulation of the scoring kernel exceeding the real-valued
  /// bound.
  bool ComputePruneBounds(PruneBoundTable* out) const override;
  double PruneUserScale(int32_t user_idx) const override;
  double PruneUserOffset(int32_t user_idx) const override;
  bool PruneUserAllZero(int32_t user_idx) const override;

 protected:
  /// The user's factor row is resolved once; each candidate is a dot
  /// product over contiguous row-major factor storage, scored four at a
  /// time by the CPU-dispatched kernel in svd_kernel.h. Every variant gives
  /// the same bits, with or without -march=native.
  void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                      std::span<double> out) const override;

 private:
  SvdModel(std::shared_ptr<const RatingMatrix> ratings, SvdOptions opts)
      : RecModel(std::move(ratings)), opts_(opts) {}

  void Train(int32_t holdout_mod);
  double PredictByIndex(int32_t u, int32_t i) const;

  SvdOptions opts_;
  // Flat row-major factor matrices: entity e's row is
  // [e * num_factors, (e + 1) * num_factors) — one contiguous allocation
  // per side so candidate dot products never chase a per-row pointer.
  std::vector<float> user_factors_;
  std::vector<float> item_factors_;
  std::vector<float> user_bias_;
  std::vector<float> item_bias_;
  double global_mean_ = 0;
  std::vector<double> epoch_rmse_;
  double holdout_rmse_ = 0;
};

}  // namespace recdb
