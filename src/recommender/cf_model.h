// Neighborhood-based collaborative filtering models.
//
// ItemCFModel keeps the paper's Item Neighborhood Table (per-item similarity
// lists); prediction follows Eq. (2): similarity-weighted average of the
// user's ratings over the intersection of the item's neighborhood and the
// user's rated items, normalized by Σ|sim|. UserCFModel is the symmetric
// user-user variant (paper Section IV-A.2). Both store their table as one
// NeighborRow per entity (neighbor_row.h).
#pragma once

#include <memory>
#include <vector>

#include "recommender/model.h"
#include "recommender/similarity.h"

namespace recdb {

class ItemCFModel : public RecModel {
 public:
  /// Build from a ratings snapshot (frozen to flat CSR as a side effect).
  /// `centered` selects Pearson (ItemPearCF) vs plain cosine (ItemCosCF).
  static std::unique_ptr<ItemCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return centered_ ? RecAlgorithm::kItemPearCF : RecAlgorithm::kItemCosCF;
  }

  /// Similarity of two items by external id (0 when either is unknown or
  /// the pair is not in the neighborhood list). A binary search of the
  /// index-sorted row: an inspection aid, not on any query path.
  double Similarity(int64_t item_a, int64_t item_b) const;

  /// The neighborhood row of an item (dense indices), test/inspection aid.
  const NeighborRow& NeighborhoodAt(int32_t item_idx) const {
    return neighborhoods_[item_idx];
  }
  /// The whole table, [item_idx]: what the scoring kernel walks.
  std::span<const NeighborRow> neighborhoods() const { return neighborhoods_; }

  size_t ApproxBytes() const override;

  /// Total neighbor entries across all lists (model-size ablations).
  size_t NumNeighborEntries() const;

  /// Incremental maintenance, bit-identical to a full rebuild. A rating op
  /// changes only its item's vector. Untruncated (top_k == 0), the refresh
  /// recomputes the op items' rows and mirrors each one's entries into its
  /// neighbors' rows (ModelUpdate::mirror_rows). A truncated row can change
  /// whenever any sim in it moves, so top_k > 0 recomputes every row an op
  /// can reach: the op's item, every item sharing a rater with it, and the
  /// op user's rated items.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

 protected:
  /// Eq. (2) for every candidate, each candidate's sum taken over the
  /// user's rated items in ascending index (DESIGN.md §10). Untruncated,
  /// the kernel runs transposed: each rated item j's runs are walked over
  /// the batch's index range into dense num/den arrays, Σ|N(j)| work per
  /// user instead of candidates × |N|; the table's symmetry makes that the
  /// same sum, and a run's zero cells add +0 terms that change no bits.
  /// Truncated rows are not symmetric, so top_k > 0 gathers each
  /// candidate's row against the user's scattered ratings instead.
  void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                      std::span<double> out) const override;

 private:
  ItemCFModel(std::shared_ptr<const RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts,
              std::vector<NeighborRow> neighborhoods);

  bool centered_;
  SimilarityOptions opts_;  // as resolved at build time (centered included)
  std::vector<NeighborRow> neighborhoods_;  // [item_idx]
};

class UserCFModel : public RecModel {
 public:
  static std::unique_ptr<UserCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return centered_ ? RecAlgorithm::kUserPearCF : RecAlgorithm::kUserCosCF;
  }

  double Similarity(int64_t user_a, int64_t user_b) const;

  const NeighborRow& NeighborhoodAt(int32_t user_idx) const {
    return neighborhoods_[user_idx];
  }

  size_t ApproxBytes() const override;
  size_t NumNeighborEntries() const;

  /// User-side counterpart of ItemCFModel::PrepareDeltaUpdate: untruncated,
  /// the op users' rows are recomputed and mirrored into their co-rating
  /// users' rows.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

 protected:
  /// Eq. (2) over the user side, each candidate's sum taken over its
  /// raters in N(u) in ascending user index. Two kernels give those bits,
  /// picked per call by average row length: a gather walks each
  /// candidate's rater row against the scattered neighbor sims (small
  /// batches, dense data); a scatter walks each neighbor's rated items
  /// into catalog-wide num/den accumulators (large batches on sparse
  /// data, where most candidates have no rater in N(u)).
  void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                      std::span<double> out) const override;

 private:
  UserCFModel(std::shared_ptr<const RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts,
              std::vector<NeighborRow> neighborhoods);

  bool centered_;
  SimilarityOptions opts_;  // as resolved at build time (centered included)
  std::vector<NeighborRow> neighborhoods_;  // [user_idx]
};

}  // namespace recdb
