// Neighborhood-based collaborative filtering models.
//
// ItemCFModel keeps the paper's Item Neighborhood Table (per-item similarity
// lists); prediction follows Eq. (2): similarity-weighted average of the
// user's ratings over the intersection of the item's neighborhood and the
// user's rated items, normalized by Σ|sim|. UserCFModel is the symmetric
// user-user variant (paper Section IV-A.2). Both store their table as one
// NeighborRow per entity (neighbor_row.h), built, refreshed and read by one
// body (NeighborhoodModel); each adds only its Eq. (2) kernel.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "recommender/model.h"
#include "recommender/similarity.h"

namespace recdb {

/// One neighborhood table over one side of the matrix: the build, the
/// refresh and the lookups ItemCF and UserCF share.
class NeighborhoodModel : public RecModel {
 public:
  /// Similarity of two entities of the table's side by external id (0 when
  /// either is unknown or the pair is not in the neighborhood list). A walk
  /// of the index-sorted row: an inspection aid, not on any query path.
  double Similarity(int64_t a, int64_t b) const;

  /// The neighborhood row of an entity (dense indices), test/inspection aid.
  const NeighborRow& NeighborhoodAt(int32_t idx) const {
    return neighborhoods_[idx];
  }
  /// The whole table, [idx]: what the scoring kernels walk.
  std::span<const NeighborRow> neighborhoods() const { return neighborhoods_; }

  size_t ApproxBytes() const override;

  /// Total neighbor entries across all lists (model-size ablations).
  size_t NumNeighborEntries() const;

  /// Incremental maintenance, bit-identical to a full rebuild: both build
  /// their rows through BuildNeighborRows. A rating op changes only its
  /// entity's vector on this side. Untruncated (top_k == 0), the refresh
  /// recomputes the op entities' rows and mirrors each one's entries into
  /// its neighbors' rows (ModelUpdate::mirror_rows). A truncated row can
  /// change whenever any sim in it moves, so top_k > 0 recomputes every row
  /// an op can reach: the op's entity, every entity sharing a dimension
  /// with it, and every entity of the op's dimension.
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override;
  void ApplyDeltaUpdate(ModelUpdate&& update) override;

 protected:
  /// Freezes `ratings` and builds every row of `side`'s table.
  NeighborhoodModel(std::shared_ptr<RatingMatrix> ratings, CfSide side,
                    bool centered, const SimilarityOptions& opts);

  CfSide side_;
  SimilarityOptions opts_;  // as resolved at build time (centered included)
  std::vector<NeighborRow> neighborhoods_;  // [side index]
};

class ItemCFModel : public NeighborhoodModel {
 public:
  /// Build from a ratings snapshot (frozen to flat CSR as a side effect).
  /// `centered` selects Pearson (ItemPearCF) vs plain cosine (ItemCosCF).
  static std::unique_ptr<ItemCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return opts_.centered ? RecAlgorithm::kItemPearCF
                          : RecAlgorithm::kItemCosCF;
  }

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
  ItemCFModel(std::shared_ptr<RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts)
      : NeighborhoodModel(std::move(ratings), CfSide::kItem, centered, opts) {}
};

class UserCFModel : public NeighborhoodModel {
 public:
  static std::unique_ptr<UserCFModel> Build(
      std::shared_ptr<RatingMatrix> ratings, bool centered,
      const SimilarityOptions& opts = {});

  RecAlgorithm algorithm() const override {
    return opts_.centered ? RecAlgorithm::kUserPearCF
                          : RecAlgorithm::kUserCosCF;
  }

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
  UserCFModel(std::shared_ptr<RatingMatrix> ratings, bool centered,
              const SimilarityOptions& opts)
      : NeighborhoodModel(std::move(ratings), CfSide::kUser, centered, opts) {}
};

}  // namespace recdb
