// CandidateIndex: the bound index of sublinear Top-N (DESIGN.md §13).
//
// WAND-style block bounds — the model's PruneBoundTable (per-item static
// upper-bound terms) ordered descending and cut into blocks of kBlockSize,
// each carrying its max scale/offset plus suffix maxima, so a Top-N loop
// can skip whole blocks (and stop entirely) once no remaining bound can
// beat the running k-th score — plus the base items in external-id order,
// the tie-break order of the IndexRecommend fallback's zero-score merge.
//
// Candidate generation (UserCF only) holds no copy of its own: the
// two-hop walk reads the matrix's base CSR (BaseUserCsrRow /
// BaseItemCsrRow), which is flattened at the same moments this index is
// built — at Recommender::Build() right after the freeze, and under the
// writer lock at CommitRefresh after the model rows are patched — so the
// published index always matches the (base, model) pair queries see.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "recommender/model.h"
#include "recommender/rating_matrix.h"

namespace recdb {

class CandidateIndex {
 public:
  static constexpr size_t kBlockSize = 128;

  /// A contiguous run of order(): items [begin, end) sorted by descending
  /// static bound, with block maxima and suffix (this-and-later) maxima.
  struct Block {
    uint32_t begin = 0;
    uint32_t end = 0;
    double max_scale = 0;
    double max_offset = 0;
    double suffix_scale = 0;
    double suffix_offset = 0;
  };

  /// Build against a frozen matrix and the model trained (or patched) on
  /// its base. Returns the index even when the model cannot bound its
  /// scores (prunable() is then false and the planner never chooses
  /// pruning).
  static std::shared_ptr<CandidateIndex> Build(const RatingMatrix& matrix,
                                               const RecModel& model);

  /// False when the model family cannot bound its scores — no pruned plan
  /// may be chosen.
  bool prunable() const { return prunable_; }
  const PruneBoundTable& bounds() const { return bounds_; }
  /// Number of items covered by the bound table; item indices at or above
  /// this are out-of-band (interned after the build) and are handled by
  /// the bounds().oob_must_score policy.
  size_t bound_table_size() const { return bounds_.item_scale.size(); }

  const std::vector<Block>& blocks() const { return blocks_; }
  /// Item indices sorted by descending static bound (blocks index this).
  const std::vector<int32_t>& order() const { return order_; }
  /// Item indices sorted by ascending external id — the tie-break order of
  /// the IndexRecommend fallback's zero-score merge.
  const std::vector<int32_t>& order_by_id() const { return order_by_id_; }
  /// Block id of each item index (bound_table_size() entries).
  const std::vector<int32_t>& block_of() const { return block_of_; }

 private:
  CandidateIndex() = default;
  /// The bound table from the model, ordered and cut into blocks.
  void BuildBounds(const RecModel& model);

  bool prunable_ = false;
  PruneBoundTable bounds_;
  std::vector<int32_t> order_;
  std::vector<int32_t> order_by_id_;
  std::vector<int32_t> block_of_;
  std::vector<Block> blocks_;
};

}  // namespace recdb
