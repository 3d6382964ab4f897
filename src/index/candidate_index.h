// CandidateIndex: the bound index of the bounded Top-k (DESIGN.md §13),
// built only for a model that publishes a PruneBoundTable (SVD).
//
// WAND-style block bounds — the model's per-item static upper-bound terms
// ordered descending and cut into blocks of kBlockSize, each carrying its
// max scale/offset plus suffix maxima, so a Top-k loop can skip whole
// blocks (and stop entirely) once no remaining bound can beat the running
// k-th score — plus the items in external-id order, the tie-break order of
// the IndexRecommend fallback's zero-score merge.
//
// CF models publish no bound table and get no index: their Top-k is dense
// selection over every unrated item (PruneEngine::UserTopK), which needs
// no candidate set. The index is built at Recommender::Build() right after
// the freeze, and under the writer lock at CommitRefresh after the model
// rows are patched, so the published index always matches the model
// queries see.
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
  /// its base. Returns null when the model publishes no bound table.
  static std::shared_ptr<CandidateIndex> Build(const RatingMatrix& matrix,
                                               const RecModel& model);

  const PruneBoundTable& bounds() const { return bounds_; }
  /// Number of items covered by the bound table; an item index at or above
  /// this scores exactly 0.0 (PruneBoundTable) and is left to the
  /// zero-score merge.
  size_t bound_table_size() const { return bounds_.item_scale.size(); }

  const std::vector<Block>& blocks() const { return blocks_; }
  /// Item indices sorted by descending static bound (blocks index this).
  const std::vector<int32_t>& order() const { return order_; }
  /// The matrix's item indices at build time, sorted by ascending external
  /// id — the tie-break order of the IndexRecommend fallback's zero-score
  /// merge.
  const std::vector<int32_t>& order_by_id() const { return order_by_id_; }

 private:
  CandidateIndex() = default;
  /// Order the bound table and cut it into blocks.
  void BuildBlocks();

  PruneBoundTable bounds_;
  std::vector<int32_t> order_;
  std::vector<int32_t> order_by_id_;
  std::vector<Block> blocks_;
};

}  // namespace recdb
