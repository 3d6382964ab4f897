// CandidateIndex: the sublinear Top-N support structure (DESIGN.md §13).
//
// Two cooperating layers, both lowered from the frozen CSR base:
//
//  (1) Inverted postings — item → rater indices and user → rated-item
//      indices, index-only copies of the base CSR adjacency. Candidate
//      generation serves UserCF only (ItemCF publishes no bound table and
//      plans its Top-k exact). A UserCF score can be nonzero only for items
//      sharing at least one co-rated item with the query user *as of model
//      build* (a nonzero similarity requires a nonzero dot, which requires
//      a shared dimension), so a two-hop walk over these postings —
//      union-merged with the delta overlay's side rows for rows touched
//      since the freeze — enumerates an exact candidate superset: every
//      non-candidate provably scores 0.0.
//
//  (2) WAND-style block bounds — the model's PruneBoundTable (per-item
//      static upper-bound terms) ordered descending and cut into blocks of
//      kBlockSize, each carrying its max scale/offset plus suffix maxima,
//      so a Top-N loop can skip whole blocks (and stop entirely) once no
//      remaining bound can beat the running k-th score.
//
// Lifecycle mirrors the matrix base: built at Recommender::Build() right
// after the freeze, and rebuilt at CommitRefresh — postings lowered
// off-lock from the merged-CSR candidate (Lower), bounds finalized under
// the writer lock after the model rows are patched (FinalizeBounds), so
// the published index always matches the (base, model) pair queries see.
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

  /// Index-only view of one postings row.
  struct Postings {
    const int32_t* idx = nullptr;
    size_t n = 0;
  };

  /// Build-time path: lower postings and finalize bounds in one step
  /// against a just-frozen matrix (base == merged). Returns the index even
  /// when the model cannot bound its scores (prunable() is then false and
  /// the planner never chooses pruning).
  static std::shared_ptr<CandidateIndex> Build(const RatingMatrix& matrix,
                                               const RecModel& model);

  /// Refresh path, phase 1 (off the writer lock): lower postings from a
  /// merged-CSR re-freeze candidate. Model-independent.
  static std::shared_ptr<CandidateIndex> Lower(
      const FlatCsr& user_csr, const FlatCsr& item_csr,
      const std::vector<int64_t>& item_ids, uint64_t version);

  /// Refresh path, phase 2 (under the writer lock, after ApplyDeltaUpdate):
  /// compute the bound table from the now-patched model and build the
  /// block structure. Must be called exactly once before publishing.
  void FinalizeBounds(const RecModel& model);

  /// False when the model family cannot bound its scores — postings are
  /// still usable, but no pruned plan may be chosen.
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

  /// Base adjacency the index was lowered from.
  size_t num_users() const {
    return user_offsets_.empty() ? 0 : user_offsets_.size() - 1;
  }
  size_t num_items() const {
    return item_offsets_.empty() ? 0 : item_offsets_.size() - 1;
  }
  Postings RatedItems(int32_t user_idx) const {
    if (user_idx < 0 || static_cast<size_t>(user_idx) >= num_users()) {
      return {};
    }
    int64_t b = user_offsets_[user_idx];
    return {user_items_.data() + b,
            static_cast<size_t>(user_offsets_[user_idx + 1] - b)};
  }
  Postings Raters(int32_t item_idx) const {
    if (item_idx < 0 || static_cast<size_t>(item_idx) >= num_items()) {
      return {};
    }
    int64_t b = item_offsets_[item_idx];
    return {item_users_.data() + b,
            static_cast<size_t>(item_offsets_[item_idx + 1] - b)};
  }

  /// Matrix version the postings were lowered at (the base they mirror).
  uint64_t version() const { return version_; }
  size_t ApproxBytes() const;

 private:
  CandidateIndex() = default;

  // Inverted postings, index-only SoA copies of the base CSR adjacency.
  std::vector<int64_t> user_offsets_;
  std::vector<int32_t> user_items_;
  std::vector<int64_t> item_offsets_;
  std::vector<int32_t> item_users_;

  bool prunable_ = false;
  PruneBoundTable bounds_;
  std::vector<int32_t> order_;
  std::vector<int32_t> order_by_id_;
  std::vector<int32_t> block_of_;
  std::vector<Block> blocks_;

  uint64_t version_ = 0;
};

}  // namespace recdb
