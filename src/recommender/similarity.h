// Neighborhood (similarity-list) computation for collaborative filtering.
//
// Cosine similarity follows paper Eq. (1): dot product over co-rated
// dimensions, normalized by the full vector norms. Pearson correlation is
// realized as mean-centered cosine (each vector centered by its own mean
// before Eq. (1)) — the "adjusted cosine" formulation used by LensKit and
// the common in-practice Pearson variant; see DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "recommender/neighbor_row.h"
#include "recommender/rating_matrix.h"

namespace recdb {

struct SimilarityOptions {
  /// Center vectors by their own mean first (Pearson / adjusted cosine).
  bool centered = false;
  /// Keep only the top-k most similar neighbors per vector (by |sim|);
  /// 0 keeps the full similarity list, as the paper's model tables do.
  int32_t top_k = 0;
  /// Drop pairs with fewer co-rated dimensions than this (noise control).
  int32_t min_overlap = 1;
};

/// Which entities a neighborhood table's rows are: items (the paper's Item
/// Neighborhood Table, each item a vector over its raters) or users (the
/// User Neighborhood Table, each user a vector over its rated items).
enum class CfSide : uint8_t { kItem, kUser };

/// The matrix as one side's table reads it: the side's entities are rows,
/// each a vector over the other side's entities, its dimensions.
class SideView {
 public:
  SideView(const RatingMatrix& m, CfSide side)
      : m_(m), items_(side == CfSide::kItem) {}

  size_t num_rows() const { return items_ ? m_.NumItems() : m_.NumUsers(); }
  size_t num_dims() const { return items_ ? m_.NumUsers() : m_.NumItems(); }
  /// Row e's vector: (dimension, rating), ascending dimension.
  CsrRow Vector(int32_t e) const {
    return items_ ? m_.ItemCsrRow(e) : m_.UserCsrRow(e);
  }
  /// Dimension d's entries: (row, rating), ascending row.
  CsrRow Dimension(int32_t d) const {
    return items_ ? m_.UserCsrRow(d) : m_.ItemCsrRow(d);
  }
  double Mean(int32_t e) const {
    return items_ ? m_.ItemMean(e) : m_.UserMean(e);
  }
  std::optional<int32_t> Index(int64_t id) const {
    return items_ ? m_.ItemIndex(id) : m_.UserIndex(id);
  }
  int64_t IdAt(int32_t e) const {
    return items_ ? m_.ItemIdAt(e) : m_.UserIdAt(e);
  }
  /// The row and the dimension a rating op wrote.
  int32_t RowOf(const DeltaOp& op) const {
    return items_ ? op.item_idx : op.user_idx;
  }
  int32_t DimOf(const DeltaOp& op) const {
    return items_ ? op.user_idx : op.item_idx;
  }

 private:
  const RatingMatrix& m_;
  bool items_;
};

/// The one neighborhood row builder: a full build (CREATE RECOMMENDER,
/// recovery, the router's gathered build) and a refresh both compute their
/// rows here. Row p accumulates float(v_p · v_q) for every q, walking p's
/// dimensions in ascending order, then divides by norms[p] · norms[q].
/// Each returned pair is (row index, row), ascending; `rows` may repeat an
/// index or name one past the matrix (ignored), and may name rows past the
/// caller's current table (new entities).
///
/// An untruncated table (top_k == 0) is symmetric bit for bit: row p holds
/// (q, s) exactly when row q holds (p, s). Both rows accumulate the same
/// products in the same ascending-dimension order (the double multiply
/// commutes) and divide by the same commutative double product of norms.
/// Eq. (2) accumulation over the table is therefore order-exact when
/// transposed (see ItemCFModel), and a rating op on entity i changes only
/// row i and i's entry in other rows.
std::vector<std::pair<int32_t, NeighborRow>> BuildNeighborRows(
    const RatingMatrix& ratings, CfSide side, const SimilarityOptions& opts,
    const std::vector<int32_t>& rows);

/// Every row of the side's table, [row index]: BuildNeighborRows over all
/// rows, timed into model.neighborhood_us.
std::vector<NeighborRow> BuildNeighborTable(const RatingMatrix& ratings,
                                            CfSide side,
                                            const SimilarityOptions& opts);

/// Pairwise similarity of two sparse rows (sorted by idx), per Eq. (1).
/// Exposed for direct testing against hand-computed fixtures.
double PairwiseCosine(const CsrRow& a, const CsrRow& b);

}  // namespace recdb
