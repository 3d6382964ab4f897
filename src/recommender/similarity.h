// Neighborhood (similarity-list) computation for collaborative filtering.
//
// Cosine similarity follows paper Eq. (1): dot product over co-rated
// dimensions, normalized by the full vector norms. Pearson correlation is
// realized as mean-centered cosine (each vector centered by its own mean
// before Eq. (1)) — the "adjusted cosine" formulation used by LensKit and
// the common in-practice Pearson variant; see DESIGN.md.
#pragma once

#include <cstdint>
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

/// Compute per-item similarity lists (paper Item Neighborhood Table):
/// result[i] is item i's neighbors, in ascending neighbor index.
///
/// An untruncated table (top_k == 0) is symmetric bit for bit: row p holds
/// (q, s) exactly when row q holds (p, s). Both cells read the one float
/// dot the build accumulates per pair and divide it by norms[p] * norms[q],
/// a commutative double product. Eq. (2) accumulation over the table is
/// therefore order-exact when transposed (see ItemCFModel), and a rating
/// op on entity i changes only row i and i's entry in other rows.
std::vector<NeighborRow> BuildItemNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts);

/// Compute per-user similarity lists (paper User Neighborhood Table).
std::vector<NeighborRow> BuildUserNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts);

/// Recompute a subset of item-neighborhood rows against the matrix's
/// current (merged) contents. Each returned pair is (item row index,
/// fresh neighbor row), byte-identical to the same row of a full
/// BuildItemNeighborhoods over the same matrix: products are accumulated
/// in the same ascending-dimension float order and the selection/top-k
/// logic is shared code. Pairs come back in ascending row index. Row
/// indices may exceed the caller's current neighborhood table size (new
/// items); indices outside the matrix are ignored.
std::vector<std::pair<int32_t, NeighborRow>>
RecomputeItemNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows);

/// User-based counterpart of RecomputeItemNeighborhoodRows.
std::vector<std::pair<int32_t, NeighborRow>>
RecomputeUserNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows);

/// Pairwise similarity of two sparse rows (sorted by idx), per Eq. (1).
/// Exposed for direct testing against hand-computed fixtures.
double PairwiseCosine(const CsrRow& a, const CsrRow& b);

}  // namespace recdb
