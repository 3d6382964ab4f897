// The ItemCF accumulation kernel: Eq. (2)'s two sums over a user's rated
// rows of an untruncated (symmetric) item neighborhood table, walked
// transposed (DESIGN.md §10).
//
// One source body is compiled once per instruction-set variant
// (kernel_variant.h). Every variant adds the same terms to the same cells
// in the same order, so all give the same bits; the process runs the widest
// one its CPU supports.
#pragma once

#include <cstdint>
#include <span>

#include "recommender/kernel_variant.h"
#include "recommender/neighbor_row.h"
#include "recommender/rating_matrix.h"

namespace recdb {

/// For each rated row j (rated.idx ascending) and each cell c in [lo, hi]
/// that j's runs cover, num[c - lo] += sim(j, c)·r_j and
/// den[c - lo] += |sim(j, c)|, each cell's terms in ascending j. Rated rows
/// at or past table.size() are in no row and add nothing. num and den hold
/// hi - lo + 1 cells.
void AccumulateRatedRows(KernelVariant variant,
                         std::span<const NeighborRow> table,
                         const CsrRow& rated, int32_t lo, int32_t hi,
                         double* num, double* den);

}  // namespace recdb
