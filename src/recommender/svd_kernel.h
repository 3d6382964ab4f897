// The SVD scoring kernel: one user's prediction q_i·p_u (paper Algorithm 2,
// Eq. 3), offset by the biases when the model has them, for a batch of
// item factor rows (DESIGN.md §10).
//
// Each candidate's dot product has one summation order: float lane j sums
// the terms k ≡ j (mod 8) in ascending k, and the eight lanes reduce as
// (s01 + s23) + (s45 + s67). Every variant (kernel_variant.h) keeps it, so
// all give the same bits; the process runs the widest one its CPU supports.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "recommender/kernel_variant.h"

namespace recdb {

/// The item side: row-major factor rows, row i at
/// [i * num_factors, (i + 1) * num_factors) for i in [0, num_rows), and
/// one bias per row, or null when the model has no biases.
struct ItemFactorRows {
  const float* factors = nullptr;
  const float* bias = nullptr;
  size_t num_rows = 0;
  int32_t num_factors = 0;
};

/// out[c] = (user_base + bias[i]) + p·q_i with biases, else 0.0 + p·q_i,
/// for i = items[c]; an index outside [0, num_rows) scores 0.0. user_row
/// holds num_factors floats; out has items.size() cells.
void ScoreItemRows(KernelVariant variant, const float* user_row,
                   double user_base, const ItemFactorRows& rows,
                   std::span<const int32_t> items, std::span<double> out);

}  // namespace recdb
