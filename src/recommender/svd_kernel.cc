#include "recommender/svd_kernel.h"

#ifdef RECDB_KERNEL_AVX2
#include <immintrin.h>
#endif

namespace recdb {

namespace {

/// Fixed-association dot product of two factor rows. Eight independent
/// float accumulators let the compiler emit SIMD adds and multiplies (a
/// single accumulator is a serial dependency chain the vectorizer may not
/// reorder). Lane j sums the k ≡ j (mod 8) terms, then a fixed reduction
/// tree; batch and scalar prediction share this order, so batch == scalar
/// stays bit-identical by construction.
RECDB_KERNEL_INLINE float DotRows(const float* a, const float* b, int32_t n) {
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int32_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (int32_t j = 0; j < 8; ++j) acc[j] += a[k + j] * b[k + j];
  }
  for (; k < n; ++k) acc[k & 7] += a[k] * b[k];
  const float s01 = acc[0] + acc[1];
  const float s23 = acc[2] + acc[3];
  const float s45 = acc[4] + acc[5];
  const float s67 = acc[6] + acc[7];
  return (s01 + s23) + (s45 + s67);
}

RECDB_KERNEL_INLINE bool HasRow(const ItemFactorRows& rows, int32_t i) {
  return i >= 0 && static_cast<size_t>(i) < rows.num_rows;
}

/// What a candidate's dot product is added to.
RECDB_KERNEL_INLINE double Base(const ItemFactorRows& rows, double user_base,
                                int32_t i) {
  return rows.bias != nullptr ? user_base + rows.bias[i] : 0.0;
}

RECDB_KERNEL_INLINE double ScoreOne(const float* pu, double user_base,
                                    const ItemFactorRows& rows, int32_t i) {
  if (!HasRow(rows, i)) return 0.0;  // interned after training: no row yet
  const float* qi = rows.factors + static_cast<size_t>(i) * rows.num_factors;
  return Base(rows, user_base, i) +
         static_cast<double>(DotRows(pu, qi, rows.num_factors));
}

void ScoreEach(const float* pu, double user_base, const ItemFactorRows& rows,
               std::span<const int32_t> items, std::span<double> out) {
  for (size_t c = 0; c < items.size(); ++c) {
    out[c] = ScoreOne(pu, user_base, rows, items[c]);
  }
}

#ifdef RECDB_KERNEL_AVX2
/// Four candidates per step, one __m256 accumulator each: lane j sums the
/// k ≡ j (mod 8) terms in ascending k, as DotRows's acc[j] does, with a
/// separate multiply and add (AVX2 does not enable FMA). Two hadd rounds
/// give [a01+a23, b01+b23, c01+c23, d01+d23 | a45+a67, ...] and the
/// 128-bit add of the halves gives each candidate (s01+s23)+(s45+s67),
/// DotRows's tree (DESIGN.md §10). A group holding an index without a
/// factor row, the last 1-3 candidates, and rows whose length is not a
/// multiple of 8 take ScoreOne.
__attribute__((target("avx2"))) void ScoreAvx2(
    const float* pu, double user_base, const ItemFactorRows& rows,
    std::span<const int32_t> items, std::span<double> out) {
  const int32_t f = rows.num_factors;
  if (f % 8 != 0) {
    ScoreEach(pu, user_base, rows, items, out);
    return;
  }
  size_t c = 0;
  for (; c + 4 <= items.size(); c += 4) {
    const int32_t* ids = items.data() + c;
    if (!HasRow(rows, ids[0]) || !HasRow(rows, ids[1]) ||
        !HasRow(rows, ids[2]) || !HasRow(rows, ids[3])) {
      for (size_t g = 0; g < 4; ++g) {
        out[c + g] = ScoreOne(pu, user_base, rows, ids[g]);
      }
      continue;
    }
    const float* q0 = rows.factors + static_cast<size_t>(ids[0]) * f;
    const float* q1 = rows.factors + static_cast<size_t>(ids[1]) * f;
    const float* q2 = rows.factors + static_cast<size_t>(ids[2]) * f;
    const float* q3 = rows.factors + static_cast<size_t>(ids[3]) * f;
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    for (int32_t k = 0; k < f; k += 8) {
      const __m256 p = _mm256_loadu_ps(pu + k);
      a0 = _mm256_add_ps(a0, _mm256_mul_ps(p, _mm256_loadu_ps(q0 + k)));
      a1 = _mm256_add_ps(a1, _mm256_mul_ps(p, _mm256_loadu_ps(q1 + k)));
      a2 = _mm256_add_ps(a2, _mm256_mul_ps(p, _mm256_loadu_ps(q2 + k)));
      a3 = _mm256_add_ps(a3, _mm256_mul_ps(p, _mm256_loadu_ps(q3 + k)));
    }
    const __m256 pairs =
        _mm256_hadd_ps(_mm256_hadd_ps(a0, a1), _mm256_hadd_ps(a2, a3));
    const __m128 dots = _mm_add_ps(_mm256_castps256_ps128(pairs),
                                   _mm256_extractf128_ps(pairs, 1));
    float dot[4];
    _mm_storeu_ps(dot, dots);
    for (size_t g = 0; g < 4; ++g) {
      out[c + g] =
          Base(rows, user_base, ids[g]) + static_cast<double>(dot[g]);
    }
  }
  for (; c < items.size(); ++c) {
    out[c] = ScoreOne(pu, user_base, rows, items[c]);
  }
}
#endif

}  // namespace

void ScoreItemRows(KernelVariant variant, const float* user_row,
                   double user_base, const ItemFactorRows& rows,
                   std::span<const int32_t> items, std::span<double> out) {
#ifdef RECDB_KERNEL_AVX2
  if (variant == KernelVariant::kAvx2) {
    ScoreAvx2(user_row, user_base, rows, items, out);
    return;
  }
#endif
  (void)variant;
  ScoreEach(user_row, user_base, rows, items, out);
}

}  // namespace recdb
