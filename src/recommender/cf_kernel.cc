#include "recommender/cf_kernel.h"

#include <algorithm>
#include <cmath>

namespace recdb {

namespace {

/// Cells per block of the contiguous loops below: a fixed trip count, which
/// GCC vectorizes at -O2 as well as -O3 (float cells widened to double).
constexpr int32_t kBlock = 8;

/// One rated row's terms over n consecutive cells: the per-row walk, which
/// takes every cell a fused pass does not. Blocks of kBlock, then a scalar
/// tail; both add the same terms in the same per-cell order.
RECDB_KERNEL_INLINE void AccumulateRun(const float* __restrict sim, int32_t n,
                                       double r, double* __restrict num,
                                       double* __restrict den) {
  int32_t c = 0;
  for (; c + kBlock <= n; c += kBlock) {
    for (int32_t l = 0; l < kBlock; ++l) {
      const double s = sim[c + l];
      num[c + l] += s * r;
      den[c + l] += std::fabs(s);
    }
  }
  for (; c < n; ++c) {
    const double s = sim[c];
    num[c] += s * r;
    den[c] += std::fabs(s);
  }
}

/// Four rated rows' terms over n cells all four cover, one load and store
/// of num/den per cell: (((num + s0·r0) + s1·r1) + s2·r2) + s3·r3, den the
/// same with |s|. Each addition rounds as in four AccumulateRun calls in
/// row order, so the bits are theirs.
RECDB_KERNEL_INLINE void AccumulateFour(
    const float* __restrict s0, const float* __restrict s1,
    const float* __restrict s2, const float* __restrict s3, const double* r,
    int32_t n, double* __restrict num, double* __restrict den) {
  const double r0 = r[0], r1 = r[1], r2 = r[2], r3 = r[3];
  int32_t c = 0;
  for (; c + kBlock <= n; c += kBlock) {
    for (int32_t l = c; l < c + kBlock; ++l) {
      const double a = s0[l], b = s1[l], d = s2[l], e = s3[l];
      num[l] = (((num[l] + a * r0) + b * r1) + d * r2) + e * r3;
      den[l] = (((den[l] + std::fabs(a)) + std::fabs(b)) + std::fabs(d)) +
               std::fabs(e);
    }
  }
  for (; c < n; ++c) {
    const double a = s0[c], b = s1[c], d = s2[c], e = s3[c];
    num[c] = (((num[c] + a * r0) + b * r1) + d * r2) + e * r3;
    den[c] = (((den[c] + std::fabs(a)) + std::fabs(b)) + std::fabs(d)) +
             std::fabs(e);
  }
}

/// The stretch [first, last] of a row's longest run inside [lo, hi], with
/// the cell of `first`; empty (last < first) when no run reaches [lo, hi].
struct Stretch {
  int32_t first = 0;
  int32_t last = -1;
  const float* cells = nullptr;
};

RECDB_KERNEL_INLINE Stretch LongestRunIn(const NeighborRow& row, int32_t lo,
                                         int32_t hi) {
  Stretch best;
  const float* cell = row.cells().data();
  for (const NeighborRow::Run& run : row.runs()) {
    if (run.first > hi) break;
    const int32_t a = std::max(run.first, lo);
    const int32_t b = std::min(run.first + run.count - 1, hi);
    if (b - a > best.last - best.first) best = {a, b, cell + (a - run.first)};
    cell += run.count;
  }
  return best;
}

/// One rated row's terms over its runs clipped to [lo, hi], except on
/// [skip_first, skip_last], which a fused pass has covered. The skipped
/// stretch lies inside one run, so it cuts that run in two and no other.
RECDB_KERNEL_INLINE void AccumulateRowOutside(const NeighborRow& row, double r,
                                              int32_t lo, int32_t hi,
                                              int32_t skip_first,
                                              int32_t skip_last, double* num,
                                              double* den) {
  const float* cell = row.cells().data();
  for (const NeighborRow::Run& run : row.runs()) {
    if (run.first > hi) break;
    const int32_t a = std::max(run.first, lo);
    const int32_t b = std::min(run.first + run.count - 1, hi);
    const int32_t left_last = std::min(b, skip_first - 1);
    if (a <= left_last) {
      AccumulateRun(cell + (a - run.first), left_last - a + 1, r,
                    num + (a - lo), den + (a - lo));
    }
    const int32_t right_first = std::max(a, skip_last + 1);
    if (right_first <= b) {
      AccumulateRun(cell + (right_first - run.first), b - right_first + 1, r,
                    num + (right_first - lo), den + (right_first - lo));
    }
    cell += run.count;
  }
}

/// The walk, rated rows four at a time. A group's four longest runs in
/// [lo, hi] intersect in one stretch, which takes the fused pass; each
/// row's other cells, and the last 1-3 rows, take the per-row walk. A cell
/// inside the stretch gets this group's terms only from the fused pass, a
/// cell outside only from the per-row walks in row order, so every cell
/// sees its terms in ascending j, as the per-row walk of every row would
/// add them (DESIGN.md §10).
RECDB_KERNEL_INLINE void Walk(std::span<const NeighborRow> table,
                              const CsrRow& rated, int32_t lo, int32_t hi,
                              double* num, double* den) {
  // Rated items interned after the build are in no row; idx is ascending,
  // so they are a suffix.
  const size_t n = static_cast<size_t>(
      std::lower_bound(rated.idx, rated.idx + rated.n,
                       static_cast<int32_t>(table.size())) -
      rated.idx);
  const int32_t no_skip = hi + 1;  // [hi + 1, hi] skips nothing
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    Stretch s[4];
    int32_t first = lo, last = hi;
    for (int g = 0; g < 4; ++g) {
      s[g] = LongestRunIn(table[rated.idx[k + g]], lo, hi);
      first = std::max(first, s[g].first);
      last = std::min(last, s[g].last);
    }
    if (first <= last) {
      AccumulateFour(s[0].cells + (first - s[0].first),
                     s[1].cells + (first - s[1].first),
                     s[2].cells + (first - s[2].first),
                     s[3].cells + (first - s[3].first), rated.rating + k,
                     last - first + 1, num + (first - lo), den + (first - lo));
    } else {
      first = no_skip;
      last = hi;
    }
    for (int g = 0; g < 4; ++g) {
      AccumulateRowOutside(table[rated.idx[k + g]], rated.rating[k + g], lo,
                           hi, first, last, num, den);
    }
  }
  for (; k < n; ++k) {
    AccumulateRowOutside(table[rated.idx[k]], rated.rating[k], lo, hi,
                         no_skip, hi, num, den);
  }
}

#ifdef RECDB_KERNEL_AVX2
// Four doubles per register. AVX2 does not enable FMA, and -ffp-contract=off
// would forbid contraction anyway.
__attribute__((target("avx2"))) void WalkAvx2(
    std::span<const NeighborRow> table, const CsrRow& rated, int32_t lo,
    int32_t hi, double* num, double* den) {
  Walk(table, rated, lo, hi, num, den);
}
#endif

}  // namespace

void AccumulateRatedRows(KernelVariant variant,
                         std::span<const NeighborRow> table,
                         const CsrRow& rated, int32_t lo, int32_t hi,
                         double* num, double* den) {
#ifdef RECDB_KERNEL_AVX2
  if (variant == KernelVariant::kAvx2) {
    WalkAvx2(table, rated, lo, hi, num, den);
    return;
  }
#endif
  (void)variant;
  Walk(table, rated, lo, hi, num, den);
}

}  // namespace recdb
