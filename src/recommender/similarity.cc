#include "recommender/similarity.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/status.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

namespace {

/// Neighbor selection for one output row: filter, then optionally trim to
/// the top-k by |sim|. Candidates are visited in ascending neighbor index
/// and appended in that order, so the row needs no sort. Shared between
/// the full build and per-row recompute so the two paths cannot drift —
/// the delta path's bit-identity guarantee depends on this being the same
/// code.
template <typename DotFn, typename OverlapFn>
NeighborRow SelectRow(size_t p, size_t n, const std::vector<double>& norms,
                      const SimilarityOptions& opts, DotFn dot_at,
                      OverlapFn overlap_at) {
  const bool need_overlap = opts.min_overlap > 1;
  // sim(p, q), or 0 when the pair is filtered out.
  auto sim_at = [&](size_t q) -> float {
    if (p == q) return 0.0f;
    const float d = dot_at(q);
    if (d == 0.0f) return 0.0f;
    if (need_overlap && overlap_at(q) < opts.min_overlap) return 0.0f;
    const double denom = norms[p] * norms[q];
    if (denom <= 0) return 0.0f;
    return static_cast<float>(d / denom);
  };
  NeighborRow row;
  if (opts.top_k <= 0) {
    for (size_t q = 0; q < n; ++q) {
      const float sim = sim_at(q);
      if (sim != 0.0f) row.Append(static_cast<int32_t>(q), sim);
    }
    row.ShrinkToFit();
    return row;
  }
  std::vector<int32_t> idx;
  std::vector<float> sims;
  for (size_t q = 0; q < n; ++q) {
    const float sim = sim_at(q);
    if (sim == 0.0f) continue;
    idx.push_back(static_cast<int32_t>(q));
    sims.push_back(sim);
  }
  // Keep the k strongest by |sim| (negative correlations carry signal for
  // Pearson); equal |sim| keeps the lower index, so the kept set does not
  // depend on the selection algorithm: every |sim| above the k-th largest,
  // then the lowest-index ties at it.
  const size_t k = static_cast<size_t>(opts.top_k);
  float cut = 0.0f;
  size_t ties = 0;
  if (sims.size() > k) {
    std::vector<float> mags(sims.size());
    for (size_t c = 0; c < sims.size(); ++c) mags[c] = std::fabs(sims[c]);
    std::nth_element(mags.begin(), mags.begin() + (k - 1), mags.end(),
                     std::greater<float>());
    cut = mags[k - 1];
    ties = k;
    for (float m : mags) ties -= m > cut;
  }
  for (size_t c = 0; c < sims.size(); ++c) {
    const float mag = std::fabs(sims[c]);
    if (mag > cut) {
      row.Append(idx[c], sims[c]);
    } else if (mag == cut && ties > 0) {
      row.Append(idx[c], sims[c]);
      --ties;
    }
  }
  row.ShrinkToFit();
  return row;
}

/// Where one output row occurs: dimension `dim`, entry `pos` of its row.
struct Occurrence {
  uint32_t dim;
  uint32_t pos;
};

/// The serial prologue both builds share. Vectors are items (dimensions =
/// users, read through UserCsrRow) for item-based CF and users (dimensions
/// = items) for user-based. `val` holds every dimension row's (possibly
/// centered) values, flat and parallel to the row views' idx arrays;
/// norms accumulate per entry in ascending dimension order; occ[r] lists
/// where row r occurs, in that same order — for `wanted` rows only when a
/// mask is given.
struct Dimensions {
  std::vector<CsrRow> rows;
  std::vector<size_t> off;
  std::vector<double> val;
  std::vector<double> norms;
  std::vector<std::vector<Occurrence>> occ;

  size_t num_vectors() const { return norms.size(); }
  const double* values(size_t d) const { return val.data() + off[d]; }
};

Dimensions CenterDimensions(const RatingMatrix& m, bool item_based,
                            const SimilarityOptions& opts,
                            const std::vector<char>* wanted) {
  const size_t n = item_based ? m.NumItems() : m.NumUsers();
  const size_t num_dims = item_based ? m.NumUsers() : m.NumItems();
  std::vector<double> means(n, 0.0);
  if (opts.centered) {
    for (size_t v = 0; v < n; ++v) {
      const int32_t vi = static_cast<int32_t>(v);
      means[v] = item_based ? m.ItemMean(vi) : m.UserMean(vi);
    }
  }
  Dimensions dims;
  dims.rows.reserve(num_dims);
  dims.off.reserve(num_dims);
  size_t total = 0;
  for (size_t d = 0; d < num_dims; ++d) {
    const int32_t di = static_cast<int32_t>(d);
    dims.rows.push_back(item_based ? m.UserCsrRow(di) : m.ItemCsrRow(di));
    dims.off.push_back(total);
    total += dims.rows.back().n;
  }
  dims.val.resize(total);
  dims.norms.assign(n, 0.0);
  dims.occ.resize(n);
  for (size_t d = 0; d < num_dims; ++d) {
    const CsrRow& row = dims.rows[d];
    double* val = dims.val.data() + dims.off[d];
    for (size_t k = 0; k < row.n; ++k) {
      const int32_t e = row.idx[k];
      const double v = row.rating[k] - (opts.centered ? means[e] : 0.0);
      if (wanted == nullptr || (*wanted)[e]) {
        dims.occ[e].push_back(
            Occurrence{static_cast<uint32_t>(d), static_cast<uint32_t>(k)});
      }
      val[k] = v;
      dims.norms[e] += v * v;
    }
  }
  for (auto& v : dims.norms) v = std::sqrt(v);
  return dims;
}

/// Sparse co-occurrence accumulation.
///
/// Each vector (item for item-based CF, user for user-based) is compared
/// with every other over the dimensions they share. For every dimension we
/// accumulate all pairwise products into a dense dot-product matrix, then
/// normalize by vector norms — one pass over Σ_d nnz(d)² products, the
/// standard way to build full similarity lists. Dimension rows are read
/// through the matrix's row views; only their centered values are copied.
///
/// The Σ_d nnz(d)² pass is morsel-parallel over *output rows*: entries
/// within a dimension are idx-sorted, so every product of dimension d lands
/// in row min(ea.idx, eb.idx) and each worker owns a disjoint row range —
/// no write conflicts. The serial prologue builds the per-row occurrence
/// lists in ascending dimension order, so each cell accumulates its float
/// products in exactly the serial order and the result is bit-identical
/// under any thread count.
std::vector<NeighborRow> BuildNeighborhoods(
    const RatingMatrix& m, bool item_based, const SimilarityOptions& opts) {
  Stopwatch watch;
  const Dimensions dims = CenterDimensions(m, item_based, opts, nullptr);
  const size_t n = dims.num_vectors();
  // Dense accumulators. n is at most a few thousand for the paper's
  // datasets; n^2 floats stay well under typical memory budgets.
  std::vector<float> dot(n * n, 0.0f);
  std::vector<int32_t> overlap;
  const bool need_overlap = opts.min_overlap > 1;
  if (need_overlap) overlap.assign(n * n, 0);

  TaskScheduler& sched = TaskScheduler::Global();
  const size_t row_morsel =
      std::clamp<size_t>(n / (sched.num_threads() * 8), 8, 1024);
  sched.ParallelFor(n, row_morsel, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      float* row = dot.data() + r * n;
      for (const Occurrence& o : dims.occ[r]) {
        const CsrRow& dim = dims.rows[o.dim];
        const double* val = dims.values(o.dim);
        const double va = val[o.pos];
        for (size_t b = o.pos + 1; b < dim.n; ++b) {
          row[dim.idx[b]] += static_cast<float>(va * val[b]);
          if (need_overlap) overlap[r * n + dim.idx[b]]++;
        }
      }
    }
  });

  // Per-row neighbor lists are independent: parallel over rows, each row's
  // sort and top-k trim identical to the serial computation.
  std::vector<NeighborRow> result(n);
  sched.ParallelFor(n, row_morsel, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      result[p] = SelectRow(
          p, n, dims.norms, opts,
          [&](size_t q) { return dot[p < q ? p * n + q : q * n + p]; },
          [&](size_t q) {
            return overlap[p < q ? p * n + q : q * n + p];
          });
    }
  });
  obs::ObserveUs(obs::Histogram::kModelNeighborhoodUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return result;
}

/// Recompute a subset of output rows over the same matrix a full
/// BuildNeighborhoods would see. For a pair (p, q) the full build
/// accumulates float(v_min * v_max) into the min-row cell once per shared
/// dimension, visiting dimensions in ascending order; here we accumulate
/// float(v_p * v_q) into a dense per-row buffer while walking p's
/// occurrences in the same ascending-dimension order. The double multiply
/// is commutative, so each cell sees the identical float sequence and the
/// recomputed row is bit-identical to the full build's.
std::vector<std::pair<int32_t, NeighborRow>> RecomputeRows(
    const RatingMatrix& m, bool item_based, const SimilarityOptions& opts,
    const std::vector<int32_t>& rows) {
  const size_t n = item_based ? m.NumItems() : m.NumUsers();
  const bool need_overlap = opts.min_overlap > 1;
  std::vector<char> wanted(n, 0);
  std::vector<int32_t> targets;
  targets.reserve(rows.size());
  for (int32_t r : rows) {
    if (r < 0 || static_cast<size_t>(r) >= n) continue;
    if (wanted[r]) continue;
    wanted[r] = 1;
    targets.push_back(r);
  }
  std::sort(targets.begin(), targets.end());
  // Norms are needed for every vector, not just targets — sim(p, q)
  // divides by both.
  const Dimensions dims = CenterDimensions(m, item_based, opts, &wanted);

  std::vector<std::pair<int32_t, NeighborRow>> result(targets.size());
  TaskScheduler& sched = TaskScheduler::Global();
  const size_t row_morsel =
      std::clamp<size_t>(targets.size() / (sched.num_threads() * 4), 1, 256);
  sched.ParallelFor(targets.size(), row_morsel,
                    [&](size_t begin, size_t end) {
    std::vector<float> acc(n, 0.0f);
    std::vector<int32_t> ov;
    if (need_overlap) ov.assign(n, 0);
    for (size_t t = begin; t < end; ++t) {
      const size_t p = static_cast<size_t>(targets[t]);
      for (const Occurrence& o : dims.occ[p]) {
        const CsrRow& dim = dims.rows[o.dim];
        const double* val = dims.values(o.dim);
        const double vp = val[o.pos];
        for (size_t b = 0; b < dim.n; ++b) {
          if (b == o.pos) continue;
          acc[dim.idx[b]] += static_cast<float>(vp * val[b]);
          if (need_overlap) ov[dim.idx[b]]++;
        }
      }
      result[t] = {targets[t],
                   SelectRow(
                       p, n, dims.norms, opts,
                       [&](size_t q) { return acc[q]; },
                       [&](size_t q) { return ov[q]; })};
      // Reset only what this row touched before the buffer is reused.
      for (const Occurrence& o : dims.occ[p]) {
        const CsrRow& dim = dims.rows[o.dim];
        for (size_t b = 0; b < dim.n; ++b) {
          acc[dim.idx[b]] = 0.0f;
          if (need_overlap) ov[dim.idx[b]] = 0;
        }
      }
    }
  });
  return result;
}

}  // namespace

std::vector<NeighborRow> BuildItemNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts) {
  return BuildNeighborhoods(ratings, /*item_based=*/true, opts);
}

std::vector<NeighborRow> BuildUserNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts) {
  return BuildNeighborhoods(ratings, /*item_based=*/false, opts);
}

std::vector<std::pair<int32_t, NeighborRow>>
RecomputeItemNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows) {
  return RecomputeRows(ratings, /*item_based=*/true, opts, rows);
}

std::vector<std::pair<int32_t, NeighborRow>>
RecomputeUserNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows) {
  return RecomputeRows(ratings, /*item_based=*/false, opts, rows);
}

double PairwiseCosine(const CsrRow& a, const CsrRow& b) {
  double dot = 0, na = 0, nb = 0;
  for (size_t k = 0; k < a.n; ++k) na += a.rating[k] * a.rating[k];
  for (size_t k = 0; k < b.n; ++k) nb += b.rating[k] * b.rating[k];
  size_t i = 0, j = 0;
  while (i < a.n && j < b.n) {
    if (a.idx[i] < b.idx[j]) {
      ++i;
    } else if (a.idx[i] > b.idx[j]) {
      ++j;
    } else {
      dot += a.rating[i] * b.rating[j];
      ++i;
      ++j;
    }
  }
  double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom <= 0) return 0;
  return dot / denom;
}

}  // namespace recdb
