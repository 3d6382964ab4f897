#include "recommender/similarity.h"

#include <algorithm>
#include <cmath>

#include "common/status.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

namespace {

/// Neighbor selection for one output row: filter, then optionally trim to
/// the top-k by |sim|. Candidates are visited in ascending neighbor index,
/// so an untruncated row comes out index-ascending with no sort; a trim
/// re-sorts its survivors by index. Shared between the full build and
/// per-row recompute so the two paths cannot drift — the delta path's
/// bit-identity guarantee depends on this being the same code.
template <typename DotFn, typename OverlapFn>
std::vector<Neighbor> SelectRow(size_t p, size_t n,
                                const std::vector<double>& norms,
                                const SimilarityOptions& opts, DotFn dot_at,
                                OverlapFn overlap_at) {
  const bool need_overlap = opts.min_overlap > 1;
  std::vector<Neighbor> row;
  for (size_t q = 0; q < n; ++q) {
    if (p == q) continue;
    float d = dot_at(q);
    if (d == 0.0f) continue;
    if (need_overlap && overlap_at(q) < opts.min_overlap) continue;
    double denom = norms[p] * norms[q];
    if (denom <= 0) continue;
    float sim = static_cast<float>(d / denom);
    if (sim == 0.0f) continue;
    row.push_back(Neighbor{static_cast<int32_t>(q), sim});
  }
  if (opts.top_k > 0 && row.size() > static_cast<size_t>(opts.top_k)) {
    // Keep the k strongest by |sim| (negative correlations carry signal
    // for Pearson); equal |sim| keeps the lower index, so the kept set
    // does not depend on the selection algorithm.
    std::nth_element(row.begin(), row.begin() + (opts.top_k - 1), row.end(),
                     [](const Neighbor& a, const Neighbor& b) {
                       const float fa = std::fabs(a.sim), fb = std::fabs(b.sim);
                       if (fa != fb) return fa > fb;
                       return a.idx < b.idx;
                     });
    row.resize(opts.top_k);
    std::sort(row.begin(), row.end(), [](const Neighbor& a, const Neighbor& b) {
      return a.idx < b.idx;
    });
  }
  return row;
}

/// Sparse co-occurrence accumulation.
///
/// `vectors[v]` is the sparse vector of entity v (items for item-based CF,
/// users for user-based), `dims[d]` lists which vectors contain dimension d
/// together with the (possibly centered) value. For every dimension we
/// accumulate all pairwise products into a dense dot-product matrix, then
/// normalize by vector norms — one pass over Σ_d nnz(d)² products, the
/// standard way to build full similarity lists.
///
/// The Σ_d nnz(d)² pass is morsel-parallel over *output rows*: entries
/// within a dimension are idx-sorted, so every product of dimension d lands
/// in row min(ea.idx, eb.idx) and each worker owns a disjoint row range —
/// no write conflicts. A serial prologue builds the per-row occurrence
/// lists in ascending dimension order, so each cell accumulates its float
/// products in exactly the serial order and the result is bit-identical
/// under any thread count.
std::vector<std::vector<Neighbor>> BuildNeighborhoods(
    size_t num_vectors, const std::vector<std::vector<RatingEntry>>& dims,
    const std::vector<double>& means, const SimilarityOptions& opts) {
  Stopwatch watch;
  const size_t n = num_vectors;
  std::vector<double> norms(n, 0.0);
  // Dense accumulators. n is at most a few thousand for the paper's
  // datasets; n^2 floats stay well under typical memory budgets.
  std::vector<float> dot(n * n, 0.0f);
  std::vector<int32_t> overlap;
  const bool need_overlap = opts.min_overlap > 1;
  if (need_overlap) overlap.assign(n * n, 0);

  // Serial prologue: center each dimension, accumulate norms, and record
  // where each row occurs — occ[r] lists (dim, position) pairs in ascending
  // dimension order, the order the serial accumulation visits them.
  struct Occurrence {
    uint32_t dim;
    uint32_t pos;
  };
  std::vector<std::vector<RatingEntry>> centered_dims(dims.size());
  std::vector<std::vector<Occurrence>> occ(n);
  for (size_t d = 0; d < dims.size(); ++d) {
    auto& centered = centered_dims[d];
    centered.reserve(dims[d].size());
    for (const auto& e : dims[d]) {
      double v = e.rating - (opts.centered ? means[e.idx] : 0.0);
      occ[e.idx].push_back(Occurrence{static_cast<uint32_t>(d),
                                      static_cast<uint32_t>(centered.size())});
      centered.push_back(RatingEntry{e.idx, v});
      norms[e.idx] += v * v;
    }
  }
  for (auto& v : norms) v = std::sqrt(v);

  TaskScheduler& sched = TaskScheduler::Global();
  const size_t row_morsel =
      std::clamp<size_t>(n / (sched.num_threads() * 8), 8, 1024);
  sched.ParallelFor(n, row_morsel, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      float* row = dot.data() + r * n;
      for (const Occurrence& o : occ[r]) {
        const auto& centered = centered_dims[o.dim];
        const double va = centered[o.pos].rating;
        for (size_t b = o.pos + 1; b < centered.size(); ++b) {
          const auto& eb = centered[b];
          row[eb.idx] += static_cast<float>(va * eb.rating);
          if (need_overlap) overlap[r * n + eb.idx]++;
        }
      }
    }
  });

  // Per-row neighbor lists are independent: parallel over rows, each row's
  // sort and top-k trim identical to the serial computation.
  std::vector<std::vector<Neighbor>> result(n);
  sched.ParallelFor(n, row_morsel, [&](size_t begin, size_t end) {
    for (size_t p = begin; p < end; ++p) {
      result[p] = SelectRow(
          p, n, norms, opts,
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

/// Recompute a subset of output rows over the same (dims, means) input a
/// full BuildNeighborhoods would see. For a pair (p, q) the full build
/// accumulates float(v_min * v_max) into the min-row cell once per shared
/// dimension, visiting dimensions in ascending order; here we accumulate
/// float(v_p * v_q) into a dense per-row buffer while walking p's
/// occurrences in the same ascending-dimension order. The double multiply
/// is commutative, so each cell sees the identical float sequence and the
/// recomputed row is bit-identical to the full build's.
std::vector<std::pair<int32_t, std::vector<Neighbor>>> RecomputeRows(
    size_t num_vectors, const std::vector<std::vector<RatingEntry>>& dims,
    const std::vector<double>& means, const SimilarityOptions& opts,
    const std::vector<int32_t>& rows) {
  const size_t n = num_vectors;
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

  // Same serial prologue as the full build: centered dimensions in
  // ascending order, norms accumulated per entry in that order (norms are
  // needed for every vector, not just targets — sim(p, q) divides by both).
  struct Occurrence {
    uint32_t dim;
    uint32_t pos;
  };
  std::vector<double> norms(n, 0.0);
  std::vector<std::vector<RatingEntry>> centered_dims(dims.size());
  std::vector<std::vector<Occurrence>> occ(n);
  for (size_t d = 0; d < dims.size(); ++d) {
    auto& centered = centered_dims[d];
    centered.reserve(dims[d].size());
    for (const auto& e : dims[d]) {
      double v = e.rating - (opts.centered ? means[e.idx] : 0.0);
      if (wanted[e.idx]) {
        occ[e.idx].push_back(Occurrence{
            static_cast<uint32_t>(d), static_cast<uint32_t>(centered.size())});
      }
      centered.push_back(RatingEntry{e.idx, v});
      norms[e.idx] += v * v;
    }
  }
  for (auto& v : norms) v = std::sqrt(v);

  std::vector<std::pair<int32_t, std::vector<Neighbor>>> result(
      targets.size());
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
      for (const Occurrence& o : occ[p]) {
        const auto& centered = centered_dims[o.dim];
        const double vp = centered[o.pos].rating;
        for (size_t b = 0; b < centered.size(); ++b) {
          if (b == o.pos) continue;
          const auto& eb = centered[b];
          acc[eb.idx] += static_cast<float>(vp * eb.rating);
          if (need_overlap) ov[eb.idx]++;
        }
      }
      result[t] = {targets[t],
                   SelectRow(
                       p, n, norms, opts, [&](size_t q) { return acc[q]; },
                       [&](size_t q) { return ov[q]; })};
      // Reset only what this row touched before the buffer is reused.
      for (const Occurrence& o : occ[p]) {
        const auto& centered = centered_dims[o.dim];
        for (size_t b = 0; b < centered.size(); ++b) {
          acc[centered[b].idx] = 0.0f;
          if (need_overlap) ov[centered[b].idx] = 0;
        }
      }
    }
  });
  return result;
}

}  // namespace

std::vector<std::vector<Neighbor>> BuildItemNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts) {
  // Item vectors live in user-rating space: dimensions are users.
  std::vector<std::vector<RatingEntry>> dims;
  dims.reserve(ratings.NumUsers());
  for (size_t u = 0; u < ratings.NumUsers(); ++u) {
    dims.push_back(ratings.UserVector(static_cast<int32_t>(u)));
  }
  std::vector<double> means(ratings.NumItems(), 0.0);
  if (opts.centered) {
    for (size_t i = 0; i < ratings.NumItems(); ++i) {
      means[i] = ratings.ItemMean(static_cast<int32_t>(i));
    }
  }
  return BuildNeighborhoods(ratings.NumItems(), dims, means, opts);
}

std::vector<std::vector<Neighbor>> BuildUserNeighborhoods(
    const RatingMatrix& ratings, const SimilarityOptions& opts) {
  std::vector<std::vector<RatingEntry>> dims;
  dims.reserve(ratings.NumItems());
  for (size_t i = 0; i < ratings.NumItems(); ++i) {
    dims.push_back(ratings.ItemVector(static_cast<int32_t>(i)));
  }
  std::vector<double> means(ratings.NumUsers(), 0.0);
  if (opts.centered) {
    for (size_t u = 0; u < ratings.NumUsers(); ++u) {
      means[u] = ratings.UserMean(static_cast<int32_t>(u));
    }
  }
  return BuildNeighborhoods(ratings.NumUsers(), dims, means, opts);
}

std::vector<std::pair<int32_t, std::vector<Neighbor>>>
RecomputeItemNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows) {
  std::vector<std::vector<RatingEntry>> dims;
  dims.reserve(ratings.NumUsers());
  for (size_t u = 0; u < ratings.NumUsers(); ++u) {
    dims.push_back(ratings.UserVector(static_cast<int32_t>(u)));
  }
  std::vector<double> means(ratings.NumItems(), 0.0);
  if (opts.centered) {
    for (size_t i = 0; i < ratings.NumItems(); ++i) {
      means[i] = ratings.ItemMean(static_cast<int32_t>(i));
    }
  }
  return RecomputeRows(ratings.NumItems(), dims, means, opts, rows);
}

std::vector<std::pair<int32_t, std::vector<Neighbor>>>
RecomputeUserNeighborhoodRows(const RatingMatrix& ratings,
                              const SimilarityOptions& opts,
                              const std::vector<int32_t>& rows) {
  std::vector<std::vector<RatingEntry>> dims;
  dims.reserve(ratings.NumItems());
  for (size_t i = 0; i < ratings.NumItems(); ++i) {
    dims.push_back(ratings.ItemVector(static_cast<int32_t>(i)));
  }
  std::vector<double> means(ratings.NumUsers(), 0.0);
  if (opts.centered) {
    for (size_t u = 0; u < ratings.NumUsers(); ++u) {
      means[u] = ratings.UserMean(static_cast<int32_t>(u));
    }
  }
  return RecomputeRows(ratings.NumUsers(), dims, means, opts, rows);
}

double PairwiseCosine(const std::vector<RatingEntry>& a,
                      const std::vector<RatingEntry>& b) {
  double dot = 0, na = 0, nb = 0;
  for (const auto& e : a) na += e.rating * e.rating;
  for (const auto& e : b) nb += e.rating * e.rating;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].idx < b[j].idx) {
      ++i;
    } else if (a[i].idx > b[j].idx) {
      ++j;
    } else {
      dot += a[i].rating * b[j].rating;
      ++i;
      ++j;
    }
  }
  double denom = std::sqrt(na) * std::sqrt(nb);
  if (denom <= 0) return 0;
  return dot / denom;
}

}  // namespace recdb
