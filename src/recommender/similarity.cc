#include "recommender/similarity.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

namespace {

/// Neighbor selection for one output row: filter, then optionally trim to
/// the top-k by |sim|. `dot[q]` is the row's float dot with q (0 for q =
/// p), `overlap[q]` its co-rated dimension count (null when min_overlap
/// <= 1). Candidates are visited in ascending neighbor index and appended
/// in that order, so the row needs no sort.
NeighborRow SelectRow(size_t p, const std::vector<double>& norms,
                      const SimilarityOptions& opts, const float* dot,
                      const int32_t* overlap) {
  const size_t n = norms.size();
  // sim(p, q), or 0 when the pair is filtered out.
  auto sim_at = [&](size_t q) -> float {
    const float d = dot[q];
    if (d == 0.0f) return 0.0f;
    if (overlap != nullptr && overlap[q] < opts.min_overlap) return 0.0f;
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

/// The serial prologue of a build. `val` holds every dimension row's
/// (possibly centered) values, flat and parallel to the row views' idx
/// arrays; norms accumulate per entry in ascending dimension order; occ[r]
/// lists where a `wanted` row r occurs, in that same order.
struct Dimensions {
  std::vector<CsrRow> rows;
  std::vector<size_t> off;
  std::vector<double> val;
  std::vector<double> norms;
  std::vector<std::vector<Occurrence>> occ;

  size_t num_vectors() const { return norms.size(); }
  const double* values(size_t d) const { return val.data() + off[d]; }
};

Dimensions CenterDimensions(const SideView& side,
                            const SimilarityOptions& opts,
                            const std::vector<char>& wanted) {
  const size_t n = side.num_rows();
  const size_t num_dims = side.num_dims();
  std::vector<double> means(n, 0.0);
  if (opts.centered) {
    for (size_t v = 0; v < n; ++v) {
      means[v] = side.Mean(static_cast<int32_t>(v));
    }
  }
  Dimensions dims;
  dims.rows.reserve(num_dims);
  dims.off.reserve(num_dims);
  size_t total = 0;
  for (size_t d = 0; d < num_dims; ++d) {
    dims.rows.push_back(side.Dimension(static_cast<int32_t>(d)));
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
      if (wanted[e]) {
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

/// dot[idx[b]] += float(vp * val[b]) for b in [begin, end), four entries
/// a step. A dimension's indices are distinct, so a step's four cells are
/// distinct and each cell still gets its terms in dimension order.
void AddProducts(float* dot, const int32_t* idx, const double* val,
                 double vp, size_t begin, size_t end) {
  size_t b = begin;
  for (; b + 4 <= end; b += 4) {
    const float t0 = static_cast<float>(vp * val[b]);
    const float t1 = static_cast<float>(vp * val[b + 1]);
    const float t2 = static_cast<float>(vp * val[b + 2]);
    const float t3 = static_cast<float>(vp * val[b + 3]);
    dot[idx[b]] += t0;
    dot[idx[b + 1]] += t1;
    dot[idx[b + 2]] += t2;
    dot[idx[b + 3]] += t3;
  }
  for (; b < end; ++b) dot[idx[b]] += static_cast<float>(vp * val[b]);
}

}  // namespace

/// Row p walks its occurrences in ascending dimension order and adds
/// float(v_p * v_q) for every other entry q of each dimension into a dense
/// per-row buffer; a pair's cell in row q gets float(v_q * v_p), the same
/// products (the double multiply commutes) in the same order. Rows are
/// independent, so the build is morsel-parallel over rows, and each row's
/// floats are the serial ones under any thread count.
std::vector<std::pair<int32_t, NeighborRow>> BuildNeighborRows(
    const RatingMatrix& ratings, CfSide side, const SimilarityOptions& opts,
    const std::vector<int32_t>& rows) {
  const SideView view(ratings, side);
  const size_t n = view.num_rows();
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
  const Dimensions dims = CenterDimensions(view, opts, wanted);
  const bool need_overlap = opts.min_overlap > 1;

  std::vector<std::pair<int32_t, NeighborRow>> result(targets.size());
  TaskScheduler& sched = TaskScheduler::Global();
  const size_t row_morsel =
      std::clamp<size_t>(targets.size() / (sched.num_threads() * 4), 1, 256);
  sched.ParallelFor(targets.size(), row_morsel,
                    [&](size_t begin, size_t end) {
    std::vector<float> dot(n, 0.0f);
    std::vector<int32_t> overlap(need_overlap ? n : 0, 0);
    for (size_t t = begin; t < end; ++t) {
      const size_t p = static_cast<size_t>(targets[t]);
      for (const Occurrence& o : dims.occ[p]) {
        const CsrRow& dim = dims.rows[o.dim];
        const double* val = dims.values(o.dim);
        const double vp = val[o.pos];
        // Every entry but p's own, as two loops with no test inside.
        AddProducts(dot.data(), dim.idx, val, vp, 0, o.pos);
        AddProducts(dot.data(), dim.idx, val, vp, o.pos + 1, dim.n);
        if (need_overlap) {
          for (size_t b = 0; b < dim.n; ++b) ++overlap[dim.idx[b]];
        }
      }
      result[t] = {targets[t],
                   SelectRow(p, dims.norms, opts, dot.data(),
                             need_overlap ? overlap.data() : nullptr)};
      std::fill(dot.begin(), dot.end(), 0.0f);
      std::fill(overlap.begin(), overlap.end(), 0);
    }
  });
  return result;
}

std::vector<NeighborRow> BuildNeighborTable(const RatingMatrix& ratings,
                                            CfSide side,
                                            const SimilarityOptions& opts) {
  Stopwatch watch;
  std::vector<int32_t> all(SideView(ratings, side).num_rows());
  std::iota(all.begin(), all.end(), 0);
  auto rows = BuildNeighborRows(ratings, side, opts, all);
  std::vector<NeighborRow> table(rows.size());
  for (auto& [p, row] : rows) table[p] = std::move(row);
  obs::ObserveUs(obs::Histogram::kModelNeighborhoodUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return table;
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
