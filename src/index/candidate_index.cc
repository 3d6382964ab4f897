#include "index/candidate_index.h"

#include <algorithm>
#include <numeric>

#include "common/timer.h"
#include "obs/metrics.h"

namespace recdb {

std::shared_ptr<CandidateIndex> CandidateIndex::Build(
    const RatingMatrix& matrix, const RecModel& model) {
  Stopwatch watch;
  auto index = std::shared_ptr<CandidateIndex>(new CandidateIndex());
  if (!model.ComputePruneBounds(&index->bounds_)) return nullptr;
  // Tie-break order of the IndexRecommend fallback: item indices by
  // ascending external id. Items interned after this build are
  // out-of-band and merged in by the executor.
  const std::vector<int64_t>& item_ids = matrix.item_ids();
  index->order_by_id_.resize(matrix.NumItems());
  std::iota(index->order_by_id_.begin(), index->order_by_id_.end(), 0);
  std::sort(index->order_by_id_.begin(), index->order_by_id_.end(),
            [&](int32_t a, int32_t b) { return item_ids[a] < item_ids[b]; });
  index->BuildBlocks();
  obs::Count(obs::Counter::kPruneIndexBuilds);
  obs::ObserveUs(obs::Histogram::kPruneIndexBuildUs,
                 static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6));
  return index;
}

void CandidateIndex::BuildBlocks() {
  const size_t n = bounds_.item_scale.size();
  const bool has_offset = !bounds_.item_offset.empty();
  order_.resize(n);
  std::iota(order_.begin(), order_.end(), 0);
  auto key = [&](int32_t i) {
    return bounds_.item_scale[i] + (has_offset ? bounds_.item_offset[i] : 0.0);
  };
  std::sort(order_.begin(), order_.end(), [&](int32_t a, int32_t b) {
    double ka = key(a), kb = key(b);
    if (ka != kb) return ka > kb;
    return a < b;
  });

  blocks_.clear();
  for (size_t begin = 0; begin < n; begin += kBlockSize) {
    Block blk;
    blk.begin = static_cast<uint32_t>(begin);
    blk.end = static_cast<uint32_t>(std::min(n, begin + kBlockSize));
    for (uint32_t p = blk.begin; p < blk.end; ++p) {
      const int32_t i = order_[p];
      blk.max_scale = std::max(blk.max_scale, bounds_.item_scale[i]);
      if (has_offset) {
        blk.max_offset = std::max(blk.max_offset, bounds_.item_offset[i]);
      }
    }
    blocks_.push_back(blk);
  }
  // Suffix maxima: bounds are sorted by scale+offset, but scale and offset
  // separately need not be monotone across blocks, so "no later block can
  // win" must consult the suffix maxima, not just the next block.
  double suf_scale = 0, suf_offset = 0;
  for (size_t b = blocks_.size(); b-- > 0;) {
    suf_scale = std::max(suf_scale, blocks_[b].max_scale);
    suf_offset = std::max(suf_offset, blocks_[b].max_offset);
    blocks_[b].suffix_scale = suf_scale;
    blocks_[b].suffix_offset = suf_offset;
  }
}

}  // namespace recdb
