#include "serving/shard_merge.h"

#include <algorithm>

#include "obs/metrics.h"

namespace recdb {

uint64_t ShardMergeExecutor::RankOf(const Tuple& row) const {
  if (spec_.user_col == SIZE_MAX) return 0;
  if (spec_.user_col >= row.NumValues()) return UINT64_MAX;
  const Value& u = row.At(spec_.user_col);
  if (u.is_null() || u.type() != TypeId::kInt64) return UINT64_MAX;
  // Flipping the sign bit maps int64 order onto uint64 order.
  return static_cast<uint64_t>(u.AsInt()) ^ (uint64_t{1} << 63);
}

bool ShardMergeExecutor::RowLess(const Tuple& a, uint64_t rank_a, size_t seq_a,
                                 size_t leg_a, const Tuple& b, uint64_t rank_b,
                                 size_t seq_b, size_t leg_b) const {
  for (const MergeSpec::Key& key : spec_.order_by) {
    if (key.col >= a.NumValues() || key.col >= b.NumValues()) break;
    const int c = a.At(key.col).Compare(b.At(key.col));
    if (c != 0) return key.desc ? c > 0 : c < 0;
  }
  // ORDER BY tie (or no ORDER BY): reconstruct the single-node emission
  // order. Rows of different users order by user id; rows of the same user
  // live on one shard, where the leg sequence is exactly the single-node
  // slot order.
  if (rank_a != rank_b) return rank_a < rank_b;
  if (leg_a == leg_b) return seq_a < seq_b;
  if (seq_a != seq_b) return seq_a < seq_b;
  return leg_a < leg_b;
}

Status ShardMergeExecutor::Merge(const std::vector<ResultSet>& legs,
                                 ResultSet* out) const {
  const size_t n = legs.size();
  std::vector<size_t> pos(n, 0);
  std::vector<uint64_t> front_rank(n, 0);
  auto load_front = [&](size_t k) {
    if (pos[k] < legs[k].rows.size()) {
      front_rank[k] = RankOf(legs[k].rows[pos[k]]);
    }
  };
  for (size_t k = 0; k < n; ++k) load_front(k);

  const uint64_t limit = spec_.limit.has_value() && *spec_.limit >= 0
                             ? static_cast<uint64_t>(*spec_.limit)
                             : UINT64_MAX;
  uint64_t emitted = 0;
  uint64_t consumed = 0;
  while (emitted < limit) {
    size_t best = SIZE_MAX;
    for (size_t k = 0; k < n; ++k) {
      if (pos[k] >= legs[k].rows.size()) continue;
      if (best == SIZE_MAX ||
          RowLess(legs[k].rows[pos[k]], front_rank[k], pos[k], k,
                  legs[best].rows[pos[best]], front_rank[best], pos[best],
                  best)) {
        best = k;
      }
    }
    if (best == SIZE_MAX) break;  // every leg drained
    out->rows.push_back(legs[best].rows[pos[best]]);
    ++pos[best];
    ++consumed;
    ++emitted;
    load_front(best);
  }

  obs::Count(obs::Counter::kServingRowsMerged, consumed);
  obs::Count(obs::Counter::kServingRowsEmitted, emitted);
  size_t depth = 0;
  for (size_t k = 0; k < n; ++k) depth = std::max(depth, pos[k]);
  obs::SetGauge(obs::Gauge::kServingMergeDepth, static_cast<int64_t>(depth));
  return Status::OK();
}

}  // namespace recdb
