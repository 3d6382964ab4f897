// Scatter-gather merge for the sharded serving layer (DESIGN.md §14).
//
// Each engine shard answers a fanned-out SELECT with the subsequence of the
// single-node result belonging to the users it owns, already sorted under
// the query's ORDER BY. ShardMergeExecutor reassembles the exact single-node
// output with a k-way merge: rows are compared first on the ORDER BY keys
// (per-key direction), then on the user id (RECOMMEND emits users in
// ascending id), then on the row's arrival sequence within its leg. Because
// every leg is sorted under this same comparator, the merge is a linear
// k-way front scan that can stop as soon as LIMIT rows have been emitted —
// the per-shard streams act as their own merge thresholds (each shard's
// top-k is a superset of its contribution to the global top-k).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "api/recdb.h"
#include "common/status.h"

namespace recdb {

/// How to compare rows of one scattered SELECT's result streams.
struct MergeSpec {
  struct Key {
    size_t col = 0;     // index into ResultSet::columns
    bool desc = false;  // ORDER BY direction
  };
  std::vector<Key> order_by;  // empty = merge purely on (user id, seq)
  /// Column carrying the recommendation user id, or SIZE_MAX when the query
  /// has no usable user column (plain partitioned scans): ties then break on
  /// leg arrival order and shard index.
  size_t user_col = SIZE_MAX;
  std::optional<int64_t> limit;
};

class ShardMergeExecutor {
 public:
  explicit ShardMergeExecutor(MergeSpec spec) : spec_(std::move(spec)) {}

  /// Merge the per-shard result streams (`legs`, in shard order) into `out`
  /// (rows appended; columns/stats untouched). Counts serving.rows_merged /
  /// serving.rows_emitted and updates the serving.merge_depth gauge.
  Status Merge(const std::vector<ResultSet>& legs, ResultSet* out) const;

 private:
  /// true when leg `a`'s front row sorts strictly before leg `b`'s.
  bool RowLess(const Tuple& a, uint64_t rank_a, size_t seq_a, size_t leg_a,
               const Tuple& b, uint64_t rank_b, size_t seq_b,
               size_t leg_b) const;
  /// The row's user id mapped order-preservingly onto uint64; NULL and
  /// non-INT ids rank last, and every row ranks 0 without a user column.
  uint64_t RankOf(const Tuple& row) const;

  MergeSpec spec_;
};

}  // namespace recdb
