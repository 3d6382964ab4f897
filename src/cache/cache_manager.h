// CacheManager: the paper's recommendation materialization manager
// (Section IV-D, Algorithm 4).
//
// Tracks per-user demand (query counts) and per-item consumption (rating
// update counts), derives normalized rates, and on each Run() decides which
// (user, item) pairs to admit into / evict from the RecScoreIndex using the
// hotness ratio
//     Hot(u,i) = (D_u / D_max) * (P_i / P_max)
// against HOTNESS-THRESHOLD. Threshold 0 => full materialization;
// threshold 1 (or above any observed hotness) => no materialization.
//
// Rates are *windowed*: each Run() computes D_u and P_i from the activity
// inside [last_run_ts_, now] and recomputes D_MAX / P_MAX from scratch, so
// both rates and maxima track the current workload instead of decaying
// monotonically from lifetime counters. A final sweep re-examines entries
// already materialized in the RecScoreIndex, so pairs that have cooled
// below the threshold are evicted even when neither side was active in the
// window (skipped on fully idle windows, which carry no evidence).
//
// On a shard of a ShardedRecDB the RecScoreIndex belongs to the shared
// recommender, but its entries stay per-user: a shard's manager queues,
// admits and evicts only pairs of the users its shard owns.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/shard.h"
#include "common/status.h"
#include "common/timer.h"
#include "recommender/recommender.h"

namespace recdb {

struct UserStats {
  uint64_t query_count = 0;   // QC_u (lifetime)
  uint64_t window_query_count = 0;  // queries since the last Run()
  double last_query_ts = 0;   // TS_u
  double demand_rate = 0;     // D_u, over the last window
};

struct ItemStats {
  uint64_t update_count = 0;  // UC_i (lifetime)
  uint64_t window_update_count = 0;  // updates since the last Run()
  double last_update_ts = 0;  // TS_i
  double consumption_rate = 0;  // P_i, over the last window
};

struct CacheDecision {
  std::vector<std::pair<int64_t, int64_t>> admitted;  // (user, item)
  std::vector<std::pair<int64_t, int64_t>> evicted;
};

class CacheManager {
 public:
  /// `clock` must outlive the manager. Does not own the recommender. A
  /// shard's manager passes its shard identity (RecDBOptions).
  CacheManager(Recommender* rec, const Clock* clock,
               double hotness_threshold = 0.5, uint32_t shard_count = 1,
               uint32_t shard_index = 0)
      : rec_(rec), clock_(clock), threshold_(hotness_threshold),
        shard_count_(shard_count), shard_index_(shard_index),
        last_run_ts_(clock->Now()) {}

  Recommender* recommender() const { return rec_; }

  /// A user issued a recommendation query (updates QC_u, TS_u).
  void RecordQuery(int64_t user_id);

  /// A rating was inserted for an item (updates UC_i, TS_i).
  void RecordUpdate(int64_t item_id);

  /// Ingest invalidation hook (PR 7): (user, item) pairs whose cached
  /// scores were just evicted from the RecScoreIndex because a delta op or
  /// refresh commit staled them. They are queued, and the next Run()
  /// lazily re-materializes exactly the ones still hot under the current
  /// windowed rates — cold pairs stay evicted at zero cost.
  void NotifyInvalidated(const std::vector<std::pair<int64_t, int64_t>>& pairs);

  size_t pending_invalidated() const { return invalidated_.size(); }

  /// Algorithm 4: recompute windowed rates and maxima, then admit/evict
  /// (user, item) pairs in the recommender's RecScoreIndex. Admitted pairs
  /// get their score predicted through the model (batched in parallel via
  /// the TaskScheduler) and inserted; pairs below the threshold — including
  /// already-materialized entries whose user or item went quiet — are
  /// evicted. Returns what changed.
  Result<CacheDecision> Run();

  /// Inspection (tests reproduce the paper's Table I worked example).
  const UserStats* GetUserStats(int64_t user_id) const;
  const ItemStats* GetItemStats(int64_t item_id) const;
  double max_demand() const { return max_demand_; }
  double max_consumption() const { return max_consumption_; }
  double hotness_threshold() const { return threshold_; }
  void set_hotness_threshold(double t) { threshold_ = t; }

  /// Hotness ratio of a pair under current statistics (0 when rates are
  /// unknown or maxima are zero).
  double Hotness(int64_t user_id, int64_t item_id) const;

 private:
  bool OwnsUser(int64_t user_id) const {
    return ShardOfUser(user_id, shard_count_) == shard_index_;
  }

  Recommender* rec_;
  const Clock* clock_;
  double threshold_;
  uint32_t shard_count_;
  uint32_t shard_index_;
  double last_run_ts_;  // TS_mat: last cache-manager invocation
  std::unordered_map<int64_t, UserStats> users_;
  std::unordered_map<int64_t, ItemStats> items_;
  double max_demand_ = 0;       // D_MAX
  double max_consumption_ = 0;  // P_MAX
  // Pairs invalidated since the last Run(), pending a hotness re-check.
  // Ordered set: re-admission order is deterministic.
  std::set<std::pair<int64_t, int64_t>> invalidated_;
};

}  // namespace recdb
