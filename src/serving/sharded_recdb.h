// ShardedRecDB: hash-partitioned scatter-gather serving over N in-process
// RecDB engine shards (DESIGN.md §14, docs/SCALING.md).
//
// Partitioning model — one shared model plane, partitioned serving plane:
//   * Every recommender is built once and registered on every shard: all
//     shards hold the same Recommender (rating matrix, CF/SVD model,
//     RecScoreIndex), trained from the canonical (uid, iid)-sorted stream,
//     so a K-shard deployment's scores equal single-node's by construction.
//   * Feed-once rule: each rating op reaches the plane exactly once. Shard 0
//     feeds every op all shards see (INSERT/BulkInsert rows in statement
//     order, DML on replicated tables); the shard holding a partitioned
//     row feeds its DELETE/UPDATE victims.
//   * Heap rows of declared partitioned tables, their WAL records, cache
//     demand and score-index admission land only on the shard that owns
//     the row's user (ShardOfUser hash).
//   * The shards share one engine lock, so a write or background refresh of
//     the plane excludes every shard's readers.
//
// Query path: RECOMMEND SELECTs over partitioned tables fan out on the
// global TaskScheduler to the owning shards (all shards, or the owners of
// the user ids pinned by the WHERE clause); each shard emits the
// order-preserving subsequence of the single-node result for its users, and
// ShardMergeExecutor reassembles the exact single-node output by ranking
// rows on their user id (RECOMMEND emits users in ascending id), so the
// router keeps no per-user state. DML broadcasts to every shard in shard
// order; each shard persists only its owned rows.
//
// The router executes ONE statement per Execute() call (no scripts). Shard
// identity is fixed by ShardedRecDBOptions::num_shards.
#pragma once

#include <cstddef>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/recdb.h"
#include "common/status.h"

namespace recdb {

struct ShardedRecDBOptions {
  /// Engine shards behind the router, in [1, kMaxShardCount].
  size_t num_shards = 2;
  /// Template for every shard's options; shard_count/shard_index are
  /// overwritten per shard by the router.
  RecDBOptions shard_options;
};

class ShardedRecDB {
 public:
  ~ShardedRecDB();

  ShardedRecDB(const ShardedRecDB&) = delete;
  ShardedRecDB& operator=(const ShardedRecDB&) = delete;

  /// In-memory router over `options.num_shards` fresh engine shards.
  static Result<std::unique_ptr<ShardedRecDB>> Create(
      ShardedRecDBOptions options = {});

  /// File-backed router: shard k lives at `path + ".shard<k>"` with its own
  /// WAL. Reopening recovers every shard independently, then every shard
  /// shares shard 0's recovered recommenders; call DeclarePartitionedTable
  /// again for each partitioned table afterwards — it re-seeds the
  /// recommenders on it from a gathered canonical matrix (each recovered
  /// heap holds only its partition).
  static Result<std::unique_ptr<ShardedRecDB>> Open(
      const std::string& path, ShardedRecDBOptions options = {});

  /// Execute one SQL statement through the router. SELECT/EXPLAIN run under
  /// a shared router lock; everything else is exclusive.
  Result<ResultSet> Execute(const std::string& sql);

  /// Partition-aware bulk load: owned rows land in their owning shard's
  /// heap, shard 0 feeds every row to the shared plane, and the router
  /// counts each row against its owner for the skew gauge.
  Status BulkInsert(const std::string& table,
                    const std::vector<std::vector<Value>>& rows);

  /// Declare `table` user-partitioned on `user_col` on every shard, seed the
  /// skew counters with each shard's row count, and (on a reopened router)
  /// re-seed existing recommenders on the table from a gathered canonical
  /// matrix.
  Status DeclarePartitionedTable(const std::string& table,
                                 const std::string& user_col);

  /// Refresh one shared recommender (merge pending deltas). Returns true
  /// when a merge happened.
  Result<bool> RefreshAll(const std::string& name);

  /// Block until the background-refresh lane is idle.
  void DrainBackgroundWork();

  Status Checkpoint();
  Status Close();

  size_t num_shards() const { return shards_.size(); }
  RecDB* shard(size_t k) { return shards_[k].get(); }

 private:
  /// Per partitioned table: the declared user column and the rows each
  /// shard stores, for serving.shard_skew_pct.
  struct PartitionInfo {
    std::string user_col;
    std::vector<uint64_t> routed_rows;  // per shard
  };

  ShardedRecDB() = default;

  static Status ValidateOptions(const ShardedRecDBOptions& options);

  /// Statement dispatch; caller classified and holds the right lock.
  Result<ResultSet> ExecuteSelect(const std::string& sql,
                                  const SelectStatement& stmt);
  Result<ResultSet> ScatterSelect(const std::string& sql,
                                  const SelectStatement& stmt,
                                  PartitionInfo* info,
                                  const std::vector<size_t>& targets);
  /// EXPLAIN ANALYZE runs on the shards the SELECT would visit and prints
  /// each leg's annotated plan under a `shard k` line.
  Result<ResultSet> ExplainAnalyze(const std::string& sql,
                                   const SelectStatement& select);
  /// The shards a SELECT must visit: every shard, or the owners of the
  /// users its WHERE pins. Empty when shard 0 answers alone (no partitioned
  /// table in FROM, or one shard); `info` is the partitioned table's.
  std::vector<size_t> Route(const SelectStatement& stmt, PartitionInfo** info);
  /// Run `sql` on each target shard through the shared scheduler; the
  /// legs come back in target order, or the first leg's error.
  Result<std::vector<ResultSet>> RunLegs(const std::string& sql,
                                         const std::vector<size_t>& targets);
  Result<ResultSet> BroadcastWrite(const std::string& sql,
                                   const Statement& stmt);
  /// Run `fn` on every shard in shard order, even after a failure; returns
  /// the first error.
  template <typename Fn>
  Status ForEachShard(Fn&& fn);
  /// Replicated ratings table: shard 0 trains the recommender from its
  /// (complete) heap and every other shard adopts it.
  Result<ResultSet> CreateSharedRecommender(const std::string& sql,
                                            const std::string& name);
  Result<ResultSet> GatherCreateRecommender(RecommenderConfig config);

  /// Re-seed every recommender on `table` from a gathered, (uid,iid)-sorted
  /// canonical matrix. Caller holds the exclusive router lock.
  Status ReseedTableLocked(const std::string& table);

  PartitionInfo* FindPartition(const std::string& table);
  void PublishSkew(const PartitionInfo& info);

  mutable std::shared_mutex router_mu_;
  /// The engine lock every shard shares (RecDB::ShareEngineLock).
  std::shared_ptr<std::shared_mutex> engine_mu_ =
      std::make_shared<std::shared_mutex>();
  std::vector<std::unique_ptr<RecDB>> shards_;
  std::unordered_map<std::string, PartitionInfo> partitions_;  // lower(table)
};

}  // namespace recdb
