// Volcano (iterator-model) executor interface.
//
// All operators — including the RECOMMEND family — are non-blocking
// iterators (paper Section IV-B): Init() prepares state, Next() produces one
// tuple at a time so downstream operators can consume results before the
// recommendation operator finishes all predictions.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/shard.h"
#include "common/status.h"
#include "obs/tracer.h"
#include "planner/plan_node.h"
#include "types/tuple.h"

namespace recdb {

/// Counters shared by all executors of one query execution.
struct ExecStats {
  uint64_t tuples_scanned = 0;      // base-table tuples read
  uint64_t predictions = 0;         // candidate scores computed by the model
  uint64_t predict_batches = 0;     // PredictBatch invocations (hot paths)
  uint64_t index_hits = 0;          // users served from RecScoreIndex
  uint64_t index_misses = 0;        // users that fell back to the model
  uint64_t join_probes = 0;
  // Sublinear Top-N (CandidateIndex + TopKPruner) during the statement.
  uint64_t candidates_generated = 0;  // items reached by the two-hop walk
  uint64_t blocks_skipped = 0;        // bound blocks pruned below threshold
  uint64_t items_pruned = 0;          // items never scored thanks to pruning
  // Morsel-parallel execution (TaskScheduler) during the statement.
  uint64_t tasks_spawned = 0;  // morsels executed by the scheduler
  double worker_time_ms = 0;   // summed worker busy time across morsels
  // I/O fault behaviour observed during the statement (DiskManager deltas).
  uint64_t io_read_failures = 0;    // reads that failed after retries
  uint64_t io_write_failures = 0;   // writes that failed after retries
  uint64_t io_retries = 0;          // transient-fault retries performed
  uint64_t io_checksum_failures = 0;  // pages that failed CRC verification

  /// Field-wise sum: folds per-morsel, per-engine and per-shard counters
  /// into one statement's totals.
  ExecStats& operator+=(const ExecStats& o) {
    tuples_scanned += o.tuples_scanned;
    predictions += o.predictions;
    predict_batches += o.predict_batches;
    index_hits += o.index_hits;
    index_misses += o.index_misses;
    join_probes += o.join_probes;
    candidates_generated += o.candidates_generated;
    blocks_skipped += o.blocks_skipped;
    items_pruned += o.items_pruned;
    tasks_spawned += o.tasks_spawned;
    worker_time_ms += o.worker_time_ms;
    io_read_failures += o.io_read_failures;
    io_write_failures += o.io_write_failures;
    io_retries += o.io_retries;
    io_checksum_failures += o.io_checksum_failures;
    return *this;
  }
};

struct ExecContext {
  ExecStats stats;
  /// Actual rows emitted per plan node (EXPLAIN ANALYZE), keyed by node
  /// address; filled by the Executor::Next wrapper as tuples flow.
  ActualRowMap actual_rows;
  /// Non-null when `SET trace = on`: the Next wrapper times each NextImpl
  /// call and accumulates per-node inclusive durations into the tracer.
  /// Null (the default) keeps the hot path untimed and allocation-free.
  obs::Tracer* tracer = nullptr;
  /// Serving-layer user partition (DESIGN.md §14), seeded from
  /// RecDBOptions::shard_count / shard_index. When shard_count > 1 the
  /// RECOMMEND executors restrict their candidate-user lists to the users
  /// this engine shard owns; the emission order of the surviving users is
  /// unchanged, so each shard's stream is an order-preserving subsequence
  /// of the single-node stream and the router's merge can reassemble the
  /// exact single-node output.
  uint32_t shard_count = 1;
  uint32_t shard_index = 0;

  bool ShardFilterActive() const { return shard_count > 1; }
  bool OwnsUser(int64_t user_id) const {
    return shard_count <= 1 || ShardOfUser(user_id, shard_count) == shard_index;
  }
};

class Executor {
 public:
  /// Resolves this node's EXPLAIN ANALYZE row counter once; unordered_map
  /// element references survive a rehash, so Next increments through it.
  Executor(const PlanNode& node, ExecContext* ctx)
      : node_(&node),
        exec_ctx_(ctx),
        actual_rows_(ctx != nullptr ? &ctx->actual_rows[&node] : nullptr) {}
  virtual ~Executor() = default;

  /// Prepare (or re-prepare) the iterator. Must be callable repeatedly.
  virtual Status Init() = 0;

  /// Produce the next tuple, or nullopt when exhausted. Counts emitted
  /// tuples into ExecContext::actual_rows for EXPLAIN ANALYZE, and — when a
  /// tracer is attached — accumulates this node's inclusive NextImpl time
  /// for the per-executor trace spans.
  Result<std::optional<Tuple>> Next() {
    if (exec_ctx_ != nullptr && exec_ctx_->tracer != nullptr) {
      return TracedNext();
    }
    auto r = NextImpl();
    if (r.ok() && r.value().has_value() && actual_rows_ != nullptr) {
      ++*actual_rows_;
    }
    return r;
  }

 protected:
  virtual Result<std::optional<Tuple>> NextImpl() = 0;

 private:
  Result<std::optional<Tuple>> TracedNext() {
    const auto start = std::chrono::steady_clock::now();
    auto r = NextImpl();
    const uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    const bool produced = r.ok() && r.value().has_value();
    exec_ctx_->tracer->RecordNode(node_, ns, produced);
    if (produced) ++*actual_rows_;
    return r;
  }

  const PlanNode* node_;
  ExecContext* exec_ctx_;
  uint64_t* actual_rows_;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// Instantiate the executor tree for a physical plan.
Result<ExecutorPtr> CreateExecutor(const PlanNode& plan, ExecContext* ctx);

}  // namespace recdb
