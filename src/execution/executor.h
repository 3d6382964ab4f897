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
  // Bounded Top-k (TopKPruner, plus the CandidateIndex blocks for SVD)
  // during the statement. candidates_generated stays for readers of the
  // field (perfbench's index.candidates_per_query) and always reads 0:
  // no path generates candidates (CF Top-k selects densely).
  uint64_t candidates_generated = 0;
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
  /// One record per plan node, for EXPLAIN ANALYZE and the trace alike.
  /// Each executor resolves its slot at construction; the Next wrapper
  /// counts emitted rows into it as tuples flow.
  NodeStatsMap nodes;
  /// Non-null when `SET trace = on`: the Init and Next wrappers also time
  /// each InitImpl / NextImpl call and count Next calls into the node's
  /// record, which the tracer renders once the plan has drained.
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
  /// Resolves this node's record once; unordered_map element references
  /// survive a rehash, so Init and Next add to it through the pointer.
  Executor(const PlanNode& node, ExecContext* ctx)
      : exec_ctx_(ctx), stats_(ctx != nullptr ? &ctx->nodes[&node] : nullptr) {}
  virtual ~Executor() = default;

  /// Prepare (or re-prepare) the iterator. Must be callable repeatedly.
  /// When a tracer is attached, InitImpl's time (which includes the
  /// children's Init and any work drained there, e.g. TopN's or bounded
  /// scoring's) is added to this node's inclusive time.
  Status Init() {
    if (exec_ctx_ == nullptr || exec_ctx_->tracer == nullptr) {
      return InitImpl();
    }
    const auto start = std::chrono::steady_clock::now();
    Status s = InitImpl();
    stats_->ns += NsSince(start);
    return s;
  }

  /// Produce the next tuple, or nullopt when exhausted. Counts emitted
  /// tuples into this node's record for EXPLAIN ANALYZE, and — when a
  /// tracer is attached — its Next calls and inclusive NextImpl time for
  /// the per-executor trace spans.
  Result<std::optional<Tuple>> Next() {
    if (exec_ctx_ != nullptr && exec_ctx_->tracer != nullptr) {
      return TracedNext();
    }
    auto r = NextImpl();
    if (r.ok() && r.value().has_value() && stats_ != nullptr) ++stats_->rows;
    return r;
  }

 protected:
  virtual Status InitImpl() = 0;
  virtual Result<std::optional<Tuple>> NextImpl() = 0;

 private:
  static uint64_t NsSince(std::chrono::steady_clock::time_point start) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }

  Result<std::optional<Tuple>> TracedNext() {
    const auto start = std::chrono::steady_clock::now();
    auto r = NextImpl();
    stats_->ns += NsSince(start);
    ++stats_->next_calls;
    if (r.ok() && r.value().has_value()) ++stats_->rows;
    return r;
  }

  ExecContext* exec_ctx_;
  NodeStats* stats_;
};

using ExecutorPtr = std::unique_ptr<Executor>;

/// Instantiate the executor tree for a physical plan.
Result<ExecutorPtr> CreateExecutor(const PlanNode& plan, ExecContext* ctx);

}  // namespace recdb
