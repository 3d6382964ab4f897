// RecDB: the embedded database facade — the library's main entry point.
//
//   recdb::RecDB db;
//   db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)");
//   db.Execute("INSERT INTO Ratings VALUES (1, 1, 4.5), (2, 1, 3.0)");
//   db.Execute("CREATE RECOMMENDER GeneralRec ON Ratings USERS FROM uid "
//              "ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF");
//   auto rs = db.Execute("SELECT R.iid, R.ratingval FROM Ratings AS R "
//                        "RECOMMEND R.iid TO R.uid ON R.ratingval "
//                        "USING ItemCosCF WHERE R.uid = 1 "
//                        "ORDER BY R.ratingval DESC LIMIT 10");
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/recommender_registry.h"
#include "cache/cache_manager.h"
#include "common/status.h"
#include "execution/executor.h"
#include "obs/tracer.h"
#include "planner/optimizer.h"
#include "planner/planner.h"
#include "storage/catalog.h"
#include "storage/log_manager.h"

namespace recdb {

class Session;

/// How the engine acts on the one maintenance trigger
/// (Recommender::NeedsRefresh, the paper's N%).
enum class MaintenanceMode : uint8_t {
  /// Never on its own: the embedder calls RefreshRecommender. The default,
  /// so tests and benchmarks keep fully deterministic timing.
  kManual,
  /// The writing statement refreshes before it returns.
  kInline,
  /// The re-freeze is handed to the TaskScheduler's background lane.
  kBackground,
};

struct RecDBOptions {
  /// Buffer-pool frames (pages of kPageSize bytes).
  size_t buffer_pool_pages = 4096;
  /// Planner / optimizer rule toggles.
  PlannerOptions planner;
  /// Maintenance threshold (the paper's N%) for new recommenders: refresh
  /// once the delta log reaches this fraction of the base ratings.
  /// Persisted with each recommender, so it survives Close/Open.
  double rebuild_threshold = 0.10;
  /// Model hyperparameters for new recommenders.
  SimilarityOptions sim_opts;
  SvdOptions svd_opts;
  /// What a write does once a recommender crosses rebuild_threshold.
  /// Runtime-adjustable via `SET maintenance = manual|inline|background`.
  MaintenanceMode maintenance = MaintenanceMode::kManual;
  /// Worker threads for morsel-parallel scoring and model builds; 0 leaves
  /// the process-wide scheduler unchanged (it defaults to 1 = serial).
  /// Runtime-adjustable via `SET parallelism = N`.
  size_t parallelism = 0;
  /// Serving-layer user partition (DESIGN.md §14, docs/SCALING.md). With
  /// shard_count > 1 this engine is one shard of a ShardedRecDB: RECOMMEND
  /// executors score only the users `shard_index` owns (ShardOfUser), DML
  /// on tables declared partitioned lands only owned rows in the heap/WAL,
  /// and cache demand is recorded for owned users only. The model plane is
  /// shared: every shard of the router registers the same Recommender, and
  /// each rating op is fed to it by exactly one shard (shard 0 for ops all
  /// shards see). Fixed at construction by the router
  /// (ShardedRecDBOptions::num_shards); out-of-range values (shard_count
  /// in [1, kMaxShardCount], shard_index in [0, shard_count)) are rejected,
  /// not clamped.
  size_t shard_count = 1;
  size_t shard_index = 0;
};

struct CreateRecommenderStatement;

/// The config a CREATE RECOMMENDER statement asks for: its names and
/// algorithm, with the N% threshold and hyperparameters from `options`.
Result<RecommenderConfig> RecommenderConfigFor(
    const CreateRecommenderStatement& stmt, const RecDBOptions& options);

/// Range-check the shard/serving knobs. Invalid combinations surface as
/// InvalidArgument here (and from Open / SET / the first Execute) rather
/// than being silently clamped.
Status ValidateShardOptions(const RecDBOptions& options);

/// One (user, item, rating) row of a ratings table, as a model loads it.
struct RatingTriple {
  int64_t user = 0;
  int64_t item = 0;
  double rating = 0;
};

/// The one check between a ratings-table row and a RatingMatrix, for a
/// single node's load and the router's gathered build alike: a row with a
/// NULL user, item or rating is skipped (nullopt); a user or item id that
/// is not INT, or a rating that is not numeric, fails the build.
Result<std::optional<RatingTriple>> RatingFromRow(const Value& user,
                                                  const Value& item,
                                                  const Value& rating);

/// Result of one executed statement.
struct ResultSet {
  std::vector<std::string> columns;
  std::vector<Tuple> rows;
  /// For DDL/DML statements: a human-readable confirmation.
  std::string message;
  /// Rendered span tree of the script (non-empty only under `SET trace =
  /// on`): parse -> plan -> execute, with one span per executor node.
  std::string trace;
  ExecStats stats;
  double elapsed_seconds = 0;
  /// Rows an INSERT wrote to this engine's heap, or a DELETE/UPDATE removed
  /// or rewrote. The router counts INSERT rows per shard for its skew gauge
  /// and sums DELETE/UPDATE rows across shards for its confirmation.
  size_t rows_affected = 0;

  size_t NumRows() const { return rows.size(); }
  const Value& At(size_t row, size_t col) const { return rows[row].At(col); }
  /// Tabular rendering (up to `max_rows` rows).
  std::string ToString(size_t max_rows = 20) const;
};

class RecDB {
 public:
  /// In-memory database by default; pass a DiskManager (e.g. a
  /// FileDiskManager or a FaultInjectingDiskManager) to run over a
  /// different device.
  explicit RecDB(RecDBOptions options = {},
                 std::unique_ptr<DiskManager> disk = nullptr);
  ~RecDB();

  RecDB(const RecDB&) = delete;
  RecDB& operator=(const RecDB&) = delete;

  /// Open (or create) a file-backed database at `path`, with its WAL at
  /// `path + ".wal"`. Reopening a file restores every table from its
  /// persisted catalog, REDO-replays the durable log suffix over the last
  /// checkpoint, and re-trains every recommender from the recovered heaps
  /// (training is deterministic, so a reopened database answers RECOMMEND
  /// queries identically). Corrupt pages surface as kDataLoss.
  static Result<std::unique_ptr<RecDB>> Open(const std::string& path,
                                             RecDBOptions options = {});

  /// Open over explicit devices — how fault tests wrap both the data file
  /// and the WAL in FaultInjectingDiskManagers. `wal` may be null for a
  /// log-less database (in-memory semantics over any device).
  static Result<std::unique_ptr<RecDB>> OpenWithDisks(
      std::unique_ptr<DiskManager> data, std::unique_ptr<DiskManager> wal,
      RecDBOptions options = {});

  /// Flush dirty pages, persist the catalog + recommender registry, and
  /// issue the durability barrier. No-op for in-memory databases.
  Status Checkpoint();

  /// Checkpoint and release the storage file. The destructor calls this
  /// best-effort; call it explicitly to observe failures.
  Status Close();

  /// Parse and execute a script; returns the last statement's result.
  ///
  /// Concurrency: scripts containing only SELECT/EXPLAIN run under a shared
  /// lock (any number in parallel); scripts with any mutating statement
  /// take the exclusive lock. WAL group commit happens after the lock is
  /// released, so an INSERT's fsync never blocks concurrent RECOMMEND
  /// scans — they read the consistent pre- or post-statement snapshot.
  /// Under `SET trace = on` the script records its own span tree into
  /// ResultSet::trace and last_trace(), under the same locks.
  Result<ResultSet> Execute(const std::string& sql);

  /// A per-caller handle for concurrent use; see api/session.h. Sessions
  /// share this RecDB's state and must not outlive it.
  std::unique_ptr<Session> CreateSession();

  /// Plan a SELECT without executing (EXPLAIN).
  Result<std::string> Explain(const std::string& sql);

  /// JSON snapshot of the process-wide MetricsRegistry (every counter,
  /// gauge, and histogram in src/obs/metric_names.h) for programmatic
  /// scrapes; see docs/OPERATIONS.md for the field reference.
  static std::string MetricsJson();

  /// Rendered span tree of the most recent traced Execute() call, including
  /// a failed one's partial tree (empty until a statement runs under `SET
  /// trace = on`). A copy: traced readers run concurrently.
  std::string last_trace() const {
    std::lock_guard<std::mutex> lock(trace_mu_);
    return last_trace_;
  }

  // --- direct access for tools, tests and benchmarks ---
  Catalog* catalog() { return catalog_.get(); }
  RecommenderRegistry* registry() { return &registry_; }
  BufferPool* buffer_pool() { return pool_.get(); }
  DiskManager* disk() { return disk_.get(); }
  LogManager* wal() { return log_.get(); }
  PlannerOptions* mutable_planner_options() { return &options_.planner; }
  const RecDBOptions& options() const { return options_; }

  /// Recommender by name.
  Result<Recommender*> GetRecommender(const std::string& name) {
    return registry_.Get(name);
  }

  /// Programmatic CREATE RECOMMENDER: registers the recommender, loads the
  /// configured ratings table into it, and trains the model. The SQL path
  /// uses this too; call it directly to set non-default hyperparameters.
  Result<Recommender*> CreateRecommender(RecommenderConfig config);

  /// Cache manager for a recommender (created lazily, shared clock). Also
  /// wires the recommender's invalidation listener so ingest-staled index
  /// entries are queued for lazy re-materialization.
  Result<CacheManager*> GetCacheManager(const std::string& recommender,
                                        double hotness_threshold = 0.5);

  /// Merge a recommender's pending delta into a fresh frozen base and
  /// incrementally update its model (two-phase: prepare under the shared
  /// lock, commit under the exclusive lock). Returns whether a merge
  /// happened. The background refresh job runs exactly this.
  Result<bool> RefreshRecommender(const std::string& name);

  /// Block until the background-refresh lane is idle (tests).
  void DrainBackgroundWork();

  /// The clock used by cache managers; swap in a ManualClock for
  /// deterministic experiments (must outlive the RecDB).
  void set_clock(const Clock* clock) { clock_ = clock; }

  /// Fast bulk-insert path used by data loaders: appends tuples directly
  /// (values must already match the table schema) and feeds recommenders.
  Status BulkInsert(const std::string& table,
                    const std::vector<std::vector<Value>>& rows);

  // --- sharded serving hooks (DESIGN.md §14; driven by ShardedRecDB) ---

  /// Declare `table` user-partitioned on `user_col`: with shard_count > 1,
  /// INSERT/BulkInsert land only rows owned by this shard's index in the
  /// heap (and thus the WAL), while shard 0 feeds every row to the shared
  /// model plane. The router broadcasts this to all shards before loading.
  Status DeclarePartitionedTable(const std::string& table,
                                 const std::string& user_col);

  /// Register a recommender the router built once for all its shards (the
  /// shared model plane) and log its kCreateRecommender record, so Open
  /// plus DeclarePartitionedTable re-seeds it.
  Status AdoptRecommender(std::shared_ptr<Recommender> rec);

  /// Replace this engine's lock with one shared by every shard of a router,
  /// so a write or refresh of the shared plane excludes every shard's
  /// readers. Call before the engine is used concurrently.
  void ShareEngineLock(std::shared_ptr<std::shared_mutex> mu) {
    state_mu_ = std::move(mu);
  }

 private:
  friend class Session;

  /// Statement loop + per-script I/O fault deltas. Caller holds state_mu_.
  /// `tracer` (null when tracing is off) is the script's own.
  Result<ResultSet> RunStatements(
      const std::vector<std::unique_ptr<Statement>>& stmts,
      obs::Tracer* tracer);
  Result<ResultSet> ExecuteStatement(const Statement& stmt,
                                     obs::Tracer* tracer);
  Result<ResultSet> ExecuteSelect(const SelectStatement& stmt,
                                  obs::Tracer* tracer);
  /// The one plan step (Planner + Optimizer) for SELECT, EXPLAIN and
  /// Explain(), under a `plan` span when traced.
  Result<PlannedQuery> PlanSelect(const SelectStatement& stmt,
                                  obs::Tracer* tracer);
  /// The one drain: records RECOMMEND demand, builds the executor tree
  /// over `ctx`, runs Init and Next to exhaustion (keeping the rows when
  /// `rows` is non-null) and publishes the statement's stats, under an
  /// `execute` span with one span per plan node when traced.
  Status RunPlan(const PlanNode& plan, obs::Tracer* tracer, ExecContext* ctx,
                 std::vector<Tuple>* rows);
  Result<ResultSet> ExecuteCreateTable(const CreateTableStatement& stmt);
  Result<ResultSet> ExecuteInsert(const InsertStatement& stmt);
  Result<ResultSet> ExecuteCreateRecommender(
      const CreateRecommenderStatement& stmt);
  Result<ResultSet> ExecuteDelete(const DeleteStatement& stmt);
  Result<ResultSet> ExecuteUpdate(const UpdateStatement& stmt);
  Result<ResultSet> ExecuteSet(const SetStatement& stmt);
  Result<ResultSet> ExecuteAnalyze(const AnalyzeStatement& stmt);
  /// Resize the process-global scheduler to the last `SET parallelism` a
  /// script recorded. Runs with state_mu_ released (see
  /// pending_parallelism_).
  void ApplyPendingParallelism();

  /// Rows of a table matching an optional WHERE (shared by DELETE/UPDATE).
  Result<std::vector<std::pair<Rid, Tuple>>> CollectMatching(
      TableInfo* table, const Expr* where);

  /// One ratings-row mutation of a DML statement (insert or delete; an
  /// UPDATE contributes a delete of the old row then an insert of the new).
  struct RatingRowOp {
    bool remove = false;
    const Tuple* tuple = nullptr;  // borrowed; alive for the statement
  };

  /// Feed one statement's ratings-row mutations to every recommender on
  /// `table` as a single versioned delta batch (one version bump, one
  /// invalidation callback, one maintenance check per recommender), and to
  /// their cache managers' item histograms. Feed-once rule for the shared
  /// plane: ops `seen_by_all_shards` (INSERT rows, DML on replicated
  /// tables) feed the recommenders on shard 0 only; the rest (DELETE/UPDATE
  /// victims of a partitioned table) on the shard that holds the rows.
  /// Cache pressure is recorded on every shard that sees the ops.
  Status NotifyRatingOps(const std::string& table, const Schema& schema,
                         const std::vector<RatingRowOp>& ops,
                         bool seen_by_all_shards);

  /// The one row-landing loop of INSERT and BulkInsert: builds row k with
  /// `build_row(k)` (already cast to the schema; an error stops the loop),
  /// lands the rows this shard owns in the heap, then feeds every row built
  /// so far to the recommenders, on failure too, so the model sees exactly
  /// the rows the heap and WAL hold. Returns the first failure; `*applied`
  /// counts the rows fed, `*stored` the rows in this shard's heap.
  Status LandInsertRows(TableInfo* table, size_t num_rows,
                        const std::function<Result<Tuple>(size_t)>& build_row,
                        size_t* applied, size_t* stored);

  /// Column index of `table`'s declared partition user column, or SIZE_MAX
  /// when the serving filter is inactive (single shard / undeclared table).
  size_t PartitionUserIndexLocked(const TableInfo& table) const;

  /// Record query demand (user histogram) for a RECOMMEND query. Takes
  /// demand_mu_: concurrent shared-lock readers funnel through here.
  void NotifyRecommendQuery(const PlanNode& plan);
  void NotifyRecommendQueryLocked(const PlanNode& plan);

  /// CreateRecommender body; caller holds the exclusive lock. With
  /// `write_log`, appends a kCreateRecommender WAL record on success
  /// (recovery passes false — replayed records must not re-log). The
  /// ratings come from LoadRatingsMatrix, unless recovery passes a
  /// `preloaded` (already frozen) matrix so recommenders sharing one
  /// ratings table share one scan and CSR build.
  Result<Recommender*> CreateRecommenderLocked(
      RecommenderConfig config, bool write_log,
      std::shared_ptr<RatingMatrix> preloaded = nullptr);

  /// Load a ratings table's (user, item, rating) columns into a fresh,
  /// frozen matrix: the one heap-to-matrix loop, for CREATE RECOMMENDER
  /// and recovery alike.
  Result<std::shared_ptr<RatingMatrix>> LoadRatingsMatrix(
      const RecommenderConfig& config);

  /// Queue a background re-freeze for `name` if none is in flight.
  void ScheduleBackgroundRefresh(const std::string& name);
  /// Background lane body: RefreshInTwoPhases for a scheduled job.
  void BackgroundRefreshJob(const std::string& name);
  /// The one refresh sequence, foreground and background: prepare under
  /// the shared lock, commit under the writer lock, retry once on a version
  /// conflict, then Refresh() under the writer lock. `scheduled` frees the
  /// recommender's background slot when the refresh ends.
  Result<bool> RefreshInTwoPhases(const std::string& name, bool scheduled);

  /// Serialize the catalog + recommender configs into the meta-page chain
  /// rooted at page 0 (file-backed databases only). `checkpoint_lsn` names
  /// the log position this snapshot covers; recovery skips records at or
  /// below it.
  Status PersistMeta(Lsn checkpoint_lsn);

  /// Rebuild the catalog from the meta-page chain. Recommender configs are
  /// collected into `configs` rather than created: recovery trains models
  /// only after REDO has restored the final heap contents.
  Status LoadMeta(std::vector<RecommenderConfig>* configs);

  /// Post-LoadMeta recovery: REDO the recovered log suffix, repair dangling
  /// heap tail links, train recommenders over the final heaps, and
  /// checkpoint if anything changed.
  Status Recover(bool existing);
  Status Redo(std::vector<WalRecord> records,
              std::vector<RecommenderConfig>* configs, size_t* replayed);
  Status RepairHeapTails(bool* repaired);
  void AttachWalToHeaps();

  /// Checkpoint body; caller holds the exclusive lock. Order matters for
  /// crash safety: data pages flush first, then the catalog snapshot naming
  /// `checkpoint_lsn` becomes durable, and only then may the log truncate.
  Status CheckpointLocked();

  /// Group-commit every record up to the log's current newest LSN. Called
  /// after the exclusive lock is released so the fsync never blocks
  /// readers.
  Status CommitWal();

  RecDBOptions options_;
  /// ValidateShardOptions result for directly-constructed engines (the
  /// constructor cannot return a Status); Execute/BulkInsert surface it.
  Status options_status_ = Status::OK();
  /// Tables declared user-partitioned: lower(table) -> user column name.
  std::unordered_map<std::string, std::string> partitioned_tables_;
  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<LogManager> log_;
  std::vector<page_id_t> meta_pages_;
  /// Log position covered by the on-disk catalog snapshot.
  Lsn checkpoint_lsn_ = 0;
  std::atomic<bool> closed_{false};
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  RecommenderRegistry registry_;
  SystemClock default_clock_;
  const Clock* clock_;
  std::unordered_map<std::string, std::unique_ptr<CacheManager>>
      cache_managers_;

  /// Reader-writer discipline over all engine state: SELECT/EXPLAIN scripts
  /// hold it shared, anything mutating holds it exclusive. WAL commit
  /// (fsync) happens outside it. Lock order: state_mu_ -> pool mutex ->
  /// log mutex, and state_mu_ -> TaskScheduler submit lock (a parallel
  /// operator); never the reverse. Own by default; one per router when the
  /// engine is a shard (ShareEngineLock).
  std::shared_ptr<std::shared_mutex> state_mu_ =
      std::make_shared<std::shared_mutex>();
  /// Serializes cache-manager demand recording among concurrent readers.
  std::mutex demand_mu_;
  std::atomic<uint64_t> next_session_id_{1};

  /// `SET parallelism = N` recorded under state_mu_ and applied once the
  /// script releases it (0 = nothing pending). The scheduler's Resize takes
  /// its submit lock, which a scatter leg holds while it takes a shard's
  /// state_mu_: resizing under state_mu_ would invert that order.
  std::atomic<size_t> pending_parallelism_{0};
  /// `SET trace = on|off` state, read once per Execute().
  std::atomic<bool> trace_enabled_{false};
  /// Guards last_trace_: traced readers finish concurrently.
  mutable std::mutex trace_mu_;
  std::string last_trace_;
};

}  // namespace recdb
