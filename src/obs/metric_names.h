// Single source of truth for every engine metric name.
//
// Each metric is declared exactly once in one of the X-macro tables below and
// expanded into (a) the Counter/Gauge/Histogram enums in obs/metrics.h and
// (b) the name/unit/help arrays used by snapshots, `\metrics`, and
// MetricsJson(). docs/OPERATIONS.md documents every name listed here;
// tools/docs_lint.py cross-checks the two files and CI fails on drift, so a
// metric added (or renamed) here must be documented in the same change.
//
// Naming convention: "<subsystem>.<what>", lower_snake within components.
// Counters are monotonic over the process lifetime; gauges are last-writer
// instantaneous values; histograms record latency in microseconds.
#pragma once

// X(enum_id, "name", "unit", "help")
#define RECDB_COUNTER_METRICS(X)                                              \
  X(kBufferPoolHits, "bufferpool.hits", "pages",                              \
    "Fetch() served from a resident frame")                                   \
  X(kBufferPoolMisses, "bufferpool.misses", "pages",                          \
    "Fetch() that had to read the page from disk")                            \
  X(kBufferPoolEvictions, "bufferpool.evictions", "pages",                    \
    "LRU victim frames reclaimed to make room")                               \
  X(kBufferPoolFlushes, "bufferpool.flushes", "pages",                        \
    "dirty pages written back to the disk manager")                           \
  X(kDiskReads, "disk.reads", "pages", "page reads issued to the disk layer") \
  X(kDiskWrites, "disk.writes", "pages",                                      \
    "page writes issued to the disk layer")                                   \
  X(kDiskReadFailures, "disk.read_failures", "ops",                           \
    "reads that failed after retry was exhausted")                            \
  X(kDiskWriteFailures, "disk.write_failures", "ops",                         \
    "writes that failed after retry was exhausted")                           \
  X(kDiskRetries, "disk.retries", "ops",                                      \
    "transient-fault retries attempted by RunWithRetry")                      \
  X(kDiskChecksumFailures, "disk.checksum_failures", "pages",                 \
    "page reads rejected by the CRC32 checksum")                              \
  X(kRecIndexPuts, "recindex.puts", "entries",                                \
    "(user,item,score) entries inserted/overwritten in RecScoreIndex")        \
  X(kRecIndexErases, "recindex.erases", "entries",                            \
    "entries removed from RecScoreIndex (incl. user erases)")                 \
  X(kRecIndexUserHits, "recindex.user_hits", "lookups",                       \
    "IndexRecommend found the query user materialized in the index")          \
  X(kRecIndexUserMisses, "recindex.user_misses", "lookups",                   \
    "IndexRecommend fell back to the model for an un-materialized user")      \
  X(kCacheRuns, "cache.runs", "runs",                                         \
    "CacheManager::Run maintenance sweeps executed")                          \
  X(kCacheAdmissions, "cache.admissions", "users",                            \
    "users admitted (materialized) by a maintenance run")                     \
  X(kCacheEvictions, "cache.evictions", "users",                              \
    "users evicted from the index by a maintenance run")                      \
  X(kCacheHotnessCrossings, "cache.hotness_crossings", "users",              \
    "hotness-threshold crossings observed (either direction)")                \
  X(kCacheQueriesRecorded, "cache.queries_recorded", "events",                \
    "RECOMMEND demand events recorded via RecordQuery")                       \
  X(kCacheUpdatesRecorded, "cache.updates_recorded", "events",                \
    "rating-update events recorded via RecordUpdate")                         \
  X(kSchedulerLoops, "scheduler.loops", "loops",                              \
    "ParallelFor invocations dispatched to the worker pool")                  \
  X(kSchedulerTasksSpawned, "scheduler.tasks_spawned", "morsels",             \
    "morsels claimed and run by workers")                                     \
  X(kSchedulerWorkerBusyUs, "scheduler.worker_busy_us", "us",                 \
    "cumulative per-worker busy time across all loops")                       \
  X(kModelBuilds, "model.builds", "builds",                                   \
    "full model (re)builds via Recommender::Build")                           \
  X(kModelPredictCalls, "model.predict_calls", "predictions",                 \
    "individual (user,item) scores produced by PredictBatch")                 \
  X(kModelPredictBatches, "model.predict_batches", "batches",                 \
    "PredictBatch invocations (batch-of-one Predict included)")               \
  X(kPlannerRuleMergeFilters, "planner.rule_merge_filters", "hits",           \
    "MergeFilters rewrite applications")                                      \
  X(kPlannerRuleFilterPushdown, "planner.rule_filter_pushdown", "hits",       \
    "PushFilterThroughJoin rewrite applications")                             \
  X(kPlannerRuleFilterRecommend, "planner.rule_filter_recommend", "hits",     \
    "PushFilterIntoRecommend rewrite applications")                           \
  X(kPlannerRuleHashJoin, "planner.rule_hash_join", "hits",                   \
    "NljToHashJoin rewrite applications")                                     \
  X(kPlannerRuleJoinRecommend, "planner.rule_join_recommend", "hits",         \
    "JoinToJoinRecommend rewrite applications")                               \
  X(kPlannerRuleIndexRecommend, "planner.rule_index_recommend", "hits",       \
    "TopNToIndexRecommend rewrite applications")                              \
  X(kPlannerCostFlips, "planner.cost_flips", "flips",                         \
    "phase-2 cost pass decisions that undid/declined a phase-1 rewrite")      \
  X(kQueryStatements, "query.statements", "statements",                       \
    "statements executed through RecDB::Execute")                             \
  X(kQuerySelects, "query.selects", "queries",                                \
    "SELECT (incl. RECOMMEND) queries executed")                              \
  X(kQueryRowsEmitted, "query.rows_emitted", "rows",                          \
    "result rows returned to clients")                                        \
  X(kExecTuplesScanned, "exec.tuples_scanned", "tuples",                      \
    "tuples produced by table scans (promoted from ExecStats)")               \
  X(kExecPredictions, "exec.predictions", "predictions",                      \
    "candidate scores computed on the query path (promoted from ExecStats)")  \
  X(kExecJoinProbes, "exec.join_probes", "tuples",                            \
    "outer tuples probed by join operators (promoted from ExecStats)")        \
  X(kWalAppends, "wal.appends", "records",                                    \
    "log records buffered via LogManager::Append")                            \
  X(kWalBytesAppended, "wal.bytes_appended", "bytes",                         \
    "framed log bytes buffered (len+crc header included)")                    \
  X(kWalCommits, "wal.commits", "commits",                                    \
    "Commit/EnsureDurable calls that reached durability")                     \
  X(kWalFsyncs, "wal.fsyncs", "syncs",                                        \
    "group-commit flush batches (one device Sync each)")                      \
  X(kWalRecordsReplayed, "wal.records_replayed", "records",                   \
    "log records REDO-applied by RecDB::Open recovery")                       \
  X(kWalResets, "wal.resets", "resets",                                       \
    "checkpoint truncations (epoch bumps) via LogManager::Reset")             \
  X(kSessionsOpened, "session.opened", "sessions",                            \
    "Session objects handed out by RecDB::CreateSession")                     \
  X(kSessionsClosed, "session.closed", "sessions",                            \
    "Session objects destroyed")                                              \
  X(kSessionStatements, "session.statements", "statements",                   \
    "statements executed through a Session handle")                           \
  X(kIngestDeltaAdds, "ingest.delta_adds", "ops",                             \
    "new (user,item) pairs landed in a frozen matrix's live rows")            \
  X(kIngestDeltaOverwrites, "ingest.delta_overwrites", "ops",                 \
    "value-changing overwrites landed in the live rows")                      \
  X(kIngestDeltaRemoves, "ingest.delta_removes", "ops",                       \
    "removals landed in the live rows")                                       \
  X(kIngestRowUpdates, "ingest.incremental_row_updates", "rows",              \
    "neighborhood rows recomputed by incremental CF maintenance")             \
  X(kIngestSvdFoldIns, "ingest.svd_fold_ins", "rows",                         \
    "factor rows folded in for users/items new since the last train")         \
  X(kIngestRefreshes, "ingest.refreshes", "refreshes",                        \
    "delta re-freeze/merge cycles committed (incremental maintenance)")       \
  X(kIngestRefreshConflicts, "ingest.refresh_conflicts", "conflicts",         \
    "re-freeze commits aborted because the matrix version moved")             \
  X(kIngestRefreshesScheduled, "ingest.refreshes_scheduled", "jobs",          \
    "background re-freeze jobs submitted to the TaskScheduler")               \
  X(kIngestCsrBuilds, "ingest.csr_builds", "builds",                          \
    "flat-CSR construction passes (freeze, re-freeze, merged rebuild)")       \
  X(kIngestIndexInvalidations, "ingest.index_invalidations", "entries",       \
    "RecScoreIndex entries evicted because a delta op made them stale")       \
  X(kIngestBatches, "ingest.batches", "batches",                              \
    "multi-row statements applied through the batched ingest path")           \
  X(kIngestBatchOps, "ingest.batch_ops", "ops",                               \
    "rating mutations carried by batched statements (effective ops)")         \
  X(kIngestFullRebuilds, "ingest.full_rebuilds", "rebuilds",                  \
    "refresh commits that retrained a model with no incremental form")        \
  X(kPruneTopkQueries, "prune.topk_queries", "users",                         \
    "per-user Top-N loops answered by the pruned (threshold) path")           \
  X(kPruneBlocksSkipped, "prune.blocks_skipped", "blocks",                    \
    "bound-table blocks skipped because their bound could not beat k-th")     \
  X(kPruneItemsPruned, "prune.items_pruned", "items",                         \
    "items never scored thanks to block skips and early termination")         \
  X(kPrunePlanChosen, "prune.plan_chosen", "plans",                           \
    "plans whose Top-k took the bounded driver or a pruned index fallback")   \
  X(kPruneIndexBuilds, "prune.index_builds", "builds",                        \
    "CandidateIndex bound builds (initial build and refresh commits)")        \
  X(kServingQueries, "serving.queries", "statements",                         \
    "statements executed through the ShardedRecDB router")                    \
  X(kServingScatterQueries, "serving.scatter_queries", "queries",             \
    "SELECTs fanned out to more than one engine shard")                       \
  X(kServingSingleShardQueries, "serving.single_shard_queries", "queries",    \
    "SELECTs routed to exactly one shard (owner-targeted or shard 0)")        \
  X(kServingFanoutLegs, "serving.fanout_legs", "legs",                        \
    "per-shard scatter legs executed across all router queries")              \
  X(kServingRowsMerged, "serving.rows_merged", "rows",                        \
    "per-shard result rows consumed by the scatter-gather merge")             \
  X(kServingRowsEmitted, "serving.rows_emitted", "rows",                      \
    "merged rows returned to router clients")                                 \
  X(kServingDmlBroadcasts, "serving.dml_broadcasts", "statements",            \
    "DML/DDL statements broadcast to every shard by the router")              \
  X(kServingDmlRowsRouted, "serving.dml_rows_routed", "rows",                 \
    "partitioned-table rows landed in their owning shard's heap")             \
  X(kServingDmlRowsFiltered, "serving.dml_rows_filtered", "rows",             \
    "broadcast rows a shard's ownership filter kept out of its heap")

#define RECDB_GAUGE_METRICS(X)                                                \
  X(kBufferPoolResidentPages, "bufferpool.resident_pages", "pages",           \
    "frames currently holding a page")                                        \
  X(kSchedulerThreads, "scheduler.threads", "threads",                        \
    "worker threads in the global TaskScheduler")                             \
  X(kSchedulerQueueDepth, "scheduler.queue_depth", "morsels",                 \
    "morsels still unclaimed in the most recent loop")                        \
  X(kRecIndexEntries, "recindex.entries", "entries",                          \
    "(user,item) pairs currently materialized in RecScoreIndex")              \
  X(kRecIndexUsers, "recindex.users", "users",                                \
    "distinct users currently materialized in RecScoreIndex")                 \
  X(kWalDurableLsn, "wal.durable_lsn", "lsn",                                 \
    "highest LSN known durable on the log device")                            \
  X(kSessionsActive, "session.active", "sessions",                            \
    "Session handles currently alive")                                        \
  X(kIngestDeltaPending, "ingest.delta_pending", "ops",                       \
    "delta ops accumulated across recommenders, not yet re-frozen")           \
  X(kServingShards, "serving.shards", "shards",                               \
    "engine shards owned by the ShardedRecDB router")                         \
  X(kServingMergeDepth, "serving.merge_depth", "rows",                        \
    "deepest per-shard stream consumed by the most recent merge")             \
  X(kServingShardSkewPct, "serving.shard_skew_pct", "percent",                \
    "(max-mean)/mean routed-row imbalance across shards, in percent")

#define RECDB_HISTOGRAM_METRICS(X)                                            \
  X(kQueryLatencyUs, "query.latency_us", "us",                                \
    "end-to-end SELECT latency (plan + execute)")                             \
  X(kModelTrainUs, "model.train_us", "us",                                    \
    "Recommender::Build wall-clock per build")                                \
  X(kModelNeighborhoodUs, "model.neighborhood_us", "us",                      \
    "BuildNeighborhoods wall-clock per similarity build")                     \
  X(kCacheRunUs, "cache.run_us", "us",                                        \
    "CacheManager::Run wall-clock per maintenance sweep")                     \
  X(kCacheMaterializeUs, "cache.materialize_us", "us",                        \
    "MaterializeUser wall-clock per admitted user")                           \
  X(kWalCommitUs, "wal.commit_us", "us",                                      \
    "Commit wall-clock per caller (incl. group-commit waits)")                \
  X(kIngestRefreshUs, "ingest.refresh_us", "us",                              \
    "re-freeze preparation (merged CSR + model row updates) per cycle")       \
  X(kIngestSwapUs, "ingest.swap_us", "us",                                    \
    "re-freeze commit/swap under the writer lock per cycle")                  \
  X(kPruneIndexBuildUs, "prune.index_build_us", "us",                         \
    "CandidateIndex bound build wall-clock per build")                        \
  X(kPruneGenUs, "prune.gen_us", "us",                                        \
    "candidate generation wall-clock per pruned Top-N user")                  \
  X(kServingQueryUs, "serving.query_us", "us",                                \
    "end-to-end router statement latency (route + scatter + merge)")          \
  X(kServingScatterUs, "serving.scatter_us", "us",                            \
    "scatter-phase wall-clock per fanned-out SELECT (slowest leg)")           \
  X(kServingMergeUs, "serving.merge_us", "us",                                \
    "merge-phase wall-clock per fanned-out SELECT")
