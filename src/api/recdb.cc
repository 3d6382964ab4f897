#include "api/recdb.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "common/shard.h"
#include "common/string_util.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "stats/analyzer.h"

namespace recdb {

namespace {

// --- catalog meta-page serialization ----------------------------------------
//
// File-backed databases persist the catalog (tables + recommender configs)
// in a chain of meta pages rooted at page 0, so Open(path) can re-attach
// heaps and deterministically re-train recommenders. Each meta page:
//   u32 magic "ATEM" | i32 next_page_id (kInvalidPageId ends the chain) |
//   u32 chunk_len | u32 reserved | chunk bytes
// The concatenated chunks form one payload:
//   magic "RECDBMETA1" | u32 table_count | tables | u32 rec_count | recs
//   [| u32 stats_count | (table name, TableStats)...]
// The trailing statistics section is optional: files written before ANALYZE
// existed simply end after the recommenders and load fine.

constexpr uint32_t kMetaPageMagic = 0x4154454Du;  // "META" little-endian
constexpr size_t kMetaPageHeader = 16;
constexpr size_t kMetaPageCapacity = kPageSize - kMetaPageHeader;
constexpr char kMetaMagic[] = "RECDBMETA1";
constexpr size_t kMetaMagicLen = sizeof(kMetaMagic) - 1;

constexpr char kShardIdentityReplacement[] =
    "ShardedRecDBOptions::num_shards (the router fixes each shard's "
    "identity when it builds its shards)";

// Promote per-query ExecStats into the process-wide registry so `\metrics`
// and MetricsJson() see executor activity without a ResultSet in hand.
void PublishExecStats(const ExecStats& stats) {
  obs::Count(obs::Counter::kExecTuplesScanned, stats.tuples_scanned);
  obs::Count(obs::Counter::kExecPredictions, stats.predictions);
  obs::Count(obs::Counter::kExecJoinProbes, stats.join_probes);
  obs::Count(obs::Counter::kPruneBlocksSkipped, stats.blocks_skipped);
  obs::Count(obs::Counter::kPruneItemsPruned, stats.items_pruned);
}

// Statements that mutate engine state run under the exclusive lock and are
// the only ones that may append WAL records. SET and ANALYZE are exclusive
// but unlogged: SET is runtime configuration, and ANALYZE statistics are
// recomputable and persist with the next checkpoint.
bool IsWriteStatement(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
    case StatementKind::kExplain:
      return false;
    default:
      return true;
  }
}

// RecommenderConfig wire format, shared by the catalog meta pages and
// kCreateRecommender WAL records so the two can never drift.
void WriteRecommenderConfig(ByteWriter* w, const RecommenderConfig& cfg) {
  w->Str(cfg.name);
  w->Str(cfg.ratings_table);
  w->Str(cfg.user_col);
  w->Str(cfg.item_col);
  w->Str(cfg.rating_col);
  w->Num(static_cast<uint8_t>(cfg.algorithm));
  w->Num(cfg.rebuild_threshold);
  w->Num(cfg.sim_opts.top_k);
  w->Num(cfg.sim_opts.min_overlap);
  w->Num(cfg.svd_opts.num_factors);
  w->Num(cfg.svd_opts.num_epochs);
  w->Num(cfg.svd_opts.learning_rate);
  w->Num(cfg.svd_opts.regularization);
  w->Num(cfg.svd_opts.seed);
  w->Num(static_cast<uint8_t>(cfg.svd_opts.use_biases ? 1 : 0));
}

Result<RecommenderConfig> ReadRecommenderConfig(ByteReader* r) {
  RecommenderConfig cfg;
  RECDB_ASSIGN_OR_RETURN(cfg.name, r->Str());
  RECDB_ASSIGN_OR_RETURN(cfg.ratings_table, r->Str());
  RECDB_ASSIGN_OR_RETURN(cfg.user_col, r->Str());
  RECDB_ASSIGN_OR_RETURN(cfg.item_col, r->Str());
  RECDB_ASSIGN_OR_RETURN(cfg.rating_col, r->Str());
  RECDB_ASSIGN_OR_RETURN(uint8_t algo, r->Num<uint8_t>());
  if (algo > static_cast<uint8_t>(RecAlgorithm::kSVD)) {
    return Status::DataLoss("catalog has unknown algorithm");
  }
  cfg.algorithm = static_cast<RecAlgorithm>(algo);
  RECDB_ASSIGN_OR_RETURN(cfg.rebuild_threshold, r->Num<double>());
  RECDB_ASSIGN_OR_RETURN(cfg.sim_opts.top_k, r->Num<int32_t>());
  RECDB_ASSIGN_OR_RETURN(cfg.sim_opts.min_overlap, r->Num<int32_t>());
  RECDB_ASSIGN_OR_RETURN(cfg.svd_opts.num_factors, r->Num<int32_t>());
  RECDB_ASSIGN_OR_RETURN(cfg.svd_opts.num_epochs, r->Num<int32_t>());
  RECDB_ASSIGN_OR_RETURN(cfg.svd_opts.learning_rate, r->Num<double>());
  RECDB_ASSIGN_OR_RETURN(cfg.svd_opts.regularization, r->Num<double>());
  RECDB_ASSIGN_OR_RETURN(cfg.svd_opts.seed, r->Num<uint64_t>());
  RECDB_ASSIGN_OR_RETURN(uint8_t biases, r->Num<uint8_t>());
  cfg.svd_opts.use_biases = biases != 0;
  return cfg;
}

// kCreateTable WAL payload: name | column list | first heap page.
std::vector<uint8_t> EncodeCreateTableRecord(const TableInfo& table) {
  ByteWriter w;
  w.Str(table.name);
  w.Num(static_cast<uint32_t>(table.schema.NumColumns()));
  for (const auto& col : table.schema.columns()) {
    w.Str(col.name);
    w.Num(static_cast<uint8_t>(col.type));
  }
  w.Num(static_cast<int32_t>(table.heap->first_page_id()));
  return w.bytes();
}

// Single-string WAL payloads (kDropTable, kDropRecommender).
std::vector<uint8_t> EncodeNameRecord(const std::string& name) {
  ByteWriter w;
  w.Str(name);
  return w.bytes();
}

}  // namespace

RecDB::RecDB(RecDBOptions options, std::unique_ptr<DiskManager> disk)
    : options_(options),
      disk_(disk != nullptr ? std::move(disk)
                            : std::make_unique<InMemoryDiskManager>()),
      clock_(&default_clock_) {
  // The constructor cannot return a Status; an out-of-range shard config is
  // remembered and surfaced by Execute/BulkInsert (never silently clamped).
  options_status_ = ValidateShardOptions(options_);
  if (options_.parallelism > 0) {
    TaskScheduler::SetGlobalParallelism(options_.parallelism);
  }
  pool_ = std::make_unique<BufferPool>(options_.buffer_pool_pages, disk_.get());
  catalog_ = std::make_unique<Catalog>(pool_.get());
  if (disk_->persistent() && disk_->NumPages() == 0) {
    // Reserve page 0 as the meta-chain root of a fresh database.
    page_id_t pid;
    auto guard = pool_->NewGuard(&pid);
    if (guard.ok() && pid == 0) {
      meta_pages_.push_back(pid);
      (void)guard.value().Drop();
    }
  }
}

RecDB::~RecDB() {
  // A queued background refresh captures `this`; it must finish (or see
  // closed_ and bail) before any member is torn down — even for in-memory
  // databases that never Close().
  const bool was_closed = closed_.exchange(true);
  TaskScheduler::Global().DrainBackground();
  if (disk_ != nullptr && disk_->persistent() && !was_closed) {
    closed_.store(false);
    (void)Close();
  }
}

Status ValidateShardOptions(const RecDBOptions& options) {
  if (options.shard_count < 1 ||
      options.shard_count > static_cast<size_t>(kMaxShardCount)) {
    return Status::InvalidArgument(
        "shard_count must be in [1, " + std::to_string(kMaxShardCount) +
        "], got " + std::to_string(options.shard_count));
  }
  if (options.shard_index >= options.shard_count) {
    return Status::InvalidArgument(
        "shard_index must be in [0, shard_count), got " +
        std::to_string(options.shard_index) + " with shard_count " +
        std::to_string(options.shard_count));
  }
  return Status::OK();
}

Result<std::unique_ptr<RecDB>> RecDB::Open(const std::string& path,
                                           RecDBOptions options) {
  RECDB_RETURN_NOT_OK(ValidateShardOptions(options));
  RECDB_ASSIGN_OR_RETURN(auto data, FileDiskManager::Open(path));
  RECDB_ASSIGN_OR_RETURN(auto wal, FileDiskManager::Open(path + ".wal"));
  return OpenWithDisks(std::move(data), std::move(wal), options);
}

Result<std::unique_ptr<RecDB>> RecDB::OpenWithDisks(
    std::unique_ptr<DiskManager> data, std::unique_ptr<DiskManager> wal,
    RecDBOptions options) {
  RECDB_RETURN_NOT_OK(ValidateShardOptions(options));
  bool existing = data != nullptr && data->NumPages() > 0;
  auto db = std::unique_ptr<RecDB>(new RecDB(options, std::move(data)));
  if (wal != nullptr) {
    auto log = LogManager::Open(std::move(wal));
    if (!log.ok()) {
      db->closed_ = true;
      return log.status();
    }
    db->log_ = std::move(log.value());
    db->pool_->SetWal(db->log_.get());
  }
  Status st = db->Recover(existing);
  if (!st.ok()) {
    // A half-recovered database must never checkpoint: the destructor would
    // overwrite the on-disk catalog with the partial in-memory state.
    db->closed_ = true;
    return st;
  }
  return db;
}

Status RecDB::Recover(bool existing) {
  std::vector<RecommenderConfig> configs;
  if (existing) RECDB_RETURN_NOT_OK(LoadMeta(&configs));
  size_t replayed = 0;
  bool repaired = false;
  if (log_ != nullptr) {
    RECDB_RETURN_NOT_OK(
        Redo(log_->TakeRecoveredRecords(), &configs, &replayed));
    // Tail repair reads every heap's last page, so only do it when the log
    // proves the previous process crashed (a post-checkpoint page can only
    // have reached disk after its records were durable — the WAL rule). A
    // cleanly-closed file keeps the lazy-read contract: a corrupt heap page
    // surfaces when the table is scanned, not at open.
    if (existing && replayed > 0) {
      RECDB_RETURN_NOT_OK(RepairHeapTails(&repaired));
    }
  }
  // Train recommenders only now, over the final recovered heaps, so a
  // reopened database answers RECOMMEND queries identically to the
  // pre-crash one (training is deterministic). A config whose ratings table
  // was dropped later in the log trains against nothing: skip it.
  //
  // Recommenders sharing one ratings source (same table + column triplet)
  // share a single heap scan and CSR freeze: the first loads a template
  // matrix, the rest copy it — a copy carries the frozen CSR, so their
  // Build() goes straight to model training without another build pass.
  std::unordered_map<std::string, std::shared_ptr<RatingMatrix>> loaded;
  for (auto& cfg : configs) {
    std::string key = ToLower(cfg.ratings_table) + '\0' + cfg.user_col + '\0' +
                      cfg.item_col + '\0' + cfg.rating_col;
    std::shared_ptr<RatingMatrix> preloaded;
    auto it = loaded.find(key);
    if (it != loaded.end()) {
      preloaded = std::make_shared<RatingMatrix>(*it->second);
    } else {
      auto tmpl = LoadRatingsMatrix(cfg);
      if (!tmpl.ok()) {
        if (tmpl.status().code() == StatusCode::kNotFound) continue;
        return tmpl.status();
      }
      preloaded = tmpl.value();
      loaded.emplace(std::move(key), std::move(tmpl).value());
    }
    auto rec = CreateRecommenderLocked(std::move(cfg), /*write_log=*/false,
                                       std::move(preloaded));
    if (!rec.ok() && rec.status().code() != StatusCode::kNotFound) {
      return rec.status();
    }
  }
  AttachWalToHeaps();
  if (replayed > 0 || repaired) {
    // Fold the replayed suffix into a fresh checkpoint so the next open
    // starts from a truncated log.
    RECDB_RETURN_NOT_OK(CheckpointLocked());
  }
  return Status::OK();
}

Status RecDB::Redo(std::vector<WalRecord> records,
                   std::vector<RecommenderConfig>* configs, size_t* replayed) {
  for (const WalRecord& rec : records) {
    // Records at or below the checkpoint are already reflected in the
    // catalog snapshot (a truncation failure can leave them in the log).
    if (rec.lsn <= checkpoint_lsn_) continue;
    switch (rec.type) {
      case WalRecordType::kInsert:
      case WalRecordType::kDelete:
      case WalRecordType::kUpdate: {
        RECDB_ASSIGN_OR_RETURN(WalTupleRecord t,
                               DecodeWalTupleRecord(rec.payload));
        RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(t.table));
        if (rec.type == WalRecordType::kInsert) {
          RECDB_RETURN_NOT_OK(table->heap->RedoInsert(t.rid, t.bytes, rec.lsn));
        } else if (rec.type == WalRecordType::kDelete) {
          RECDB_RETURN_NOT_OK(table->heap->RedoDelete(t.rid, rec.lsn));
        } else {
          RECDB_RETURN_NOT_OK(table->heap->RedoUpdate(t.rid, t.bytes, rec.lsn));
        }
        break;
      }
      case WalRecordType::kCreateTable: {
        ByteReader r(rec.payload);
        RECDB_ASSIGN_OR_RETURN(std::string name, r.Str());
        RECDB_ASSIGN_OR_RETURN(uint32_t ncols, r.Num<uint32_t>());
        std::vector<Column> cols;
        for (uint32_t c = 0; c < ncols; ++c) {
          RECDB_ASSIGN_OR_RETURN(std::string col_name, r.Str());
          RECDB_ASSIGN_OR_RETURN(uint8_t type, r.Num<uint8_t>());
          if (type > static_cast<uint8_t>(TypeId::kGeometry)) {
            return Status::DataLoss("WAL create-table has unknown type");
          }
          cols.emplace_back(std::move(col_name), static_cast<TypeId>(type));
        }
        RECDB_ASSIGN_OR_RETURN(int32_t first_pid, r.Num<int32_t>());
        // The heap's first page may never have reached the data file.
        pool_->EnsureAllocated(first_pid);
        {
          RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(first_pid));
          TablePage tp(guard.page());
          if (!tp.initialized()) {
            tp.Init();
            guard.MarkDirty();
          }
          RECDB_RETURN_NOT_OK(guard.Drop());
        }
        RECDB_RETURN_NOT_OK(
            catalog_
                ->AttachTable(name, Schema(std::move(cols)),
                              TableHeap::Attach(pool_.get(), first_pid,
                                                first_pid, 0))
                .status());
        break;
      }
      case WalRecordType::kDropTable: {
        ByteReader r(rec.payload);
        RECDB_ASSIGN_OR_RETURN(std::string name, r.Str());
        RECDB_RETURN_NOT_OK(catalog_->DropTable(name));
        break;
      }
      case WalRecordType::kCreateRecommender: {
        ByteReader r(rec.payload);
        RECDB_ASSIGN_OR_RETURN(RecommenderConfig cfg,
                               ReadRecommenderConfig(&r));
        configs->push_back(std::move(cfg));
        break;
      }
      case WalRecordType::kDropRecommender: {
        ByteReader r(rec.payload);
        RECDB_ASSIGN_OR_RETURN(std::string name, r.Str());
        std::string key = ToLower(name);
        configs->erase(std::remove_if(configs->begin(), configs->end(),
                                      [&](const RecommenderConfig& cfg) {
                                        return ToLower(cfg.name) == key;
                                      }),
                       configs->end());
        break;
      }
    }
    ++*replayed;
    obs::Count(obs::Counter::kWalRecordsReplayed);
  }
  return Status::OK();
}

Status RecDB::RepairHeapTails(bool* repaired) {
  for (const auto& name : catalog_->TableNames()) {
    RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(name));
    RECDB_RETURN_NOT_OK(table->heap->RepairTail(repaired));
  }
  return Status::OK();
}

void RecDB::AttachWalToHeaps() {
  if (log_ == nullptr) return;
  for (const auto& name : catalog_->TableNames()) {
    auto table = catalog_->GetTable(name);
    if (table.ok()) {
      table.value()->heap->EnableLogging(log_.get(), table.value()->name);
    }
  }
}

Status RecDB::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  return CheckpointLocked();
}

Status RecDB::CheckpointLocked() {
  if (!disk_->persistent() || closed_) return Status::OK();
  Lsn cp = log_ != nullptr ? log_->newest_lsn() : 0;
  // Crash-safety ordering: (1) data pages first — the buffer pool's WAL
  // rule makes the log durable up to each page's LSN before writing it
  // back; (2) the catalog snapshot naming `cp`; (3) flush the snapshot;
  // (4) only then may the log truncate. A crash between any two steps
  // leaves either the old checkpoint + full log or the new checkpoint +
  // (possibly stale, filtered-on-replay) log.
  RECDB_RETURN_NOT_OK(pool_->FlushAll());
  RECDB_RETURN_NOT_OK(PersistMeta(cp));
  RECDB_RETURN_NOT_OK(pool_->FlushAll());
  if (log_ != nullptr) RECDB_RETURN_NOT_OK(log_->Reset(cp));
  checkpoint_lsn_ = cp;
  return Status::OK();
}

Status RecDB::Close() {
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  if (closed_) return Status::OK();
  // Leave the database open (and retryable) if the checkpoint failed —
  // marking it closed here would silently drop the un-checkpointed state.
  RECDB_RETURN_NOT_OK(CheckpointLocked());
  closed_.store(true);
  return Status::OK();
}

Status RecDB::CommitWal() {
  if (log_ == nullptr) return Status::OK();
  Lsn target = log_->newest_lsn();
  if (target == 0) return Status::OK();
  return log_->Commit(target);
}

Status RecDB::PersistMeta(Lsn checkpoint_lsn) {
  ByteWriter w;
  w.Raw(kMetaMagic, kMetaMagicLen);

  auto table_names = catalog_->TableNames();
  w.Num(static_cast<uint32_t>(table_names.size()));
  for (const auto& name : table_names) {
    RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(name));
    w.Str(table->name);
    w.Num(static_cast<uint32_t>(table->schema.NumColumns()));
    for (const auto& col : table->schema.columns()) {
      w.Str(col.name);
      w.Num(static_cast<uint8_t>(col.type));
    }
    w.Num(static_cast<int32_t>(table->heap->first_page_id()));
    w.Num(static_cast<int32_t>(table->heap->last_page_id()));
    w.Num(static_cast<uint64_t>(table->heap->num_tuples()));
  }

  auto rec_names = registry_.Names();
  w.Num(static_cast<uint32_t>(rec_names.size()));
  for (const auto& name : rec_names) {
    RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Get(name));
    WriteRecommenderConfig(&w, rec->config());
  }

  // Optional trailing section: ANALYZE statistics, keyed by table name so
  // load order never matters.
  std::vector<const TableInfo*> analyzed;
  for (const auto& name : table_names) {
    RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(name));
    if (table->stats.has_value()) analyzed.push_back(table);
  }
  w.Num(static_cast<uint32_t>(analyzed.size()));
  for (const TableInfo* table : analyzed) {
    w.Str(table->name);
    table->stats->Serialize(&w);
  }

  // Trailing since the WAL existed: the log position this snapshot covers.
  // REDO skips records at or below it. Absent in older files (reads as 0).
  w.Num(static_cast<uint64_t>(checkpoint_lsn));

  const std::vector<uint8_t>& payload = w.bytes();
  size_t num_chunks =
      payload.empty() ? 1 : (payload.size() + kMetaPageCapacity - 1) /
                                kMetaPageCapacity;
  // Extend the chain if the catalog outgrew it (orphaned tail pages from a
  // shrinking catalog stay allocated; they are unreachable and harmless).
  while (meta_pages_.size() < num_chunks) {
    page_id_t pid;
    RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->NewGuard(&pid));
    RECDB_RETURN_NOT_OK(guard.Drop());
    meta_pages_.push_back(pid);
  }
  for (size_t i = 0; i < num_chunks; ++i) {
    size_t off = i * kMetaPageCapacity;
    size_t len = std::min(kMetaPageCapacity,
                          payload.size() > off ? payload.size() - off : 0);
    page_id_t next =
        i + 1 < num_chunks ? meta_pages_[i + 1] : kInvalidPageId;
    RECDB_ASSIGN_OR_RETURN(PageGuard guard,
                           pool_->FetchGuard(meta_pages_[i]));
    char* data = guard.data();
    std::memset(data, 0, kPageSize);
    std::memcpy(data, &kMetaPageMagic, sizeof(kMetaPageMagic));
    std::memcpy(data + 4, &next, sizeof(next));
    uint32_t len32 = static_cast<uint32_t>(len);
    std::memcpy(data + 8, &len32, sizeof(len32));
    if (len > 0) std::memcpy(data + kMetaPageHeader, payload.data() + off, len);
    guard.MarkDirty();
    RECDB_RETURN_NOT_OK(guard.Drop());
  }
  return Status::OK();
}

Status RecDB::LoadMeta(std::vector<RecommenderConfig>* configs) {
  std::vector<uint8_t> payload;
  meta_pages_.clear();
  page_id_t pid = 0;
  while (pid != kInvalidPageId) {
    RECDB_ASSIGN_OR_RETURN(PageGuard guard, pool_->FetchGuard(pid));
    const char* data = guard.data();
    uint32_t magic;
    std::memcpy(&magic, data, sizeof(magic));
    if (magic != kMetaPageMagic) {
      if (pid == 0 && magic == 0) {
        // Crash before the first checkpoint: heap write-backs extended the
        // data file but page 0 was never written (reads as zeros). The
        // catalog is empty; REDO rebuilds everything from the log.
        meta_pages_.assign(1, 0);
        return guard.Drop();
      }
      return Status::DataLoss("page " + std::to_string(pid) +
                              " is not a catalog meta page");
    }
    meta_pages_.push_back(pid);
    page_id_t next;
    uint32_t len;
    std::memcpy(&next, data + 4, sizeof(next));
    std::memcpy(&len, data + 8, sizeof(len));
    if (len > kMetaPageCapacity) {
      return Status::DataLoss("corrupt meta page length");
    }
    const auto* chunk =
        reinterpret_cast<const uint8_t*>(data + kMetaPageHeader);
    payload.insert(payload.end(), chunk, chunk + len);
    RECDB_RETURN_NOT_OK(guard.Drop());
    if (next != kInvalidPageId && meta_pages_.size() > disk_->NumPages()) {
      return Status::DataLoss("catalog meta chain forms a cycle");
    }
    pid = next;
  }
  if (payload.empty()) return Status::OK();  // fresh database, empty catalog

  ByteReader r(payload);
  char magic[kMetaMagicLen];
  RECDB_RETURN_NOT_OK(r.Raw(magic, kMetaMagicLen));
  if (std::memcmp(magic, kMetaMagic, kMetaMagicLen) != 0) {
    return Status::DataLoss("bad catalog metadata magic");
  }

  RECDB_ASSIGN_OR_RETURN(uint32_t num_tables, r.Num<uint32_t>());
  for (uint32_t t = 0; t < num_tables; ++t) {
    RECDB_ASSIGN_OR_RETURN(std::string name, r.Str());
    RECDB_ASSIGN_OR_RETURN(uint32_t ncols, r.Num<uint32_t>());
    std::vector<Column> cols;
    for (uint32_t c = 0; c < ncols; ++c) {
      RECDB_ASSIGN_OR_RETURN(std::string col_name, r.Str());
      RECDB_ASSIGN_OR_RETURN(uint8_t type, r.Num<uint8_t>());
      if (type > static_cast<uint8_t>(TypeId::kGeometry)) {
        return Status::DataLoss("catalog has unknown column type");
      }
      cols.emplace_back(std::move(col_name), static_cast<TypeId>(type));
    }
    RECDB_ASSIGN_OR_RETURN(int32_t first_pid, r.Num<int32_t>());
    RECDB_ASSIGN_OR_RETURN(int32_t last_pid, r.Num<int32_t>());
    RECDB_ASSIGN_OR_RETURN(uint64_t num_tuples, r.Num<uint64_t>());
    RECDB_RETURN_NOT_OK(
        catalog_
            ->AttachTable(name, Schema(std::move(cols)),
                          TableHeap::Attach(pool_.get(), first_pid, last_pid,
                                            static_cast<size_t>(num_tuples)))
            .status());
  }

  RECDB_ASSIGN_OR_RETURN(uint32_t num_recs, r.Num<uint32_t>());
  for (uint32_t i = 0; i < num_recs; ++i) {
    // Collected, not created: recovery trains models only after REDO has
    // restored the final heap contents.
    RECDB_ASSIGN_OR_RETURN(RecommenderConfig cfg, ReadRecommenderConfig(&r));
    configs->push_back(std::move(cfg));
  }

  // Optional trailing section (absent in pre-ANALYZE files): persisted
  // table statistics.
  if (r.Remaining() > 0) {
    RECDB_ASSIGN_OR_RETURN(uint32_t num_stats, r.Num<uint32_t>());
    for (uint32_t i = 0; i < num_stats; ++i) {
      RECDB_ASSIGN_OR_RETURN(std::string name, r.Str());
      RECDB_ASSIGN_OR_RETURN(TableStats stats, TableStats::Deserialize(&r));
      RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(name));
      table->stats = std::move(stats);
    }
  }
  // Optional trailing checkpoint LSN (absent in pre-WAL files).
  if (r.Remaining() >= sizeof(uint64_t)) {
    RECDB_ASSIGN_OR_RETURN(uint64_t cp, r.Num<uint64_t>());
    checkpoint_lsn_ = cp;
  }
  return Status::OK();
}

Result<ResultSet> RecDB::Execute(const std::string& sql) {
  if (closed_.load()) return Status::InvalidArgument("database is closed");
  RECDB_RETURN_NOT_OK(options_status_);
  std::optional<obs::Tracer> tracer;
  if (trace_enabled_.load()) tracer.emplace("query");
  obs::Tracer* t = tracer.has_value() ? &*tracer : nullptr;
  bool writer = false;
  Result<ResultSet> result = [&]() -> Result<ResultSet> {
    const int parse_span = t != nullptr ? t->BeginSpan("parse") : -1;
    RECDB_ASSIGN_OR_RETURN(auto stmts, Parser::Parse(sql));
    if (parse_span >= 0) t->EndSpan(parse_span);
    for (const auto& stmt : stmts) {
      if (IsWriteStatement(*stmt)) writer = true;
    }
    if (writer) {
      std::unique_lock<std::shared_mutex> lock(*state_mu_);
      return RunStatements(stmts, t);
    }
    std::shared_lock<std::shared_mutex> lock(*state_mu_);
    return RunStatements(stmts, t);
  }();
  if (t != nullptr) {
    // Rendered even on error so a failing query's partial trace is visible.
    t->Finish();
    std::string rendered = t->Render();
    if (result.ok()) result.value().trace = rendered;
    std::lock_guard<std::mutex> lock(trace_mu_);
    last_trace_ = std::move(rendered);
  }
  ApplyPendingParallelism();
  if (writer) {
    // Group-commit outside the lock: the fsync never blocks readers, and a
    // concurrent writer's commit piggybacks on the same flush. On a
    // mid-script statement error the committed prefix still matches the
    // in-memory state, so the records are committed rather than dropped;
    // the statement error keeps reporting priority.
    Status commit = CommitWal();
    if (!commit.ok() && result.ok()) return commit;
  }
  return result;
}

void RecDB::ApplyPendingParallelism() {
  const size_t n = pending_parallelism_.exchange(0);
  if (n != 0) TaskScheduler::SetGlobalParallelism(n);
}

std::string RecDB::MetricsJson() {
  return obs::MetricsRegistry::Global().ToJson();
}

Result<ResultSet> RecDB::RunStatements(
    const std::vector<std::unique_ptr<Statement>>& stmts, obs::Tracer* tracer) {
  if (closed_.load()) return Status::InvalidArgument("database is closed");
  uint64_t read_failures = disk_->num_read_failures();
  uint64_t write_failures = disk_->num_write_failures();
  uint64_t retries = disk_->num_retries();
  uint64_t checksum_failures = disk_->num_checksum_failures();
  ResultSet last;
  for (const auto& stmt : stmts) {
    obs::Count(obs::Counter::kQueryStatements);
    RECDB_ASSIGN_OR_RETURN(last, ExecuteStatement(*stmt, tracer));
  }
  last.stats.io_read_failures += disk_->num_read_failures() - read_failures;
  last.stats.io_write_failures += disk_->num_write_failures() - write_failures;
  last.stats.io_retries += disk_->num_retries() - retries;
  last.stats.io_checksum_failures +=
      disk_->num_checksum_failures() - checksum_failures;
  return last;
}

Result<std::string> RecDB::Explain(const std::string& sql) {
  if (closed_.load()) return Status::InvalidArgument("database is closed");
  RECDB_RETURN_NOT_OK(options_status_);
  RECDB_ASSIGN_OR_RETURN(auto stmt, Parser::ParseSingle(sql));
  if (stmt->kind != StatementKind::kSelect) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  std::shared_lock<std::shared_mutex> lock(*state_mu_);
  RECDB_ASSIGN_OR_RETURN(
      auto planned, PlanSelect(static_cast<SelectStatement&>(*stmt), nullptr));
  return PlannerOptionsSummary(options_.planner) + "\n" +
         planned.plan->ToString();
}

Result<PlannedQuery> RecDB::PlanSelect(const SelectStatement& stmt,
                                       obs::Tracer* tracer) {
  const int span = tracer != nullptr ? tracer->BeginSpan("plan") : -1;
  Planner planner(catalog_.get(), &registry_, options_.planner);
  RECDB_ASSIGN_OR_RETURN(auto planned, planner.PlanSelect(stmt));
  RECDB_ASSIGN_OR_RETURN(planned.plan, Optimizer(options_.planner)
                                           .Optimize(std::move(planned.plan)));
  if (span >= 0) tracer->EndSpan(span);
  return planned;
}

Status RecDB::RunPlan(const PlanNode& plan, obs::Tracer* tracer,
                      ExecContext* ctx, std::vector<Tuple>* rows) {
  NotifyRecommendQuery(plan);
  const int span = tracer != nullptr ? tracer->BeginSpan("execute") : -1;
  ctx->tracer = tracer;
  ctx->shard_count = static_cast<uint32_t>(options_.shard_count);
  ctx->shard_index = static_cast<uint32_t>(options_.shard_index);
  RECDB_ASSIGN_OR_RETURN(auto exec, CreateExecutor(plan, ctx));
  RECDB_RETURN_NOT_OK(exec->Init());
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, exec->Next());
    if (!next.has_value()) break;
    if (rows != nullptr) rows->push_back(std::move(*next));
  }
  if (span >= 0) {
    tracer->AttachPlan(plan, ctx->nodes);
    tracer->EndSpan(span);
  }
  PublishExecStats(ctx->stats);
  return Status::OK();
}

Result<ResultSet> RecDB::ExecuteStatement(const Statement& stmt,
                                          obs::Tracer* tracer) {
  switch (stmt.kind) {
    case StatementKind::kSelect:
      return ExecuteSelect(static_cast<const SelectStatement&>(stmt), tracer);
    case StatementKind::kCreateTable:
      return ExecuteCreateTable(static_cast<const CreateTableStatement&>(stmt));
    case StatementKind::kDropTable: {
      const auto& drop = static_cast<const DropTableStatement&>(stmt);
      RECDB_RETURN_NOT_OK(catalog_->DropTable(drop.table_name));
      if (log_ != nullptr) {
        log_->Append(WalRecordType::kDropTable,
                     EncodeNameRecord(drop.table_name));
      }
      ResultSet rs;
      rs.message = "dropped table " + drop.table_name;
      return rs;
    }
    case StatementKind::kInsert:
      return ExecuteInsert(static_cast<const InsertStatement&>(stmt));
    case StatementKind::kDelete:
      return ExecuteDelete(static_cast<const DeleteStatement&>(stmt));
    case StatementKind::kUpdate:
      return ExecuteUpdate(static_cast<const UpdateStatement&>(stmt));
    case StatementKind::kExplain: {
      const auto& explain = static_cast<const ExplainStatement&>(stmt);
      RECDB_ASSIGN_OR_RETURN(
          auto planned,
          PlanSelect(static_cast<const SelectStatement&>(*explain.inner),
                     tracer));
      ResultSet rs;
      rs.columns = {"plan"};
      std::string rendered;
      if (explain.analyze) {
        // EXPLAIN ANALYZE: run the query (discarding its rows) so each plan
        // node's actual emitted-row count appears next to its estimate.
        ExecContext ctx;
        RECDB_RETURN_NOT_OK(RunPlan(*planned.plan, tracer, &ctx, nullptr));
        rs.stats = ctx.stats;
        rendered = planned.plan->ToString(0, &ctx.nodes);
      } else {
        rendered = planned.plan->ToString();
      }
      rs.rows.push_back(
          Tuple({Value::String(PlannerOptionsSummary(options_.planner))}));
      for (const auto& line : Split(rendered, '\n')) {
        if (!line.empty()) rs.rows.push_back(Tuple({Value::String(line)}));
      }
      if (explain.analyze &&
          (rs.stats.blocks_skipped > 0 || rs.stats.items_pruned > 0)) {
        rs.rows.push_back(Tuple({Value::String(StringFormat(
            "pruning: %llu blocks skipped, %llu items pruned",
            static_cast<unsigned long long>(rs.stats.blocks_skipped),
            static_cast<unsigned long long>(rs.stats.items_pruned)))}));
      }
      return rs;
    }
    case StatementKind::kCreateRecommender:
      return ExecuteCreateRecommender(
          static_cast<const CreateRecommenderStatement&>(stmt));
    case StatementKind::kDropRecommender: {
      const auto& drop = static_cast<const DropRecommenderStatement&>(stmt);
      auto cm = cache_managers_.find(ToLower(drop.name));
      if (cm != cache_managers_.end()) {
        // The recommender may outlive this registry entry (other shards
        // hold it): no listener may keep pointing at the erased manager.
        cm->second->recommender()->SetInvalidationListener(nullptr);
        cache_managers_.erase(cm);
      }
      RECDB_RETURN_NOT_OK(registry_.Drop(drop.name));
      if (log_ != nullptr) {
        log_->Append(WalRecordType::kDropRecommender,
                     EncodeNameRecord(drop.name));
      }
      ResultSet rs;
      rs.message = "dropped recommender " + drop.name;
      return rs;
    }
    case StatementKind::kSet:
      return ExecuteSet(static_cast<const SetStatement&>(stmt));
    case StatementKind::kAnalyze:
      return ExecuteAnalyze(static_cast<const AnalyzeStatement&>(stmt));
  }
  return Status::Internal("unhandled statement kind");
}

Result<ResultSet> RecDB::ExecuteAnalyze(const AnalyzeStatement& stmt) {
  Stopwatch watch;
  std::vector<std::string> names;
  if (!stmt.table_name.empty()) {
    names.push_back(stmt.table_name);
  } else {
    names = catalog_->TableNames();
  }
  for (const auto& name : names) {
    RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(name));
    RECDB_ASSIGN_OR_RETURN(TableStats stats, AnalyzeTable(*table));
    table->stats = std::move(stats);
  }
  ResultSet rs;
  rs.elapsed_seconds = watch.ElapsedSeconds();
  rs.message = StringFormat("analyzed %zu table%s", names.size(),
                            names.size() == 1 ? "" : "s");
  return rs;
}

Result<ResultSet> RecDB::ExecuteSet(const SetStatement& stmt) {
  if (stmt.option == "parallelism") {
    if (stmt.value.type() != TypeId::kInt64) {
      return Status::InvalidArgument(
          "SET parallelism expects an integer thread count");
    }
    int64_t n = stmt.value.AsInt();
    if (n < 1) {
      return Status::InvalidArgument(
          "SET parallelism requires a value >= 1, got " + std::to_string(n));
    }
    constexpr int64_t kMaxParallelism = 256;
    n = std::min(n, kMaxParallelism);
    // Applied by Execute once the engine lock is released, so after the
    // script's other statements.
    pending_parallelism_.store(static_cast<size_t>(n));
    ResultSet rs;
    rs.message = "parallelism set to " + std::to_string(n);
    return rs;
  }
  if (stmt.option == "trace") {
    bool enable;
    if (stmt.value.type() == TypeId::kInt64) {
      enable = stmt.value.AsInt() != 0;
    } else if (stmt.value.type() == TypeId::kString) {
      std::string v = ToLower(stmt.value.AsString());
      if (v == "on" || v == "true" || v == "1") {
        enable = true;
      } else if (v == "off" || v == "false" || v == "0") {
        enable = false;
      } else {
        return Status::InvalidArgument(
            "SET trace expects on/off (got '" + stmt.value.AsString() + "')");
      }
    } else {
      return Status::InvalidArgument("SET trace expects on/off");
    }
    trace_enabled_ = enable;
    ResultSet rs;
    rs.message = std::string("trace ") + (enable ? "enabled" : "disabled");
    return rs;
  }
  if (stmt.option == "maintenance") {
    static constexpr std::pair<const char*, MaintenanceMode> kModes[] = {
        {"manual", MaintenanceMode::kManual},
        {"inline", MaintenanceMode::kInline},
        {"background", MaintenanceMode::kBackground}};
    const std::string v = stmt.value.type() == TypeId::kString
                              ? ToLower(stmt.value.AsString())
                              : stmt.value.ToString();
    for (const auto& [name, mode] : kModes) {
      if (v != name) continue;
      options_.maintenance = mode;
      ResultSet rs;
      rs.message = std::string("maintenance set to ") + name;
      return rs;
    }
    return Status::InvalidArgument(
        "SET maintenance expects manual, inline or background (got '" + v +
        "')");
  }
  // Retired names fail with a pointer to their replacement (kept out of
  // the `stmt.option == "..."` form that tools/docs_lint.py harvests).
  // Shard identity is fixed when the router builds its shards: changing it
  // under the shared model plane would break the feed-once rule.
  static constexpr std::pair<const char*, const char*> kRetired[] = {
      {"background_refresh", "SET maintenance = manual|inline|background"},
      {"shard_count", kShardIdentityReplacement},
      {"shard_index", kShardIdentityReplacement}};
  for (const auto& [retired, replacement] : kRetired) {
    if (stmt.option == retired) {
      return Status::InvalidArgument("SET " + stmt.option +
                                     " was retired; use " + replacement);
    }
  }
  return Status::InvalidArgument("unknown option in SET: " + stmt.option);
}

Result<ResultSet> RecDB::ExecuteSelect(const SelectStatement& stmt,
                                       obs::Tracer* tracer) {
  obs::Count(obs::Counter::kQuerySelects);
  Stopwatch watch;
  RECDB_ASSIGN_OR_RETURN(auto planned, PlanSelect(stmt, tracer));
  ResultSet rs;
  rs.columns = std::move(planned.output_names);
  ExecContext ctx;
  RECDB_RETURN_NOT_OK(RunPlan(*planned.plan, tracer, &ctx, &rs.rows));
  rs.stats = ctx.stats;
  rs.elapsed_seconds = watch.ElapsedSeconds();
  obs::Count(obs::Counter::kQueryRowsEmitted, rs.rows.size());
  obs::ObserveUs(obs::Histogram::kQueryLatencyUs, rs.elapsed_seconds * 1e6);
  return rs;
}

Result<ResultSet> RecDB::ExecuteCreateTable(const CreateTableStatement& stmt) {
  std::vector<Column> cols;
  for (const auto& [name, type_name] : stmt.columns) {
    RECDB_ASSIGN_OR_RETURN(TypeId type, TypeIdFromName(type_name));
    cols.emplace_back(name, type);
  }
  RECDB_ASSIGN_OR_RETURN(
      TableInfo * table,
      catalog_->CreateTable(stmt.table_name, Schema(std::move(cols))));
  if (log_ != nullptr) {
    table->heap->EnableLogging(log_.get(), table->name);
    log_->Append(WalRecordType::kCreateTable, EncodeCreateTableRecord(*table));
  }
  ResultSet rs;
  rs.message = "created table " + stmt.table_name;
  return rs;
}

namespace {

// Serving-layer ownership test (DESIGN.md §14). Rows of a partitioned table
// whose user id is NULL or non-INT cannot be hashed; they live on shard 0
// only, so exactly one shard stores each row.
bool ShardOwnsRow(const RecDBOptions& options, const Tuple& row,
                  size_t user_idx) {
  if (user_idx == SIZE_MAX) return true;
  const Value& u = row.At(user_idx);
  if (u.is_null() || u.type() != TypeId::kInt64) {
    return options.shard_index == 0;
  }
  return ShardOfUser(u.AsInt(), static_cast<uint32_t>(options.shard_count)) ==
         options.shard_index;
}

}  // namespace

size_t RecDB::PartitionUserIndexLocked(const TableInfo& table) const {
  if (options_.shard_count <= 1) return SIZE_MAX;
  auto part = partitioned_tables_.find(ToLower(table.name));
  if (part == partitioned_tables_.end()) return SIZE_MAX;
  auto idx = table.schema.IndexOf(part->second);
  return idx.ok() ? idx.value() : SIZE_MAX;
}

Status RecDB::LandInsertRows(
    TableInfo* table, size_t num_rows,
    const std::function<Result<Tuple>(size_t)>& build_row, size_t* applied,
    size_t* stored) {
  // Serving-layer partition filter: when this engine is one shard behind the
  // router, an INSERT lands only its owned rows in the heap (and therefore
  // this shard's WAL); shard 0 feeds EVERY row to the shared model plane,
  // in statement order (partitioned storage, one model plane).
  const size_t part_user_idx = PartitionUserIndexLocked(*table);
  // Land every row in the heap first, then feed the recommenders once: a
  // multi-row INSERT becomes one versioned delta batch instead of N.
  std::vector<Tuple> rows;
  rows.reserve(num_rows);
  *stored = 0;
  Status st = Status::OK();
  for (size_t k = 0; k < num_rows; ++k) {
    auto row = build_row(k);
    if (!row.ok()) {
      st = row.status();
      break;
    }
    if (ShardOwnsRow(options_, row.value(), part_user_idx)) {
      st = table->heap->Insert(row.value()).status();
      if (!st.ok()) break;
      ++*stored;
      if (part_user_idx != SIZE_MAX) {
        obs::Count(obs::Counter::kServingDmlRowsRouted);
      }
    } else {
      obs::Count(obs::Counter::kServingDmlRowsFiltered);
    }
    rows.push_back(std::move(row).value());
  }
  // Feed every processed row — including ones the ownership filter kept
  // out of the heap — even on failure: the rows before the failing one
  // are in the heap (and the WAL the caller commits), so recommender state
  // must hold them too.
  *applied = rows.size();
  std::vector<RatingRowOp> ops;
  ops.reserve(rows.size());
  for (const Tuple& t : rows) ops.push_back({/*remove=*/false, &t});
  Status notify = NotifyRatingOps(table->name, table->schema, ops,
                                  /*seen_by_all_shards=*/true);
  return st.ok() ? notify : st;
}

Result<ResultSet> RecDB::ExecuteInsert(const InsertStatement& stmt) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table_name));
  const Schema& schema = table->schema;
  ExecSchema empty_schema;
  Tuple empty_tuple;
  size_t applied = 0;
  size_t stored = 0;
  Status st = LandInsertRows(
      table, stmt.rows.size(),
      [&](size_t k) -> Result<Tuple> {
        const auto& row = stmt.rows[k];
        if (row.size() != schema.NumColumns()) {
          return Status::InvalidArgument(StringFormat(
              "INSERT row has %zu values, table %s has %zu columns",
              row.size(), table->name.c_str(), schema.NumColumns()));
        }
        std::vector<Value> vals;
        vals.reserve(row.size());
        for (size_t i = 0; i < row.size(); ++i) {
          RECDB_ASSIGN_OR_RETURN(auto bound, BindExpr(*row[i], empty_schema));
          RECDB_ASSIGN_OR_RETURN(Value v, bound->Eval(empty_tuple));
          RECDB_ASSIGN_OR_RETURN(v, v.CastTo(schema.ColumnAt(i).type));
          vals.push_back(std::move(v));
        }
        return Tuple(std::move(vals));
      },
      &applied, &stored);
  if (!st.ok()) {
    // Partial failure: report how many rows actually reached the table so
    // the caller knows the statement's observable effect.
    return Status(st.code(),
                  StringFormat("%s (INSERT aborted: %zu of %zu rows "
                               "applied to %s)",
                               st.message().c_str(), applied,
                               stmt.rows.size(), table->name.c_str()));
  }
  ResultSet rs;
  rs.message =
      StringFormat("inserted %zu rows into %s", applied, table->name.c_str());
  rs.rows_affected = stored;
  return rs;
}

Result<Recommender*> RecDB::CreateRecommender(RecommenderConfig config) {
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  auto rec = CreateRecommenderLocked(std::move(config), /*write_log=*/true);
  lock.unlock();
  Status commit = CommitWal();
  if (!commit.ok() && rec.ok()) return commit;
  return rec;
}

Status RecDB::AdoptRecommender(std::shared_ptr<Recommender> rec) {
  {
    std::unique_lock<std::shared_mutex> lock(*state_mu_);
    if (closed_.load()) return Status::InvalidArgument("database is closed");
    RECDB_RETURN_NOT_OK(registry_.Adopt(rec));
    if (log_ != nullptr) {
      ByteWriter w;
      WriteRecommenderConfig(&w, rec->config());
      log_->Append(WalRecordType::kCreateRecommender, w.bytes());
    }
  }
  return CommitWal();
}

Status RecDB::DeclarePartitionedTable(const std::string& table,
                                      const std::string& user_col) {
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  if (closed_.load()) return Status::InvalidArgument("database is closed");
  RECDB_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
  RECDB_RETURN_NOT_OK(info->schema.IndexOf(user_col).status());
  partitioned_tables_[ToLower(info->name)] = user_col;
  return Status::OK();
}

Result<Recommender*> RecDB::CreateRecommenderLocked(
    RecommenderConfig config, bool write_log,
    std::shared_ptr<RatingMatrix> preloaded) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table,
                         catalog_->GetTable(config.ratings_table));
  config.ratings_table = table->name;  // canonical spelling
  std::string name = config.name;
  RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Create(std::move(config)));

  // Recovery hands in the matrix it already loaded for the table, so a
  // table with several recommenders is scanned once.
  if (preloaded == nullptr) {
    auto loaded = LoadRatingsMatrix(rec->config());
    if (!loaded.ok()) {
      registry_.Drop(name);
      return loaded.status();
    }
    preloaded = std::move(loaded).value();
  }
  rec->SeedMatrix(std::move(preloaded));

  auto build = rec->Build();
  if (!build.ok()) {
    registry_.Drop(name);
    return build.status();
  }
  if (write_log && log_ != nullptr) {
    // The record carries the full (canonicalized) config; replay re-trains
    // deterministically from the recovered ratings table.
    ByteWriter w;
    WriteRecommenderConfig(&w, rec->config());
    log_->Append(WalRecordType::kCreateRecommender, w.bytes());
  }
  return rec;
}

Result<std::shared_ptr<RatingMatrix>> RecDB::LoadRatingsMatrix(
    const RecommenderConfig& config) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table,
                         catalog_->GetTable(config.ratings_table));
  const Schema& schema = table->schema;
  RECDB_ASSIGN_OR_RETURN(size_t user_idx, schema.IndexOf(config.user_col));
  RECDB_ASSIGN_OR_RETURN(size_t item_idx, schema.IndexOf(config.item_col));
  RECDB_ASSIGN_OR_RETURN(size_t rating_idx,
                         schema.IndexOf(config.rating_col));
  auto matrix = std::make_shared<RatingMatrix>();
  auto it = table->heap->Begin(schema.NumColumns());
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, it.Next());
    if (!next.has_value()) break;
    const Tuple& t = next->second;
    RECDB_ASSIGN_OR_RETURN(
        auto rating,
        RatingFromRow(t.At(user_idx), t.At(item_idx), t.At(rating_idx)));
    if (rating) matrix->Add(rating->user, rating->item, rating->rating);
  }
  matrix->Freeze();
  return matrix;
}

void RecDB::ScheduleBackgroundRefresh(const std::string& name) {
  auto rec = registry_.Get(name);
  if (!rec.ok()) return;
  // One in-flight job per recommender; the flag clears when it finishes.
  if (!rec.value()->TryMarkRefreshScheduled()) return;
  obs::Count(obs::Counter::kIngestRefreshesScheduled);
  TaskScheduler::Global().Submit([this, name] { BackgroundRefreshJob(name); });
}

void RecDB::BackgroundRefreshJob(const std::string& name) {
  (void)RefreshInTwoPhases(name, /*scheduled=*/true);
}

Result<bool> RecDB::RefreshInTwoPhases(const std::string& name,
                                       bool scheduled) {
  // A scheduled job frees the recommender's slot wherever it ends, under
  // the lock it holds there, so the next trigger can queue another.
  auto finish = [scheduled](Recommender* rec) {
    if (scheduled) rec->ClearRefreshScheduled();
  };
  auto closed = [] { return Status::InvalidArgument("database is closed"); };
  for (int attempt = 0; attempt < 2; ++attempt) {
    Recommender::RefreshPlan plan;
    {
      std::shared_lock<std::shared_mutex> lock(*state_mu_);
      if (closed_.load()) return closed();
      // Re-resolve by name under every lock acquisition: the recommender
      // may have been DROPped (and destroyed) in between.
      RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Get(name));
      auto prepared = rec->PrepareRefresh();
      if (!prepared.ok() || !prepared.value().valid) {
        // Nothing to merge (another refresh beat us) or the prepare failed.
        finish(rec);
        if (!prepared.ok()) return prepared.status();
        return false;
      }
      plan = std::move(prepared).value();
    }
    std::unique_lock<std::shared_mutex> lock(*state_mu_);
    if (closed_.load()) return closed();
    RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Get(name));
    if (rec->CommitRefresh(std::move(plan))) {
      finish(rec);
      return true;
    }
    // Version conflict: writes landed between prepare and commit. Retry
    // once off-lock, then give up racing and merge under the writer lock.
  }
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Get(name));
  finish(rec);
  if (closed_.load()) return closed();
  return rec->Refresh();
}

Result<bool> RecDB::RefreshRecommender(const std::string& name) {
  return RefreshInTwoPhases(name, /*scheduled=*/false);
}

void RecDB::DrainBackgroundWork() { TaskScheduler::Global().DrainBackground(); }

Result<std::optional<RatingTriple>> RatingFromRow(const Value& user,
                                                  const Value& item,
                                                  const Value& rating) {
  if (user.is_null() || item.is_null() || rating.is_null()) {
    return std::optional<RatingTriple>();
  }
  if (user.type() != TypeId::kInt64 || item.type() != TypeId::kInt64 ||
      !rating.is_numeric()) {
    return Status::InvalidArgument(
        "ratings table columns must be INT user id, INT item id, "
        "numeric rating");
  }
  return std::optional<RatingTriple>(
      RatingTriple{user.AsInt(), item.AsInt(), rating.AsNumeric()});
}

Result<RecommenderConfig> RecommenderConfigFor(
    const CreateRecommenderStatement& stmt, const RecDBOptions& options) {
  RecommenderConfig config;
  config.name = stmt.name;
  config.ratings_table = stmt.ratings_table;
  config.user_col = stmt.user_col;
  config.item_col = stmt.item_col;
  config.rating_col = stmt.rating_col;
  config.rebuild_threshold = options.rebuild_threshold;
  config.sim_opts = options.sim_opts;
  config.svd_opts = options.svd_opts;
  if (stmt.algorithm.has_value()) {
    RECDB_ASSIGN_OR_RETURN(config.algorithm,
                           RecAlgorithmFromString(*stmt.algorithm));
  }
  return config;
}

Result<ResultSet> RecDB::ExecuteCreateRecommender(
    const CreateRecommenderStatement& stmt) {
  RECDB_ASSIGN_OR_RETURN(RecommenderConfig config,
                         RecommenderConfigFor(stmt, options_));
  Stopwatch watch;
  // Already under the exclusive lock (CREATE RECOMMENDER is a write
  // statement); the script-level commit covers the appended record.
  RECDB_ASSIGN_OR_RETURN(
      Recommender * rec,
      CreateRecommenderLocked(std::move(config), /*write_log=*/true));
  ResultSet rs;
  rs.elapsed_seconds = watch.ElapsedSeconds();
  rs.message = StringFormat(
      "created recommender %s (%s) on %s: %zu ratings, built in %.3fs",
      rec->name().c_str(), RecAlgorithmToString(rec->algorithm()),
      rec->config().ratings_table.c_str(), rec->base_size(),
      rs.elapsed_seconds);
  return rs;
}

Result<std::vector<std::pair<Rid, Tuple>>> RecDB::CollectMatching(
    TableInfo* table, const Expr* where) {
  BoundExprPtr pred;
  if (where != nullptr) {
    ExecSchema schema;
    for (const auto& col : table->schema.columns()) {
      schema.Add(ExecColumn{table->name, col.name, col.type});
    }
    RECDB_ASSIGN_OR_RETURN(pred, BindExpr(*where, schema));
  }
  std::vector<std::pair<Rid, Tuple>> out;
  auto it = table->heap->Begin(table->schema.NumColumns(),
                               ScanSpec{pred.get()});
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, it.Next());
    if (!next.has_value()) break;
    out.push_back(std::move(*next));
  }
  return out;
}

Result<ResultSet> RecDB::ExecuteDelete(const DeleteStatement& stmt) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table_name));
  RECDB_ASSIGN_OR_RETURN(auto victims,
                         CollectMatching(table, stmt.where.get()));
  std::vector<RatingRowOp> ops;
  ops.reserve(victims.size());
  for (const auto& [rid, tuple] : victims) {
    RECDB_RETURN_NOT_OK(table->heap->Delete(rid));
    ops.push_back({/*remove=*/true, &tuple});
  }
  // Victims of a partitioned table live on this shard alone, so it feeds
  // them to the shared plane itself.
  RECDB_RETURN_NOT_OK(
      NotifyRatingOps(table->name, table->schema, ops,
                      PartitionUserIndexLocked(*table) == SIZE_MAX));
  ResultSet rs;
  rs.rows_affected = victims.size();
  rs.message = StringFormat("deleted %zu rows from %s", victims.size(),
                            table->name.c_str());
  return rs;
}

Result<ResultSet> RecDB::ExecuteUpdate(const UpdateStatement& stmt) {
  RECDB_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table_name));
  const Schema& schema = table->schema;
  ExecSchema exec_schema;
  for (const auto& col : schema.columns()) {
    exec_schema.Add(ExecColumn{table->name, col.name, col.type});
  }
  // Bind assignment targets and value expressions (values may reference the
  // row being updated, e.g. SET ratingval = ratingval + 1).
  std::vector<std::pair<size_t, BoundExprPtr>> assigns;
  for (const auto& [col, expr] : stmt.assignments) {
    RECDB_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(col));
    RECDB_ASSIGN_OR_RETURN(auto bound, BindExpr(*expr, exec_schema));
    assigns.emplace_back(idx, std::move(bound));
  }
  RECDB_ASSIGN_OR_RETURN(auto victims,
                         CollectMatching(table, stmt.where.get()));
  std::vector<Tuple> replacements;
  replacements.reserve(victims.size());
  for (auto& [rid, tuple] : victims) {
    Tuple updated = tuple;
    for (const auto& [idx, expr] : assigns) {
      RECDB_ASSIGN_OR_RETURN(Value v, expr->Eval(tuple));
      RECDB_ASSIGN_OR_RETURN(v, v.CastTo(schema.ColumnAt(idx).type));
      updated.values()[idx] = std::move(v);
    }
    RECDB_RETURN_NOT_OK(table->heap->Update(rid, updated).status());
    replacements.push_back(std::move(updated));
  }
  // For ratings sources, delete-then-insert per row (in statement order,
  // one batch) handles both a changed rating value and changed user/item
  // ids; AddRating's overwrite semantics cover the common same-cell case.
  std::vector<RatingRowOp> ops;
  ops.reserve(victims.size() * 2);
  for (size_t k = 0; k < victims.size(); ++k) {
    ops.push_back({/*remove=*/true, &victims[k].second});
    ops.push_back({/*remove=*/false, &replacements[k]});
  }
  RECDB_RETURN_NOT_OK(NotifyRatingOps(
      table->name, schema, ops, PartitionUserIndexLocked(*table) == SIZE_MAX));
  ResultSet rs;
  rs.rows_affected = victims.size();
  rs.message = StringFormat("updated %zu rows in %s", victims.size(),
                            table->name.c_str());
  return rs;
}

Status RecDB::NotifyRatingOps(const std::string& table, const Schema& schema,
                              const std::vector<RatingRowOp>& ops,
                              bool seen_by_all_shards) {
  if (ops.empty()) return Status::OK();
  const bool feed = !seen_by_all_shards || options_.shard_index == 0;
  if (!feed && cache_managers_.empty()) return Status::OK();
  for (Recommender* rec : registry_.FindAllOnTable(table)) {
    const RecommenderConfig& cfg = rec->config();
    auto u_idx = schema.IndexOf(cfg.user_col);
    auto i_idx = schema.IndexOf(cfg.item_col);
    auto r_idx = schema.IndexOf(cfg.rating_col);
    if (!u_idx.ok() || !i_idx.ok()) continue;
    std::vector<RatingMatrix::BatchRatingOp> batch;
    batch.reserve(ops.size());
    for (const RatingRowOp& op : ops) {
      const Value& u = op.tuple->At(u_idx.value());
      const Value& i = op.tuple->At(i_idx.value());
      if (u.type() != TypeId::kInt64 || i.type() != TypeId::kInt64) continue;
      RatingMatrix::BatchRatingOp b;
      b.remove = op.remove;
      b.user_id = u.AsInt();
      b.item_id = i.AsInt();
      if (!op.remove) {
        if (!r_idx.ok()) continue;
        const Value& r = op.tuple->At(r_idx.value());
        if (u.is_null() || i.is_null() || r.is_null() || !r.is_numeric()) {
          continue;
        }
        b.rating = r.AsNumeric();
      }
      batch.push_back(b);
    }
    if (batch.empty()) continue;
    auto cm = cache_managers_.find(ToLower(rec->name()));
    if (cm != cache_managers_.end()) {
      for (const auto& b : batch) cm->second->RecordUpdate(b.item_id);
    }
    if (!feed) continue;
    rec->ApplyRatingBatch(batch);
    switch (options_.maintenance) {
      case MaintenanceMode::kManual:
        break;
      case MaintenanceMode::kInline:
        RECDB_RETURN_NOT_OK(rec->MaintainIfNeeded().status());
        break;
      case MaintenanceMode::kBackground:
        if (rec->NeedsRefresh()) ScheduleBackgroundRefresh(rec->name());
        break;
    }
  }
  return Status::OK();
}

void RecDB::NotifyRecommendQuery(const PlanNode& plan) {
  // Readers hold state_mu_ shared, but demand recording mutates cache-
  // manager histograms; funnel concurrent RECOMMEND scans through here.
  std::lock_guard<std::mutex> lock(demand_mu_);
  NotifyRecommendQueryLocked(plan);
}

void RecDB::NotifyRecommendQueryLocked(const PlanNode& plan) {
  const std::vector<int64_t>* user_ids = nullptr;
  Recommender* rec = nullptr;
  switch (plan.type) {
    case PlanNodeType::kFilterRecommend: {
      const auto& node = static_cast<const RecommendPlan&>(plan);
      if (node.user_ids.has_value()) {
        user_ids = &*node.user_ids;
        rec = node.rec;
      }
      break;
    }
    case PlanNodeType::kJoinRecommend: {
      const auto& node = static_cast<const JoinRecommendPlan&>(plan);
      user_ids = &node.user_ids;
      rec = node.rec;
      break;
    }
    case PlanNodeType::kIndexRecommend: {
      const auto& node = static_cast<const IndexRecommendPlan&>(plan);
      user_ids = &node.user_ids;
      rec = node.rec;
      break;
    }
    default:
      break;
  }
  if (rec != nullptr && user_ids != nullptr) {
    auto cm = cache_managers_.find(ToLower(rec->name()));
    if (cm != cache_managers_.end()) {
      for (int64_t uid : *user_ids) {
        // Serving filter: cache demand is partitioned with the users — a
        // shard only records demand for users it can actually serve.
        if (options_.shard_count > 1 &&
            ShardOfUser(uid, static_cast<uint32_t>(options_.shard_count)) !=
                options_.shard_index) {
          continue;
        }
        cm->second->RecordQuery(uid);
      }
    }
  }
  for (const auto& child : plan.children) NotifyRecommendQueryLocked(*child);
}

Result<CacheManager*> RecDB::GetCacheManager(const std::string& recommender,
                                             double hotness_threshold) {
  std::unique_lock<std::shared_mutex> lock(*state_mu_);
  std::string key = ToLower(recommender);
  auto it = cache_managers_.find(key);
  if (it != cache_managers_.end()) return it->second.get();
  RECDB_ASSIGN_OR_RETURN(Recommender * rec, registry_.Get(recommender));
  auto mgr = std::make_unique<CacheManager>(
      rec, clock_, hotness_threshold,
      static_cast<uint32_t>(options_.shard_count),
      static_cast<uint32_t>(options_.shard_index));
  CacheManager* raw = mgr.get();
  // Ingest invalidations feed the manager's lazy re-materialization queue.
  // A recommender shared by several shards keeps every shard's manager: the
  // new one chains onto the listener already installed. DROP RECOMMENDER
  // clears the listener before it erases the manager.
  rec->SetInvalidationListener(
      [raw, prev = rec->invalidation_listener()](
          const Recommender::InvalidatedPairs& pairs) {
        if (prev) prev(pairs);
        raw->NotifyInvalidated(pairs);
      });
  cache_managers_[key] = std::move(mgr);
  return raw;
}

Status RecDB::BulkInsert(const std::string& table,
                         const std::vector<std::vector<Value>>& rows) {
  Status st = [&]() -> Status {
    std::unique_lock<std::shared_mutex> lock(*state_mu_);
    RECDB_RETURN_NOT_OK(options_status_);
    RECDB_ASSIGN_OR_RETURN(TableInfo * info, catalog_->GetTable(table));
    const Schema& schema = info->schema;
    size_t applied = 0;
    size_t stored = 0;
    return LandInsertRows(
        info, rows.size(),
        [&](size_t k) -> Result<Tuple> {
          const auto& row = rows[k];
          if (row.size() != schema.NumColumns()) {
            return Status::InvalidArgument("bulk row width mismatch");
          }
          std::vector<Value> vals;
          vals.reserve(row.size());
          for (size_t i = 0; i < row.size(); ++i) {
            RECDB_ASSIGN_OR_RETURN(Value v,
                                   row[i].CastTo(schema.ColumnAt(i).type));
            vals.push_back(std::move(v));
          }
          return Tuple(std::move(vals));
        },
        &applied, &stored);
  }();
  // Commit whatever was appended even on partial failure: the applied rows
  // are live in memory and must stay durable-consistent with it.
  Status commit = CommitWal();
  return st.ok() ? commit : st;
}

std::string ResultSet::ToString(size_t max_rows) const {
  std::string out;
  out += Join(columns, " | ");
  out += "\n";
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out += "-+-";
    out += std::string(columns[i].size(), '-');
  }
  out += "\n";
  size_t shown = 0;
  for (const auto& row : rows) {
    if (shown++ >= max_rows) {
      out += StringFormat("... (%zu rows total)\n", rows.size());
      break;
    }
    std::vector<std::string> cells;
    for (const auto& v : row.values()) cells.push_back(v.ToString());
    out += Join(cells, " | ");
    out += "\n";
  }
  if (!message.empty()) {
    out += message;
    out += "\n";
  }
  if (stats.predict_batches > 0) {
    out += StringFormat(
        "scoring: %llu predictions in %llu batches\n",
        static_cast<unsigned long long>(stats.predictions),
        static_cast<unsigned long long>(stats.predict_batches));
  }
  if (stats.items_pruned > 0) {
    out += StringFormat(
        "pruning: %llu blocks skipped, %llu items pruned\n",
        static_cast<unsigned long long>(stats.blocks_skipped),
        static_cast<unsigned long long>(stats.items_pruned));
  }
  if (stats.tasks_spawned > 0) {
    out += StringFormat(
        "parallel: %llu morsels, %.2f ms worker time\n",
        static_cast<unsigned long long>(stats.tasks_spawned),
        stats.worker_time_ms);
  }
  if (stats.io_read_failures > 0 || stats.io_write_failures > 0 ||
      stats.io_retries > 0 || stats.io_checksum_failures > 0) {
    out += StringFormat(
        "io faults: %llu read failures, %llu write failures, %llu retries, "
        "%llu checksum failures\n",
        static_cast<unsigned long long>(stats.io_read_failures),
        static_cast<unsigned long long>(stats.io_write_failures),
        static_cast<unsigned long long>(stats.io_retries),
        static_cast<unsigned long long>(stats.io_checksum_failures));
  }
  return out;
}

}  // namespace recdb
