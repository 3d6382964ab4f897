#include "serving/sharded_recdb.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/shard.h"
#include "common/string_util.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "recommender/recommender.h"
#include "serving/shard_merge.h"

namespace recdb {

namespace {

/// Evaluate a constant integer expression (literal or negated literal) —
/// the shapes WHERE predicates pin user ids with.
bool LiteralInt(const Expr& e, int64_t* out) {
  if (e.kind == ExprKind::kLiteral && e.literal.type() == TypeId::kInt64) {
    *out = e.literal.AsInt();
    return true;
  }
  if (e.kind == ExprKind::kNegate && e.left != nullptr &&
      LiteralInt(*e.left, out)) {
    *out = -*out;
    return true;
  }
  return false;
}

bool IsUserColRef(const Expr& e, const std::string& user_col_lower) {
  return e.kind == ExprKind::kColumnRef && ToLower(e.column) == user_col_lower;
}

/// Extract the exact user-id set a WHERE clause pins the query to, or
/// nullopt when the predicate does not restrict the user column to known
/// literals. Conservative in the safe direction: a conjunct that pins ids is
/// exact (any other conjunct only narrows further), a disjunction must pin
/// on both sides.
std::optional<std::vector<int64_t>> ExtractUserIds(
    const Expr* e, const std::string& user_col_lower) {
  if (e == nullptr) return std::nullopt;
  if (e->kind == ExprKind::kBinary) {
    if (e->op == BinaryOp::kEq) {
      int64_t v;
      if (e->left != nullptr && e->right != nullptr) {
        if (IsUserColRef(*e->left, user_col_lower) && LiteralInt(*e->right, &v))
          return std::vector<int64_t>{v};
        if (IsUserColRef(*e->right, user_col_lower) && LiteralInt(*e->left, &v))
          return std::vector<int64_t>{v};
      }
      return std::nullopt;
    }
    if (e->op == BinaryOp::kAnd) {
      auto l = ExtractUserIds(e->left.get(), user_col_lower);
      auto r = ExtractUserIds(e->right.get(), user_col_lower);
      if (l.has_value() && r.has_value()) {
        std::set<int64_t> rs(r->begin(), r->end());
        std::vector<int64_t> both;
        for (int64_t v : *l) {
          if (rs.count(v)) both.push_back(v);
        }
        return both;
      }
      return l.has_value() ? l : r;
    }
    if (e->op == BinaryOp::kOr) {
      auto l = ExtractUserIds(e->left.get(), user_col_lower);
      auto r = ExtractUserIds(e->right.get(), user_col_lower);
      if (l.has_value() && r.has_value()) {
        l->insert(l->end(), r->begin(), r->end());
        return l;
      }
      return std::nullopt;
    }
    return std::nullopt;
  }
  if (e->kind == ExprKind::kInList && !e->negated && e->left != nullptr &&
      IsUserColRef(*e->left, user_col_lower)) {
    std::vector<int64_t> vals;
    vals.reserve(e->args.size());
    for (const auto& arg : e->args) {
      int64_t v;
      if (arg == nullptr || !LiteralInt(*arg, &v)) return std::nullopt;
      vals.push_back(v);
    }
    return vals;
  }
  return std::nullopt;
}

/// Resolve a (qualifier, name) column reference against a result header:
/// exact match, qualified match, or dot-suffix match, case-insensitive.
size_t ResolveColumn(const std::vector<std::string>& columns,
                     const std::string& qualifier, const std::string& name) {
  const std::string want = ToLower(name);
  const std::string qualified =
      qualifier.empty() ? "" : ToLower(qualifier) + "." + want;
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string col = ToLower(columns[i]);
    if (col == want || (!qualified.empty() && col == qualified)) return i;
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    const std::string col = ToLower(columns[i]);
    if (col.size() > want.size() + 1 &&
        col.compare(col.size() - want.size() - 1, want.size() + 1,
                    "." + want) == 0) {
      return i;
    }
  }
  return SIZE_MAX;
}

uint64_t ElapsedUs(const Stopwatch& watch) {
  return static_cast<uint64_t>(watch.ElapsedSeconds() * 1e6);
}

}  // namespace

ShardedRecDB::~ShardedRecDB() = default;

Status ShardedRecDB::ValidateOptions(const ShardedRecDBOptions& options) {
  if (options.num_shards < 1 || options.num_shards > kMaxShardCount) {
    return Status::InvalidArgument(
        "ShardedRecDBOptions::num_shards must be in [1, " +
        std::to_string(kMaxShardCount) + "], got " +
        std::to_string(options.num_shards));
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedRecDB>> ShardedRecDB::Create(
    ShardedRecDBOptions options) {
  RECDB_RETURN_NOT_OK(ValidateOptions(options));
  auto db = std::unique_ptr<ShardedRecDB>(new ShardedRecDB());
  for (size_t k = 0; k < options.num_shards; ++k) {
    RecDBOptions opts = options.shard_options;
    opts.shard_count = options.num_shards;
    opts.shard_index = k;
    db->shards_.push_back(std::make_unique<RecDB>(opts));
    db->shards_.back()->ShareEngineLock(db->engine_mu_);
  }
  obs::SetGauge(obs::Gauge::kServingShards,
                static_cast<int64_t>(options.num_shards));
  return db;
}

Result<std::unique_ptr<ShardedRecDB>> ShardedRecDB::Open(
    const std::string& path, ShardedRecDBOptions options) {
  RECDB_RETURN_NOT_OK(ValidateOptions(options));
  auto db = std::unique_ptr<ShardedRecDB>(new ShardedRecDB());
  for (size_t k = 0; k < options.num_shards; ++k) {
    RecDBOptions opts = options.shard_options;
    opts.shard_count = options.num_shards;
    opts.shard_index = k;
    RECDB_ASSIGN_OR_RETURN(
        auto shard, RecDB::Open(path + ".shard" + std::to_string(k), opts));
    shard->ShareEngineLock(db->engine_mu_);
    db->shards_.push_back(std::move(shard));
  }
  // One plane: every shard serves shard 0's recovered recommenders (the
  // ones on partitioned tables are re-seeded by DeclarePartitionedTable).
  for (size_t k = 1; k < db->shards_.size(); ++k) {
    *db->shards_[k]->registry() = *db->shards_[0]->registry();
  }
  obs::SetGauge(obs::Gauge::kServingShards,
                static_cast<int64_t>(options.num_shards));
  return db;
}

ShardedRecDB::PartitionInfo* ShardedRecDB::FindPartition(
    const std::string& table) {
  auto it = partitions_.find(ToLower(table));
  return it == partitions_.end() ? nullptr : &it->second;
}

void ShardedRecDB::PublishSkew(const PartitionInfo& info) {
  uint64_t total = 0;
  uint64_t max = 0;
  for (uint64_t c : info.routed_rows) {
    total += c;
    max = std::max(max, c);
  }
  if (total == 0 || info.routed_rows.empty()) return;
  const double mean =
      static_cast<double>(total) / static_cast<double>(info.routed_rows.size());
  const double skew = (static_cast<double>(max) - mean) / mean * 100.0;
  obs::SetGauge(obs::Gauge::kServingShardSkewPct,
                static_cast<int64_t>(skew + 0.5));
}

Result<ResultSet> ShardedRecDB::Execute(const std::string& sql) {
  Stopwatch watch;
  obs::Count(obs::Counter::kServingQueries);
  RECDB_ASSIGN_OR_RETURN(auto stmts, Parser::Parse(sql));
  if (stmts.size() != 1) {
    return Status::InvalidArgument(
        "ShardedRecDB executes one statement per call; got " +
        std::to_string(stmts.size()));
  }
  const Statement& stmt = *stmts[0];

  auto finish = [&](Result<ResultSet> r) -> Result<ResultSet> {
    if (r.ok()) {
      obs::ObserveUs(obs::Histogram::kServingQueryUs, ElapsedUs(watch));
      r.value().elapsed_seconds = watch.ElapsedSeconds();
    }
    return r;
  };

  switch (stmt.kind) {
    case StatementKind::kSelect: {
      std::shared_lock<std::shared_mutex> lock(router_mu_);
      return finish(
          ExecuteSelect(sql, static_cast<const SelectStatement&>(stmt)));
    }
    case StatementKind::kExplain: {
      const auto& explain = static_cast<const ExplainStatement&>(stmt);
      std::shared_lock<std::shared_mutex> lock(router_mu_);
      if (explain.analyze) {
        return finish(ExplainAnalyze(
            sql, static_cast<const SelectStatement&>(*explain.inner)));
      }
      // Plans are identical on every shard (same catalog, same statistics
      // pipeline); shard 0 speaks for the fleet.
      obs::Count(obs::Counter::kServingSingleShardQueries);
      return finish(shards_[0]->Execute(sql));
    }
    case StatementKind::kCreateRecommender: {
      const auto& create = static_cast<const CreateRecommenderStatement&>(stmt);
      std::unique_lock<std::shared_mutex> lock(router_mu_);
      PartitionInfo* info = FindPartition(create.ratings_table);
      if (info != nullptr) {
        auto config = RecommenderConfigFor(create, shards_[0]->options());
        if (!config.ok()) return config.status();
        return finish(GatherCreateRecommender(std::move(config).value()));
      }
      return finish(CreateSharedRecommender(sql, create.name));
    }
    default: {
      std::unique_lock<std::shared_mutex> lock(router_mu_);
      return finish(BroadcastWrite(sql, stmt));
    }
  }
}

std::vector<size_t> ShardedRecDB::Route(const SelectStatement& stmt,
                                        PartitionInfo** info) {
  *info = nullptr;
  for (const TableRef& ref : stmt.from) {
    *info = FindPartition(ref.table_name);
    if (*info != nullptr) break;
  }
  // Non-partitioned data is fully replicated (and with one shard there is
  // nothing to merge): shard 0 answers alone.
  if (*info == nullptr || shards_.size() == 1) return {};

  // Owner-targeted routing: a WHERE clause that pins the recommendation
  // users to literals only needs those users' owners.
  std::string user_col = (*info)->user_col;
  if (stmt.recommend.has_value() && stmt.recommend->user_col != nullptr &&
      stmt.recommend->user_col->kind == ExprKind::kColumnRef) {
    user_col = stmt.recommend->user_col->column;
  }
  std::vector<size_t> targets;
  auto pinned = ExtractUserIds(stmt.where.get(), ToLower(user_col));
  if (pinned.has_value()) {
    std::set<size_t> owners;
    for (int64_t uid : *pinned) {
      owners.insert(ShardOfUser(uid, static_cast<uint32_t>(shards_.size())));
    }
    targets.assign(owners.begin(), owners.end());
    if (targets.empty()) {
      // WHERE pins an empty user set (e.g. contradictory conjuncts): any
      // single shard produces the empty result with the right header.
      targets.push_back(0);
    }
  } else {
    targets.resize(shards_.size());
    for (size_t k = 0; k < shards_.size(); ++k) targets[k] = k;
  }
  return targets;
}

Result<ResultSet> ShardedRecDB::ExecuteSelect(const std::string& sql,
                                              const SelectStatement& stmt) {
  PartitionInfo* info = nullptr;
  const std::vector<size_t> targets = Route(stmt, &info);
  if (targets.empty()) {
    obs::Count(obs::Counter::kServingSingleShardQueries);
    return shards_[0]->Execute(sql);
  }
  if (!stmt.group_by.empty() || stmt.having != nullptr || stmt.distinct) {
    return Status::InvalidArgument(
        "ShardedRecDB does not support GROUP BY / HAVING / DISTINCT over "
        "partitioned tables; run the aggregate per shard via shard(k)");
  }
  return ScatterSelect(sql, stmt, info, targets);
}

Result<ResultSet> ShardedRecDB::ExplainAnalyze(const std::string& sql,
                                               const SelectStatement& select) {
  PartitionInfo* info = nullptr;
  const std::vector<size_t> targets = Route(select, &info);
  if (targets.empty()) {
    obs::Count(obs::Counter::kServingSingleShardQueries);
    return shards_[0]->Execute(sql);
  }
  RECDB_ASSIGN_OR_RETURN(std::vector<ResultSet> legs, RunLegs(sql, targets));
  ResultSet out;
  out.columns = legs[0].columns;
  for (size_t i = 0; i < legs.size(); ++i) {
    out.stats += legs[i].stats;
    out.rows.push_back(
        Tuple({Value::String(StringFormat("shard %zu", targets[i]))}));
    for (Tuple& row : legs[i].rows) out.rows.push_back(std::move(row));
    if (!legs[i].trace.empty()) {
      out.trace += StringFormat("shard %zu\n", targets[i]) + legs[i].trace;
    }
  }
  return out;
}

Result<std::vector<ResultSet>> ShardedRecDB::RunLegs(
    const std::string& sql, const std::vector<size_t>& targets) {
  obs::Count(targets.size() > 1 ? obs::Counter::kServingScatterQueries
                                : obs::Counter::kServingSingleShardQueries);
  obs::Count(obs::Counter::kServingFanoutLegs, targets.size());

  // Scatter: each leg re-parses and executes the statement on its shard via
  // the shared morsel scheduler. A leg that lands while the pool is busy
  // (or inside another morsel) runs inline — see TaskScheduler's nested /
  // contended contract — so the fan-out can never deadlock against engine
  // parallelism.
  std::vector<ResultSet> legs(targets.size());
  std::vector<Status> leg_status(targets.size(), Status::OK());
  Stopwatch scatter_watch;
  TaskScheduler::Global().ParallelFor(
      targets.size(), 1, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          auto r = shards_[targets[i]]->Execute(sql);
          if (r.ok()) {
            legs[i] = std::move(r).value();
          } else {
            leg_status[i] = r.status();
          }
        }
      });
  obs::ObserveUs(obs::Histogram::kServingScatterUs, ElapsedUs(scatter_watch));
  for (const Status& st : leg_status) RECDB_RETURN_NOT_OK(st);
  return legs;
}

Result<ResultSet> ShardedRecDB::ScatterSelect(const std::string& sql,
                                              const SelectStatement& stmt,
                                              PartitionInfo* info,
                                              const std::vector<size_t>& targets) {
  RECDB_ASSIGN_OR_RETURN(std::vector<ResultSet> legs, RunLegs(sql, targets));
  ResultSet out;
  out.columns = legs[0].columns;
  for (size_t i = 0; i < legs.size(); ++i) {
    out.stats += legs[i].stats;
    // Under `SET trace = on` every leg traced its own statement.
    if (!legs[i].trace.empty()) {
      out.trace += StringFormat("shard %zu\n", targets[i]) + legs[i].trace;
    }
  }

  MergeSpec spec;
  spec.limit = stmt.limit;
  if (stmt.recommend.has_value() && stmt.recommend->user_col != nullptr &&
      stmt.recommend->user_col->kind == ExprKind::kColumnRef) {
    const Expr& u = *stmt.recommend->user_col;
    spec.user_col = ResolveColumn(out.columns, u.qualifier, u.column);
  } else {
    spec.user_col = ResolveColumn(out.columns, "", info->user_col);
  }
  for (const OrderByItem& item : stmt.order_by) {
    if (item.expr == nullptr || item.expr->kind != ExprKind::kColumnRef) {
      return Status::InvalidArgument(
          "ShardedRecDB requires ORDER BY over named output columns for "
          "scattered queries (got expression '" +
          (item.expr != nullptr ? item.expr->ToString() : std::string("?")) +
          "')");
    }
    const size_t idx =
        ResolveColumn(out.columns, item.expr->qualifier, item.expr->column);
    if (idx == SIZE_MAX) {
      return Status::InvalidArgument(
          "ORDER BY column '" + item.expr->column +
          "' is not in the scattered query's output columns");
    }
    spec.order_by.push_back({idx, item.desc});
  }

  Stopwatch merge_watch;
  ShardMergeExecutor merger(std::move(spec));
  RECDB_RETURN_NOT_OK(merger.Merge(legs, &out));
  obs::ObserveUs(obs::Histogram::kServingMergeUs, ElapsedUs(merge_watch));
  return out;
}

template <typename Fn>
Status ShardedRecDB::ForEachShard(Fn&& fn) {
  Status first = Status::OK();
  for (size_t k = 0; k < shards_.size(); ++k) {
    Status st = fn(k);
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

Result<ResultSet> ShardedRecDB::BroadcastWrite(const std::string& sql,
                                               const Statement& stmt) {
  obs::Count(obs::Counter::kServingDmlBroadcasts);

  // Broadcast in shard order, and finish it even after a failure: a bind
  // error fails at the same row on every shard, so every heap keeps exactly
  // its owned prefix and shard 0 feeds that prefix to the plane once.
  ResultSet first;
  std::vector<size_t> shard_rows(shards_.size(), 0);
  Status status = ForEachShard([&](size_t k) -> Status {
    RECDB_ASSIGN_OR_RETURN(ResultSet r, shards_[k]->Execute(sql));
    shard_rows[k] = r.rows_affected;
    if (k == 0) first = std::move(r);
    return Status::OK();
  });

  std::string table_name;
  if (stmt.kind == StatementKind::kInsert) {
    table_name = static_cast<const InsertStatement&>(stmt).table_name;
  } else if (stmt.kind == StatementKind::kDelete) {
    table_name = static_cast<const DeleteStatement&>(stmt).table_name;
  } else if (stmt.kind == StatementKind::kUpdate) {
    table_name = static_cast<const UpdateStatement&>(stmt).table_name;
  }
  if (!status.ok()) return status;
  PartitionInfo* info = FindPartition(table_name);
  if (info == nullptr) return first;
  if (stmt.kind == StatementKind::kInsert) {
    // Each shard reports the rows it stored: its share of the partition.
    for (size_t k = 0; k < shards_.size(); ++k) {
      info->routed_rows[k] += shard_rows[k];
    }
    PublishSkew(*info);
  } else if (shards_.size() > 1) {
    // Each shard only saw its own victims; the confirmation must match
    // what a single node would say for the whole statement.
    size_t rows_affected = 0;
    for (size_t n : shard_rows) rows_affected += n;
    auto table = shards_[0]->catalog()->GetTable(table_name);
    if (!table.ok()) return first;
    const char* canonical = table.value()->name.c_str();
    first.message =
        stmt.kind == StatementKind::kDelete
            ? StringFormat("deleted %zu rows from %s", rows_affected, canonical)
            : StringFormat("updated %zu rows in %s", rows_affected, canonical);
  }
  return first;
}

Result<ResultSet> ShardedRecDB::CreateSharedRecommender(
    const std::string& sql, const std::string& name) {
  obs::Count(obs::Counter::kServingDmlBroadcasts);
  RECDB_ASSIGN_OR_RETURN(ResultSet rs, shards_[0]->Execute(sql));
  RECDB_ASSIGN_OR_RETURN(auto rec, shards_[0]->registry()->GetShared(name));
  for (size_t k = 1; k < shards_.size(); ++k) {
    RECDB_RETURN_NOT_OK(shards_[k]->AdoptRecommender(rec));
  }
  return rs;
}

Result<ResultSet> ShardedRecDB::GatherCreateRecommender(
    RecommenderConfig config) {
  obs::Count(obs::Counter::kServingDmlBroadcasts);
  Stopwatch watch;
  if (shards_[0]->registry()->Get(config.name).ok()) {
    return Status::AlreadyExists("recommender " + config.name +
                                 " already exists");
  }
  RECDB_ASSIGN_OR_RETURN(TableInfo * table,
                         shards_[0]->catalog()->GetTable(config.ratings_table));
  config.ratings_table = table->name;  // canonical spelling

  // Gather every shard's partition of (user, item, rating) and sort it into
  // the canonical (uid, iid) order. The canonical order is shard-count-
  // invariant, so any fleet size trains the identical model — and a
  // single-node reference loaded in this order answers bit-identically.
  std::vector<RatingTriple> rows;
  const std::string gather_sql = "SELECT " + config.user_col + ", " +
                                 config.item_col + ", " + config.rating_col +
                                 " FROM " + config.ratings_table;
  for (size_t k = 0; k < shards_.size(); ++k) {
    RECDB_ASSIGN_OR_RETURN(ResultSet part, shards_[k]->Execute(gather_sql));
    rows.reserve(rows.size() + part.rows.size());
    for (const Tuple& t : part.rows) {
      // The single node's row check: a type error fails the build here too.
      RECDB_ASSIGN_OR_RETURN(auto rating,
                             RatingFromRow(t.At(0), t.At(1), t.At(2)));
      if (rating) rows.push_back(*rating);
    }
  }
  // stable: duplicate (uid, iid) cells keep their within-shard heap order
  // (all copies of a cell live on the owner), so last-wins matches a
  // single-node load of the same sorted stream.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const RatingTriple& a, const RatingTriple& b) {
                     if (a.user != b.user) return a.user < b.user;
                     return a.item < b.item;
                   });

  // Build once; every shard registers the same recommender.
  auto matrix = std::make_shared<RatingMatrix>();
  for (const RatingTriple& row : rows) {
    matrix->Add(row.user, row.item, row.rating);
  }
  auto rec = std::make_shared<Recommender>(std::move(config));
  rec->SeedMatrix(std::move(matrix));
  RECDB_RETURN_NOT_OK(rec->Build().status());
  RECDB_RETURN_NOT_OK(ForEachShard(
      [&](size_t k) { return shards_[k]->AdoptRecommender(rec); }));

  ResultSet rs;
  rs.elapsed_seconds = watch.ElapsedSeconds();
  rs.message = StringFormat(
      "created recommender %s (%s) on %s: %zu ratings, built in %.3fs",
      rec->name().c_str(), RecAlgorithmToString(rec->algorithm()),
      rec->config().ratings_table.c_str(), rec->base_size(),
      rs.elapsed_seconds);
  return rs;
}

Status ShardedRecDB::ReseedTableLocked(const std::string& table) {
  // Recommenders a reopened shard re-trained during recovery saw only its
  // own partition of the heap — drop and re-create them, with their
  // persisted configs, from the gathered canonical stream.
  std::vector<RecommenderConfig> configs;
  for (Recommender* rec : shards_[0]->registry()->FindAllOnTable(table)) {
    configs.push_back(rec->config());
  }
  for (const RecommenderConfig& config : configs) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      RECDB_ASSIGN_OR_RETURN(
          ResultSet dropped,
          shards_[k]->Execute("DROP RECOMMENDER " + config.name));
      (void)dropped;
    }
    RECDB_RETURN_NOT_OK(GatherCreateRecommender(config).status());
  }
  return Status::OK();
}

Status ShardedRecDB::DeclarePartitionedTable(const std::string& table,
                                             const std::string& user_col) {
  std::unique_lock<std::shared_mutex> lock(router_mu_);
  for (size_t k = 0; k < shards_.size(); ++k) {
    RECDB_RETURN_NOT_OK(shards_[k]->DeclarePartitionedTable(table, user_col));
  }
  PartitionInfo& info = partitions_[ToLower(table)];
  info.user_col = user_col;
  // Seed the skew counters from whatever rows already landed.
  info.routed_rows.assign(shards_.size(), 0);
  for (size_t k = 0; k < shards_.size(); ++k) {
    RECDB_ASSIGN_OR_RETURN(
        ResultSet count, shards_[k]->Execute("SELECT COUNT(*) FROM " + table));
    info.routed_rows[k] = static_cast<uint64_t>(count.At(0, 0).AsInt());
  }
  PublishSkew(info);
  return ReseedTableLocked(table);
}

Status ShardedRecDB::BulkInsert(const std::string& table,
                                const std::vector<std::vector<Value>>& rows) {
  std::unique_lock<std::shared_mutex> lock(router_mu_);
  obs::Count(obs::Counter::kServingDmlBroadcasts);
  PartitionInfo* info = FindPartition(table);
  if (info != nullptr) {
    auto table_info = shards_[0]->catalog()->GetTable(table);
    if (table_info.ok()) {
      auto idx = table_info.value()->schema.IndexOf(info->user_col);
      if (idx.ok()) {
        for (const auto& row : rows) {
          if (idx.value() >= row.size()) continue;
          const Value& u = row[idx.value()];
          if (!u.is_null() && u.type() == TypeId::kInt64) {
            ++info->routed_rows[ShardOfUser(
                u.AsInt(), static_cast<uint32_t>(shards_.size()))];
          }
        }
        PublishSkew(*info);
      }
    }
  }
  return ForEachShard(
      [&](size_t k) { return shards_[k]->BulkInsert(table, rows); });
}

Result<bool> ShardedRecDB::RefreshAll(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(router_mu_);
  return shards_[0]->RefreshRecommender(name);
}

void ShardedRecDB::DrainBackgroundWork() { shards_[0]->DrainBackgroundWork(); }

Status ShardedRecDB::Checkpoint() {
  std::unique_lock<std::shared_mutex> lock(router_mu_);
  for (auto& shard : shards_) RECDB_RETURN_NOT_OK(shard->Checkpoint());
  return Status::OK();
}

Status ShardedRecDB::Close() {
  std::unique_lock<std::shared_mutex> lock(router_mu_);
  Status first = Status::OK();
  for (auto& shard : shards_) {
    Status st = shard->Close();
    if (!st.ok() && first.ok()) first = st;
  }
  return first;
}

}  // namespace recdb
