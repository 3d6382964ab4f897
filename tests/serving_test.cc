// Sharded scatter-gather serving (DESIGN.md §14): the load-bearing invariant
// is BIT-IDENTITY — a K-shard ShardedRecDB answers every RECOMMEND query
// with exactly the rows, in exactly the order, with exactly the double bits,
// of a single-node RecDB holding the same data — across all five algorithms,
// shard counts {1, 2, 8}, a pending delta in live rows, and post-refresh
// state.
//
// The single-node reference is loaded in (uid, iid)-sorted canonical order,
// matching the router's gather-create matrix order (the order is
// shard-count-invariant, which is what makes the comparison meaningful).
// A small non-partitioned `items` table, replicated to every shard, is the
// outer relation of the JOINRECOMMEND queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "api/recdb.h"
#include "common/shard.h"
#include "common/task_scheduler.h"
#include "obs/metrics.h"
#include "serving/sharded_recdb.h"

namespace recdb {
namespace {

const char* kAlgorithms[] = {"ItemCosCF", "ItemPearCF", "UserCosCF",
                             "UserPearCF", "SVD"};

struct Rating {
  int64_t user;
  int64_t item;
  double value;
};

// Deterministic workload: 24 users x 12 items, ~55% density, values a fixed
// function of (u, i). Arrival order is user-major but NOT sorted by item, so
// routing and canonical-sort paths are both exercised.
std::vector<Rating> BaseRatings() {
  std::vector<Rating> out;
  for (int64_t u = 1; u <= 24; ++u) {
    for (int64_t i = 12; i >= 1; --i) {
      if ((u * 7 + i * 3) % 9 < 5) {
        out.push_back({u, i, 1.0 + static_cast<double>((u * 3 + i * 5) % 8) * 0.5});
      }
    }
  }
  return out;
}

// Delta traffic layered on top after the recommenders exist: overwrites,
// new items for existing users, and three brand-new users (25, 26, and 0,
// whose id sorts below every base user although the plane interns it last).
std::vector<Rating> DeltaRatings() {
  return {
      {3, 4, 5.0},  {7, 11, 1.5}, {25, 2, 4.0}, {25, 7, 2.5},
      {12, 1, 3.5}, {26, 5, 4.5}, {26, 9, 1.0}, {18, 12, 2.0},
      {0, 3, 4.0},  {0, 8, 2.0},
  };
}

// Replicated join outer: out of id order, with a duplicated item (5) and an
// item no rating mentions (40).
const char kItemsSql[] =
    "INSERT INTO items VALUES (12, 0), (3, 1), (7, 2), (1, 0), (5, 1), "
    "(10, 2), (40, 0), (2, 1), (5, 2), (9, 0), (11, 1), (4, 2), (8, 0), "
    "(6, 1)";

std::vector<Rating> SortedCanonical(std::vector<Rating> rows) {
  std::stable_sort(rows.begin(), rows.end(), [](const Rating& a, const Rating& b) {
    if (a.user != b.user) return a.user < b.user;
    return a.item < b.item;
  });
  return rows;
}

std::string InsertSql(const std::string& table, const std::vector<Rating>& rows) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t k = 0; k < rows.size(); ++k) {
    if (k > 0) sql += ", ";
    char buf[64];
    snprintf(buf, sizeof(buf), "(%lld, %lld, %.1f)",
             static_cast<long long>(rows[k].user),
             static_cast<long long>(rows[k].item), rows[k].value);
    sql += buf;
  }
  return sql;
}

// Reference single-node engine: canonical-order load + one recommender per
// algorithm, mirroring the router's gather-create.
std::unique_ptr<RecDB> MakeReference() {
  auto db = std::make_unique<RecDB>();
  EXPECT_TRUE(
      db->Execute("CREATE TABLE ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  EXPECT_TRUE(
      db->Execute(InsertSql("ratings", SortedCanonical(BaseRatings()))).ok());
  EXPECT_TRUE(db->Execute("CREATE TABLE items (iid INT, tag INT)").ok());
  EXPECT_TRUE(db->Execute(kItemsSql).ok());
  for (const char* algo : kAlgorithms) {
    auto r = db->Execute(std::string("CREATE RECOMMENDER ref_") + algo +
                         " ON ratings USERS FROM uid ITEMS FROM iid "
                         "RATINGS FROM ratingval USING " +
                         algo);
    EXPECT_TRUE(r.ok()) << r.status().message();
  }
  return db;
}

std::unique_ptr<ShardedRecDB> MakeSharded(size_t num_shards,
                                          RecDBOptions shard_options = {}) {
  ShardedRecDBOptions opts;
  opts.num_shards = num_shards;
  opts.shard_options = shard_options;
  auto db = ShardedRecDB::Create(opts);
  EXPECT_TRUE(db.ok()) << db.status().message();
  EXPECT_TRUE(db.value()
                  ->Execute(
                      "CREATE TABLE ratings (uid INT, iid INT, ratingval DOUBLE)")
                  .ok());
  EXPECT_TRUE(db.value()->DeclarePartitionedTable("ratings", "uid").ok());
  // Arrival-order load through the router (ownership routing).
  EXPECT_TRUE(db.value()->Execute(InsertSql("ratings", BaseRatings())).ok());
  EXPECT_TRUE(
      db.value()->Execute("CREATE TABLE items (iid INT, tag INT)").ok());
  EXPECT_TRUE(db.value()->Execute(kItemsSql).ok());
  for (const char* algo : kAlgorithms) {
    auto r = db.value()->Execute(std::string("CREATE RECOMMENDER sh_") + algo +
                                 " ON ratings USERS FROM uid ITEMS FROM iid "
                                 "RATINGS FROM ratingval USING " +
                                 algo);
    EXPECT_TRUE(r.ok()) << r.status().message();
  }
  return std::move(db).value();
}

std::string RecommendSql(const char* algo, const std::string& suffix) {
  return std::string(
             "SELECT R.uid, R.iid, R.ratingval FROM ratings AS R "
             "RECOMMEND R.iid TO R.uid ON R.ratingval USING ") +
         algo + (suffix.empty() ? "" : " " + suffix);
}

// JOINRECOMMEND over the replicated items table, for users that span
// shards: rows come user-major, so the router's user-id merge rebuilds the
// single-node order.
std::string JoinSql(const char* algo, const std::string& suffix) {
  return std::string(
             "SELECT R.uid, R.iid, R.ratingval, M.tag FROM ratings AS R, "
             "items AS M RECOMMEND R.iid TO R.uid ON R.ratingval USING ") +
         algo + " WHERE R.uid IN (1, 2, 3, 4, 5, 6) AND M.iid = R.iid" +
         (suffix.empty() ? "" : " " + suffix);
}

// Bitwise row equality: doubles must match to the bit, not the epsilon.
void ExpectRowsBitIdentical(const ResultSet& got, const ResultSet& want,
                            const std::string& label) {
  ASSERT_EQ(got.rows.size(), want.rows.size()) << label;
  for (size_t r = 0; r < want.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].NumValues(), want.rows[r].NumValues()) << label;
    for (size_t c = 0; c < want.rows[r].NumValues(); ++c) {
      const Value& g = got.rows[r].At(c);
      const Value& w = want.rows[r].At(c);
      ASSERT_EQ(g.type(), w.type()) << label << " row " << r << " col " << c;
      if (g.type() == TypeId::kDouble) {
        const double gd = g.AsNumeric();
        const double wd = w.AsNumeric();
        uint64_t gb, wb;
        std::memcpy(&gb, &gd, sizeof(gb));
        std::memcpy(&wb, &wd, sizeof(wb));
        ASSERT_EQ(gb, wb) << label << " row " << r << " col " << c
                          << ": " << gd << " vs " << wd;
      } else {
        ASSERT_EQ(g.Compare(w), 0) << label << " row " << r << " col " << c;
      }
    }
  }
}

void CompareAllQueries(ShardedRecDB* sharded, RecDB* reference,
                       const std::string& phase) {
  const std::string suffixes[] = {
      "",                                         // full emission stream
      "ORDER BY R.ratingval DESC LIMIT 10",       // global Top-N
      "WHERE R.uid = 7",                          // owner-targeted
      "WHERE R.uid IN (3, 25) ORDER BY R.ratingval DESC LIMIT 6",
      "WHERE R.uid IN (0, 7, 26)",                // users in ascending id
  };
  const std::string join_suffixes[] = {
      "",                                    // full join stream
      "ORDER BY R.ratingval DESC LIMIT 6",  // Top-N over the join
  };
  auto compare = [&](const std::string& sql) {
    auto got = sharded->Execute(sql);
    auto want = reference->Execute(sql);
    ASSERT_TRUE(got.ok()) << phase << ": " << sql << ": "
                          << got.status().message();
    ASSERT_TRUE(want.ok()) << phase << ": " << sql << ": "
                           << want.status().message();
    ExpectRowsBitIdentical(got.value(), want.value(), phase + "/[" + sql + "]");
  };
  for (const char* algo : kAlgorithms) {
    for (const std::string& suffix : suffixes) {
      compare(RecommendSql(algo, suffix));
    }
    for (const std::string& suffix : join_suffixes) {
      compare(JoinSql(algo, suffix));
    }
  }
}

// ------------------------------------------------------------------ tracing

TEST(ServingTrace, ScatteredSelectCarriesEachLegsTrace) {
  auto db = MakeSharded(2);
  ASSERT_TRUE(db->Execute("SET trace = on").ok());
  auto rs = db->Execute(
      RecommendSql("ItemCosCF", "ORDER BY R.ratingval DESC LIMIT 10"));
  ASSERT_TRUE(rs.ok()) << rs.status().message();
  const std::string& trace = rs.value().trace;
  for (size_t k = 0; k < db->num_shards(); ++k) {
    const size_t at = trace.find("shard " + std::to_string(k) + "\n");
    ASSERT_NE(at, std::string::npos) << trace;
    EXPECT_NE(trace.find("execute", at), std::string::npos) << trace;
  }

  // An owner-targeted SELECT runs one leg and carries its trace.
  auto pinned = db->Execute(RecommendSql("ItemCosCF", "WHERE R.uid = 7"));
  ASSERT_TRUE(pinned.ok()) << pinned.status().message();
  EXPECT_EQ(pinned.value().trace.rfind(
                "shard " + std::to_string(ShardOfUser(7, 2)) + "\n", 0),
            0u)
      << pinned.value().trace;

  ASSERT_TRUE(db->Execute("SET trace = off").ok());
  auto quiet = db->Execute(
      RecommendSql("ItemCosCF", "ORDER BY R.ratingval DESC LIMIT 10"));
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet.value().trace.empty());
}

/// Sum of the act= counts on the plan lines whose node is a Recommend.
uint64_t RecommendActs(const ResultSet& rs) {
  uint64_t total = 0;
  for (const Tuple& row : rs.rows) {
    const std::string line = row.values()[0].ToString();
    const size_t at = line.find_first_not_of(' ');
    if (at == std::string::npos || line.compare(at, 10, "Recommend ") != 0) {
      continue;
    }
    const size_t act = line.find(" act=");
    if (act != std::string::npos) total += std::stoull(line.substr(act + 5));
  }
  return total;
}

TEST(ServingExplain, ExplainAnalyzeCountsEveryShard) {
  // EXPLAIN ANALYZE of an all-users RECOMMEND runs where the SELECT would:
  // on every shard, each leg's annotated plan under a `shard k` line, so
  // the Recommend counts add up to the single-node count.
  auto reference = MakeReference();
  auto sharded = MakeSharded(2);
  const std::string sql = "EXPLAIN ANALYZE " + RecommendSql("ItemCosCF", "");
  auto single = reference->Execute(sql);
  ASSERT_TRUE(single.ok()) << single.status().message();
  auto rows = reference->Execute(RecommendSql("ItemCosCF", ""));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(RecommendActs(single.value()), rows.value().NumRows());

  auto scattered = sharded->Execute(sql);
  ASSERT_TRUE(scattered.ok()) << scattered.status().message();
  EXPECT_EQ(RecommendActs(scattered.value()), rows.value().NumRows());
  std::vector<std::string> sections;
  for (const Tuple& row : scattered.value().rows) {
    const std::string line = row.values()[0].ToString();
    if (line.rfind("shard ", 0) == 0) sections.push_back(line);
  }
  EXPECT_EQ(sections, (std::vector<std::string>{"shard 0", "shard 1"}));
  EXPECT_EQ(scattered.value().stats.predictions,
            single.value().stats.predictions);

  // A pinned user runs on its owner alone; plain EXPLAIN stays on shard 0.
  auto pinned = sharded->Execute(
      "EXPLAIN ANALYZE " + RecommendSql("ItemCosCF", "WHERE R.uid = 7"));
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned.value().rows[0].values()[0].ToString(),
            "shard " + std::to_string(ShardOfUser(7, 2)));
  auto plain = sharded->Execute("EXPLAIN " + RecommendSql("ItemCosCF", ""));
  ASSERT_TRUE(plain.ok());
  for (const Tuple& row : plain.value().rows) {
    EXPECT_NE(row.values()[0].ToString().rfind("shard ", 0), 0u);
  }
}

// ------------------------------------------------------- options validation

TEST(ServingOptions, ConstructorRejectsOutOfRangeShards) {
  RecDBOptions opts;
  opts.shard_count = 0;
  RecDB bad(opts);
  auto r = bad.Execute("SELECT 1");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("shard_count"), std::string::npos);

  RecDBOptions stranded;
  stranded.shard_count = 2;
  stranded.shard_index = 5;
  RecDB bad2(stranded);
  EXPECT_FALSE(bad2.Execute("SELECT 1").ok());

  EXPECT_FALSE(RecDB::Open("/nonexistent/never", opts).ok());
}

TEST(ServingOptions, SetValidatesShardKnobs) {
  RecDB db;
  // Shard identity is fixed when the router builds its shards: both SET
  // names are retired and point at the construction-time option.
  for (const char* sql : {"SET shard_count = 4", "SET shard_index = 0"}) {
    auto r = db.Execute(sql);
    EXPECT_FALSE(r.ok()) << sql;
    EXPECT_NE(r.status().message().find("num_shards"), std::string::npos)
        << r.status().message();
  }
  // After the rejections the engine still works.
  EXPECT_TRUE(db.Execute("SET parallelism = 1").ok());
  EXPECT_EQ(db.options().shard_count, 1u);
}

TEST(ServingOptions, RouterOwnsShardKnobs) {
  ShardedRecDBOptions zero;
  zero.num_shards = 0;
  EXPECT_FALSE(ShardedRecDB::Create(zero).ok());
  ShardedRecDBOptions huge;
  huge.num_shards = 65;
  EXPECT_FALSE(ShardedRecDB::Create(huge).ok());
  auto db = MakeSharded(2);
  auto r = db->Execute("SET shard_count = 4");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("router"), std::string::npos);
  EXPECT_FALSE(db->Execute("SELECT 1; SELECT 2").ok());  // one stmt per call
}

// ------------------------------------------------------------ bit identity

class ServingBitIdentity : public ::testing::TestWithParam<size_t> {};

TEST_P(ServingBitIdentity, AllAlgorithmsAllPhases) {
  const size_t shards = GetParam();
  auto reference = MakeReference();
  auto sharded = MakeSharded(shards);

  CompareAllQueries(sharded.get(), reference.get(), "base");

  // Pending delta in live rows: identical statements in identical order
  // feed the reference and the router's shared model plane.
  const std::string delta = InsertSql("ratings", DeltaRatings());
  ASSERT_TRUE(reference->Execute(delta).ok());
  ASSERT_TRUE(sharded->Execute(delta).ok());
  CompareAllQueries(sharded.get(), reference.get(), "overlay");

  // Post-refresh (deltas merged into a fresh frozen base everywhere).
  for (const char* algo : kAlgorithms) {
    ASSERT_TRUE(reference->RefreshRecommender(std::string("ref_") + algo).ok());
    ASSERT_TRUE(sharded->RefreshAll(std::string("sh_") + algo).ok());
  }
  CompareAllQueries(sharded.get(), reference.get(), "refreshed");
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ServingBitIdentity,
                         ::testing::Values(1, 2, 8));

// ------------------------------------------------------------- DML routing

TEST(ServingDml, RowsLandOnOwningShardOnly) {
  auto db = MakeSharded(4);
  size_t total = 0;
  for (size_t k = 0; k < db->num_shards(); ++k) {
    auto rows = db->shard(k)->Execute("SELECT uid FROM ratings");
    ASSERT_TRUE(rows.ok());
    for (const auto& row : rows.value().rows) {
      EXPECT_EQ(ShardOfUser(row.At(0).AsInt(), 4), k)
          << "row for user " << row.At(0).AsInt() << " stored on shard " << k;
    }
    total += rows.value().rows.size();
  }
  EXPECT_EQ(total, BaseRatings().size());

  // Every shard's model holds the FULL stream even though its heap is
  // partial.
  for (size_t k = 0; k < db->num_shards(); ++k) {
    auto rec = db->shard(k)->GetRecommender("sh_ItemCosCF");
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec.value()->base_size(), BaseRatings().size());
  }
}

TEST(ServingDml, DeleteAndUpdateCrossFeedModels) {
  auto reference = MakeReference();
  auto db = MakeSharded(4);

  const char* mutations[] = {
      "DELETE FROM ratings WHERE uid = 7",
      "UPDATE ratings SET ratingval = 4.5 WHERE uid = 3 AND iid = 4",
      "DELETE FROM ratings WHERE iid = 12",  // victims span many shards
  };
  for (const char* sql : mutations) {
    auto want = reference->Execute(sql);
    auto got = db->Execute(sql);
    ASSERT_TRUE(want.ok()) << want.status().message();
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_EQ(got.value().message, want.value().message) << sql;
    CompareAllQueries(db.get(), reference.get(), std::string("after: ") + sql);
  }

  // After a refresh cycle the merged bases must still agree.
  for (const char* algo : kAlgorithms) {
    ASSERT_TRUE(reference->RefreshRecommender(std::string("ref_") + algo).ok());
    ASSERT_TRUE(db->RefreshAll(std::string("sh_") + algo).ok());
  }
  CompareAllQueries(db.get(), reference.get(), "post-dml refresh");
}

// Ordered heap contents: the union of the shards' partitions must equal the
// single node's table.
void ExpectSameRatingsTable(ShardedRecDB* sharded, RecDB* reference) {
  const std::string sql =
      "SELECT uid, iid, ratingval FROM ratings ORDER BY uid, iid";
  auto got = sharded->Execute(sql);
  auto want = reference->Execute(sql);
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok()) << want.status().message();
  ExpectRowsBitIdentical(got.value(), want.value(), sql);
}

// Regression: the broadcast stopped at the first failing shard, so shard 0's
// replica held the rows before the bad one while later shards neither stored
// their owned rows nor fed them. Every shard now runs the statement, fails
// at the same row, and keeps its owned prefix; the plane is fed it once.
TEST(ServingDml, FailedMultiRowInsertMatchesSingleNode) {
  for (size_t shards : {2, 8}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto reference = MakeReference();
    auto db = MakeSharded(shards);
    const std::string sql =
        "INSERT INTO ratings VALUES (3, 9, 2.0), (30, 1, 4.0), (5, 7, 1.5), "
        "(31, 4, 3.5), (2, 2, no_such_column)";
    auto want = reference->Execute(sql);
    auto got = db->Execute(sql);
    ASSERT_FALSE(want.ok());
    ASSERT_FALSE(got.ok());
    ExpectSameRatingsTable(db.get(), reference.get());
    CompareAllQueries(db.get(), reference.get(), "after failed insert");
  }
}

// Regression: the router's gathered CREATE RECOMMENDER skipped rows whose
// user, item or rating had the wrong type, and built an empty model where a
// single node fails the statement. Both now run the one row check.
TEST(ServingCreate, RouterRejectsTheRowsASingleNodeRejects) {
  const char* create_table = "CREATE TABLE t (uid INT, iid INT, r VARCHAR)";
  const char* insert =
      "INSERT INTO t VALUES (1, 1, 'a'), (2, 1, 'b'), (3, 2, 'c')";
  const char* create_rec =
      "CREATE RECOMMENDER R ON t USERS FROM uid ITEMS FROM iid RATINGS FROM r";
  RecDB single;
  ASSERT_TRUE(single.Execute(create_table).ok());
  ASSERT_TRUE(single.Execute(insert).ok());
  auto want = single.Execute(create_rec);
  ASSERT_FALSE(want.ok());
  for (size_t shards : {2, 8}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardedRecDBOptions opts;
    opts.num_shards = shards;
    auto db = ShardedRecDB::Create(opts);
    ASSERT_TRUE(db.ok()) << db.status().message();
    ASSERT_TRUE(db.value()->Execute(create_table).ok());
    ASSERT_TRUE(db.value()->DeclarePartitionedTable("t", "uid").ok());
    ASSERT_TRUE(db.value()->Execute(insert).ok());
    auto got = db.value()->Execute(create_rec);
    ASSERT_FALSE(got.ok()) << got.value().message;
    EXPECT_EQ(got.status().code(), want.status().code());
    EXPECT_EQ(got.status().message(), want.status().message());
    EXPECT_FALSE(db.value()->shard(0)->registry()->Get("R").ok());
  }
}

// Users and items a write introduces merge by id like every other one: the
// user an UPDATE introduces (40) and the one a later INSERT introduces (41)
// come back in the order a single node emits them, and so do the items one
// UPDATE introduces on several shards at once (60 - uid, a new id per victim
// row, interned in a different order at every shard count).
TEST(ServingDml, UpdateIntroducedUsersAndItemsMergeInIdOrder) {
  for (size_t shards : {2, 8}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto reference = MakeReference();
    auto db = MakeSharded(shards);
    for (const char* sql :
         {"UPDATE ratings SET uid = 40 WHERE uid = 7 AND iid = 2",
          "INSERT INTO ratings VALUES (41, 3, 2.5), (40, 5, 4.0)",
          "UPDATE ratings SET iid = 60 - uid WHERE iid = 2"}) {
      auto want = reference->Execute(sql);
      auto got = db->Execute(sql);
      ASSERT_TRUE(want.ok()) << want.status().message();
      ASSERT_TRUE(got.ok()) << got.status().message();
      EXPECT_EQ(got.value().message, want.value().message) << sql;
    }
    ExpectSameRatingsTable(db.get(), reference.get());
    CompareAllQueries(db.get(), reference.get(), "after update + insert");
  }
}

// ------------------------------------------------------------- skew gauge

int64_t SkewGauge() {
  return obs::MetricsRegistry::Global()
      .Snapshot()
      .gauges[static_cast<size_t>(obs::Gauge::kServingShardSkewPct)];
}

// serving.shard_skew_pct recomputed from the rows each shard's heap holds:
// (max - mean) / mean, in percent, rounded.
int64_t HeapSkewPct(ShardedRecDB* db) {
  std::vector<double> rows;
  for (size_t k = 0; k < db->num_shards(); ++k) {
    auto r = db->shard(k)->Execute("SELECT COUNT(*) FROM ratings");
    EXPECT_TRUE(r.ok()) << r.status().message();
    if (!r.ok()) return -1;
    rows.push_back(static_cast<double>(r.value().At(0, 0).AsInt()));
  }
  const double mean =
      std::accumulate(rows.begin(), rows.end(), 0.0) / rows.size();
  const double max = *std::max_element(rows.begin(), rows.end());
  return static_cast<int64_t>((max - mean) / mean * 100.0 + 0.5);
}

TEST(ServingSkew, GaugeFollowsTheRowsEachShardStores) {
  // A routed INSERT: each shard reports the rows it stored.
  obs::SetGauge(obs::Gauge::kServingShardSkewPct, -1);
  auto db = MakeSharded(4);
  EXPECT_GT(HeapSkewPct(db.get()), 0);
  EXPECT_EQ(SkewGauge(), HeapSkewPct(db.get()));

  // A bulk load counts each row against its owner.
  std::vector<std::vector<Value>> bulk;
  for (int64_t u = 100; u < 140; ++u) {
    bulk.push_back({Value::Int(u), Value::Int(1), Value::Double(3.0)});
  }
  ASSERT_TRUE(db->BulkInsert("ratings", bulk).ok());
  EXPECT_EQ(SkewGauge(), HeapSkewPct(db.get()));

  // Re-declaring the table re-seeds the counters from each shard's rows.
  obs::SetGauge(obs::Gauge::kServingShardSkewPct, -1);
  ASSERT_TRUE(db->DeclarePartitionedTable("ratings", "uid").ok());
  EXPECT_EQ(SkewGauge(), HeapSkewPct(db.get()));
}

// ------------------------------------------------------ shared model plane

void ExpectOnePlane(ShardedRecDB* db, const std::string& name) {
  auto first = db->shard(0)->GetRecommender(name);
  ASSERT_TRUE(first.ok()) << first.status().message();
  for (size_t k = 1; k < db->num_shards(); ++k) {
    auto rec = db->shard(k)->GetRecommender(name);
    ASSERT_TRUE(rec.ok()) << rec.status().message();
    EXPECT_EQ(rec.value(), first.value()) << name << " on shard " << k;
  }
}

const char kLikesTable[] = "CREATE TABLE likes (uid INT, iid INT, v DOUBLE)";
const char kLikesRec[] =
    "CREATE RECOMMENDER likes_rec ON likes USERS FROM uid ITEMS FROM iid "
    "RATINGS FROM v USING ItemCosCF";

TEST(ServingPlane, ShardsShareOneRecommender) {
  auto db = MakeSharded(4);
  for (const char* algo : kAlgorithms) {
    ExpectOnePlane(db.get(), std::string("sh_") + algo);
  }
  // A replicated (undeclared) ratings table trains on shard 0 and is shared.
  ASSERT_TRUE(db->Execute(kLikesTable).ok());
  ASSERT_TRUE(db->Execute(InsertSql("likes", BaseRatings())).ok());
  ASSERT_TRUE(db->Execute(kLikesRec).ok());
  ExpectOnePlane(db.get(), "likes_rec");
  // Duplicate names fail before anything is built or registered.
  EXPECT_EQ(db->Execute("CREATE RECOMMENDER sh_SVD ON ratings USERS FROM uid "
                        "ITEMS FROM iid RATINGS FROM ratingval USING SVD")
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  // Every broadcast row reaches the plane exactly once.
  const size_t base = db->shard(0)->GetRecommender("likes_rec").value()->base_size();
  ASSERT_TRUE(db->Execute("INSERT INTO likes VALUES (50, 1, 2.0)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO ratings VALUES (50, 1, 2.0)").ok());
  EXPECT_EQ(db->shard(0)->GetRecommender("likes_rec").value()->live().NumRatings(),
            base + 1);
  EXPECT_EQ(db->shard(0)->GetRecommender("sh_SVD").value()->live().NumRatings(),
            BaseRatings().size() + 1);
}

TEST(ServingPlane, ReopenSharesOnePlane) {
  const std::string path = ::testing::TempDir() + "serving_plane_db";
  for (size_t k = 0; k < 2; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
    std::remove((path + ".shard" + std::to_string(k) + ".wal").c_str());
  }
  ShardedRecDBOptions opts;
  opts.num_shards = 2;
  {
    auto db = ShardedRecDB::Open(path, opts);
    ASSERT_TRUE(db.ok()) << db.status().message();
    ASSERT_TRUE(db.value()
                    ->Execute("CREATE TABLE ratings (uid INT, iid INT, "
                              "ratingval DOUBLE)")
                    .ok());
    ASSERT_TRUE(db.value()->DeclarePartitionedTable("ratings", "uid").ok());
    ASSERT_TRUE(db.value()->Execute(InsertSql("ratings", BaseRatings())).ok());
    ASSERT_TRUE(db.value()
                    ->Execute("CREATE RECOMMENDER sh_SVD ON ratings USERS "
                              "FROM uid ITEMS FROM iid RATINGS FROM "
                              "ratingval USING SVD")
                    .ok());
    ASSERT_TRUE(db.value()->Execute(kLikesTable).ok());
    ASSERT_TRUE(db.value()->Execute(InsertSql("likes", BaseRatings())).ok());
    ASSERT_TRUE(db.value()->Execute(kLikesRec).ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  auto db = ShardedRecDB::Open(path, opts);
  ASSERT_TRUE(db.ok()) << db.status().message();
  ExpectOnePlane(db.value().get(), "likes_rec");
  ASSERT_TRUE(db.value()->DeclarePartitionedTable("ratings", "uid").ok());
  ExpectOnePlane(db.value().get(), "sh_SVD");
  ExpectOnePlane(db.value().get(), "likes_rec");
  EXPECT_EQ(db.value()->shard(1)->GetRecommender("sh_SVD").value()->base_size(),
            BaseRatings().size());
  ASSERT_TRUE(db.value()->Close().ok());
}

// One user id owned by `shard` of `num_shards`, from the base workload.
int64_t UserOwnedBy(uint32_t shard, uint32_t num_shards) {
  for (int64_t u = 1; u <= 24; ++u) {
    if (ShardOfUser(u, num_shards) == shard) return u;
  }
  return -1;
}

// Both shards' cache managers hang off the one shared recommender: each
// queues the invalidated pairs of the users its shard owns.
TEST(ServingCache, ManagersOnTwoShardsBothReceiveInvalidations) {
  auto db = MakeSharded(2);
  const std::string name = "sh_ItemCosCF";
  auto cm0 = db->shard(0)->GetCacheManager(name);
  auto cm1 = db->shard(1)->GetCacheManager(name);
  ASSERT_TRUE(cm0.ok() && cm1.ok());
  const int64_t u0 = UserOwnedBy(0, 2);
  const int64_t u1 = UserOwnedBy(1, 2);
  Recommender* rec = db->shard(0)->GetRecommender(name).value();
  rec->score_index()->Put(u0, 11, 0.5);
  rec->score_index()->Put(u1, 11, 0.5);
  ASSERT_TRUE(db->Execute("INSERT INTO ratings VALUES (" + std::to_string(u0) +
                          ", 1, 3.0), (" + std::to_string(u1) + ", 1, 3.0)")
                  .ok());
  EXPECT_EQ(cm0.value()->pending_invalidated(), 1u);
  EXPECT_EQ(cm1.value()->pending_invalidated(), 1u);

  // A manager's stale sweep leaves the other shard's users' entries alone.
  rec->score_index()->Put(u1, 11, 0.5);
  ASSERT_TRUE(db->Execute(RecommendSql("ItemCosCF", "WHERE R.uid = " +
                                                        std::to_string(u0)))
                  .ok());
  ASSERT_TRUE(cm0.value()->Run().ok());
  EXPECT_TRUE(rec->score_index()->GetScore(u1, 11).has_value());
}

// ASan target: a shard's DROP RECOMMENDER erases its manager while another
// shard still holds the recommender; no listener may reach the erased one.
TEST(ServingCache, DropClearsListenerBeforeErasingManager) {
  auto db = MakeSharded(2);
  const std::string name = "sh_ItemCosCF";
  ASSERT_TRUE(db->shard(0)->GetCacheManager(name).ok());
  ASSERT_TRUE(db->shard(1)->GetCacheManager(name).ok());
  ASSERT_TRUE(db->shard(0)->Execute("DROP RECOMMENDER " + name).ok());
  EXPECT_FALSE(db->shard(0)->GetRecommender(name).ok());
  Recommender* rec = db->shard(1)->GetRecommender(name).value();
  const int64_t u0 = UserOwnedBy(0, 2);
  rec->score_index()->Put(u0, 11, 0.5);
  rec->AddRating(u0, 1, 3.0);  // evicts (u0, 11) and calls the listener
  EXPECT_FALSE(rec->score_index()->GetScore(u0, 11).has_value());
  // The router's DROP removes the rest of the plane.
  ASSERT_TRUE(db->shard(1)->Execute("DROP RECOMMENDER " + name).ok());
  EXPECT_FALSE(db->shard(1)->GetRecommender(name).ok());
}

// --------------------------------------------------------------- reopening

TEST(ServingReopen, ShardFilesRecoverAndReseed) {
  const std::string path = ::testing::TempDir() + "serving_reopen_db";
  for (size_t k = 0; k < 2; ++k) {
    std::remove((path + ".shard" + std::to_string(k)).c_str());
    std::remove((path + ".shard" + std::to_string(k) + ".wal").c_str());
  }
  ShardedRecDBOptions opts;
  opts.num_shards = 2;
  {
    // A non-default N% trigger: it is persisted with the recommender, so
    // the reopened shards must keep it under the default options below.
    ShardedRecDBOptions create_opts = opts;
    create_opts.shard_options.rebuild_threshold = 0.05;
    auto db = ShardedRecDB::Open(path, create_opts);
    ASSERT_TRUE(db.ok()) << db.status().message();
    ASSERT_TRUE(db.value()
                    ->Execute(
                        "CREATE TABLE ratings (uid INT, iid INT, ratingval DOUBLE)")
                    .ok());
    ASSERT_TRUE(db.value()->DeclarePartitionedTable("ratings", "uid").ok());
    ASSERT_TRUE(db.value()->Execute(InsertSql("ratings", BaseRatings())).ok());
    ASSERT_TRUE(db.value()
                    ->Execute("CREATE RECOMMENDER sh_ItemCosCF ON ratings "
                              "USERS FROM uid ITEMS FROM iid RATINGS FROM "
                              "ratingval USING ItemCosCF")
                    .ok());
    ASSERT_TRUE(db.value()->Close().ok());
  }
  auto db = ShardedRecDB::Open(path, opts);
  ASSERT_TRUE(db.ok()) << db.status().message();
  // Re-declaring re-seeds the recovered recommenders from the gathered
  // canonical matrix (each shard's recovered heap holds only its partition).
  ASSERT_TRUE(db.value()->DeclarePartitionedTable("ratings", "uid").ok());

  auto reference = std::make_unique<RecDB>();
  ASSERT_TRUE(reference
                  ->Execute("CREATE TABLE ratings (uid INT, iid INT, "
                            "ratingval DOUBLE)")
                  .ok());
  ASSERT_TRUE(
      reference->Execute(InsertSql("ratings", SortedCanonical(BaseRatings())))
          .ok());
  ASSERT_TRUE(reference
                  ->Execute("CREATE RECOMMENDER ref_ItemCosCF ON ratings "
                            "USERS FROM uid ITEMS FROM iid RATINGS FROM "
                            "ratingval USING ItemCosCF")
                  .ok());
  auto got = db.value()->Execute(RecommendSql("ItemCosCF", ""));
  auto want = reference->Execute(RecommendSql("ItemCosCF", ""));
  ASSERT_TRUE(got.ok()) << got.status().message();
  ASSERT_TRUE(want.ok());
  ExpectRowsBitIdentical(got.value(), want.value(), "reopen");

  // The shared model every shard serves trips NeedsRefresh at 5% of the
  // base.
  const size_t base = BaseRatings().size();
  const size_t trigger = static_cast<size_t>(std::ceil(0.05 * base));
  for (size_t k = 1; k <= trigger; ++k) {
    for (size_t s = 0; s < opts.num_shards; ++s) {
      Recommender* rec =
          db.value()->shard(s)->GetRecommender("sh_ItemCosCF").value();
      EXPECT_EQ(rec->config().rebuild_threshold, 0.05);
      EXPECT_EQ(rec->base_size(), base);
      EXPECT_FALSE(rec->NeedsRefresh()) << "shard " << s << " at " << k - 1;
    }
    ASSERT_TRUE(db.value()
                    ->Execute("INSERT INTO ratings VALUES (" +
                              std::to_string(1000 + k) + ", 1, 3.0)")
                    .ok());
  }
  for (size_t s = 0; s < opts.num_shards; ++s) {
    EXPECT_TRUE(db.value()
                    ->shard(s)
                    ->GetRecommender("sh_ItemCosCF")
                    .value()
                    ->NeedsRefresh())
        << "shard " << s;
  }
  ASSERT_TRUE(db.value()->Close().ok());
}

// ------------------------------------------------------- concurrent clients

// TSan target (CI runs this binary under -R "serving_concurrent"): mixed
// open-loop clients hammer the router — scattered RECOMMENDs under the
// shared lock race broadcast INSERTs under the exclusive lock — while the
// scatter legs contend for the global morsel scheduler.
TEST(ServingConcurrent, ConcurrentClients) {
  auto db = MakeSharded(4);
  ASSERT_TRUE(db->Execute("SET parallelism = 4").ok());
  std::atomic<int> errors{0};
  std::atomic<int64_t> next_user{1000};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      for (int q = 0; q < 25; ++q) {
        if (t < 4) {
          const char* algo = kAlgorithms[(t + q) % 5];
          auto r = db->Execute(
              RecommendSql(algo, "ORDER BY R.ratingval DESC LIMIT 5"));
          if (!r.ok()) ++errors;
        } else {
          const int64_t u = next_user.fetch_add(1);
          std::vector<Rating> row = {{u, (u % 12) + 1, 3.0}};
          auto r = db->Execute(InsertSql("ratings", row));
          if (!r.ok()) ++errors;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(errors.load(), 0);
  ASSERT_TRUE(db->Execute("SET parallelism = 1").ok());
}

// TSan target: with background maintenance and a low N%, refreshes of the
// shared plane commit while scattered Top-k legs on every shard read it.
// The commit takes the one engine lock all shards share; with a private
// lock per shard it would exclude only its own shard's readers.
TEST(ServingConcurrent, BackgroundRefreshOfSharedPlane) {
  RecDBOptions shard_options;
  shard_options.rebuild_threshold = 0.01;
  auto db = MakeSharded(4, shard_options);
  ASSERT_TRUE(db->Execute("SET maintenance = background").ok());
  std::atomic<int> errors{0};
  std::atomic<int> writers_left{2};
  std::atomic<int64_t> next_user{2000};
  std::vector<std::thread> clients;
  for (int t = 0; t < 5; ++t) {
    clients.emplace_back([&, t] {
      if (t >= 3) {
        for (int q = 0; q < 40; ++q) {
          const int64_t u = next_user.fetch_add(1);
          std::vector<Rating> rows = {{u, (u % 12) + 1, 3.0},
                                      {u, ((u + 5) % 12) + 1, 4.5}};
          if (!db->Execute(InsertSql("ratings", rows)).ok()) ++errors;
        }
        --writers_left;
        return;
      }
      // Readers keep scattering until every write (and the refreshes it
      // scheduled) has had readers racing it.
      for (int q = 0; writers_left.load() > 0 || q < 10; ++q) {
        const char* algo = kAlgorithms[(t + q) % 5];
        auto r =
            db->Execute(RecommendSql(algo, "ORDER BY R.ratingval DESC LIMIT 5"));
        if (!r.ok()) ++errors;
      }
    });
  }
  for (auto& c : clients) c.join();
  db->DrainBackgroundWork();
  EXPECT_EQ(errors.load(), 0);
  // Refreshes committed: the merged base outgrew the load.
  EXPECT_GT(db->shard(3)->GetRecommender("sh_ItemCosCF").value()->base_size(),
            BaseRatings().size());
  ASSERT_TRUE(db->Execute("SET maintenance = manual").ok());
}

// Regression: `SET parallelism` used to resize the global scheduler while
// holding the engine's exclusive state_mu_, and Resize takes the
// scheduler's submit lock. A scatter leg runs inside ParallelFor — holding
// that submit lock — and takes a shard's state_mu_: the opposite order.
// Replays that interleaving on one engine. Before the fix the SET (engine
// lock held, waiting for the submit lock) and the leg (submit lock held,
// waiting for the engine lock) deadlocked; the watchdog turns the hang
// into a failure.
TEST(ServingConcurrent, SetParallelismRacingAScatterLegDoesNotDeadlock) {
  auto db = std::make_shared<RecDB>();
  ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT)").ok());
  ASSERT_TRUE(db->Execute("INSERT INTO t VALUES (1)").ok());
  auto done = std::make_shared<std::atomic<bool>>(false);
  std::thread scenario([db, done] {
    std::atomic<bool> in_leg{false}, set_started{false}, leg_ok{false};
    std::thread leg([&] {
      TaskScheduler::Global().ParallelFor(1, 1, [&](size_t, size_t) {
        in_leg = true;
        while (!set_started) std::this_thread::yield();
        // Let the SET take the engine lock before the leg asks for it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        leg_ok = db->Execute("SELECT a FROM t").ok();
      });
    });
    while (!in_leg) std::this_thread::yield();
    set_started = true;
    const bool set_ok = db->Execute("SET parallelism = 2").ok();
    leg.join();
    EXPECT_TRUE(set_ok);
    EXPECT_TRUE(leg_ok);
    EXPECT_EQ(TaskScheduler::Global().num_threads(), 2u);
    *done = true;
  });
  for (int i = 0; i < 1000 && !*done; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!*done) {
    // The deadlocked threads cannot be joined; fail the whole binary.
    std::fprintf(stderr, "SET parallelism deadlocked against a scatter leg\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  scenario.join();
  ASSERT_TRUE(db->Execute("SET parallelism = 1").ok());
}

}  // namespace
}  // namespace recdb
