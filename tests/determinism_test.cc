// Determinism regression tests:
//  - Top-N tie-breaking must preserve arrival order even when bounded
//    selection (nth_element pruning) shuffles the buffered rows.
//  - IndexRecommend's pushed-down item list must be deduplicated and
//    membership-checked in O(1), so duplicate IN-list ids emit one tuple.
//  - RECOMMEND / FILTERRECOMMEND / JOINRECOMMEND output and neighborhood
//    model builds must be bit-identical under any `SET parallelism` level.
//  - RECOMMEND emits users in ascending id, on the exact and the pruned
//    Top-k path, even for a user the model saw after CREATE RECOMMENDER.
//  - JOINRECOMMEND must return the hash-join plan's rows, bit for bit, for
//    every algorithm.
//  - PredictBatch must be bit-identical to scalar Predict for every
//    algorithm, under any batch split and any thread count (the batch
//    kernels' per-candidate independence contract), and to
//    PredictBatchByIndex over the same dense indices.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <utility>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "api/recdb.h"
#include "common/rng.h"
#include "common/task_scheduler.h"
#include "execution/executor.h"
#include "recommender/cf_model.h"
#include "recommender/similarity.h"
#include "recommender/svd_model.h"

namespace recdb {
namespace {

/// Restore serial execution when a test body returns.
struct ParallelismGuard {
  ~ParallelismGuard() { TaskScheduler::SetGlobalParallelism(1); }
};

// ---------------------------------------------------------------- Top-N ties

TEST(TopNDeterminismTest, TiedRowsKeepArrivalOrderAcrossPruning) {
  RecDB db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  // 60 rows, all tied on the sort key. 60 > 2*5 + 16, so the bounded
  // selection path (nth_element pruning) triggers several times; before the
  // explicit sequence tie-break the surviving subset was whatever
  // nth_element left in front.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({Value::Int(1), Value::Int(i)});
  }
  ASSERT_TRUE(db.BulkInsert("t", rows).ok());
  auto rs = db.Execute("SELECT a, b FROM t ORDER BY a LIMIT 5");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().NumRows(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rs.value().At(i, 1).AsInt(), i)
        << "tied Top-N row " << i << " must be the " << i
        << "th row in arrival order";
  }
}

TEST(TopNDeterminismTest, TiesBrokenByArrivalOrderUnderDescKeys) {
  RecDB db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a INT, b INT)").ok());
  // Two key groups, each large enough to outlive pruning; ties inside each
  // group must come back in insertion order.
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 30; ++i) rows.push_back({Value::Int(1), Value::Int(i)});
  for (int i = 0; i < 30; ++i) rows.push_back({Value::Int(2), Value::Int(i)});
  ASSERT_TRUE(db.BulkInsert("t", rows).ok());
  auto rs = db.Execute("SELECT a, b FROM t ORDER BY a DESC LIMIT 4");
  ASSERT_TRUE(rs.ok());
  ASSERT_EQ(rs.value().NumRows(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(rs.value().At(i, 0).AsInt(), 2);
    EXPECT_EQ(rs.value().At(i, 1).AsInt(), i);
  }
}

// ------------------------------------------- IndexRecommend item pushdowns

std::unique_ptr<Recommender> MakeSmallRec() {
  RecommenderConfig cfg;
  cfg.name = "rec";
  auto rec = std::make_unique<Recommender>(cfg);
  rec->AddRating(1, 1, 4);
  rec->AddRating(1, 2, 3);
  rec->AddRating(2, 1, 5);
  rec->AddRating(2, 3, 4);
  rec->AddRating(3, 2, 2);
  rec->AddRating(3, 3, 3);
  rec->AddRating(3, 4, 4);
  RECDB_DCHECK(rec->Build().ok());
  return rec;
}

void InitIndexPlan(IndexRecommendPlan* plan, Recommender* rec) {
  plan->rec = rec;
  plan->alias = "R";
  plan->schema = ExecSchema({{"R", "uid", TypeId::kInt64},
                             {"R", "iid", TypeId::kInt64},
                             {"R", "ratingval", TypeId::kDouble}});
  plan->user_col_idx = 0;
  plan->item_col_idx = 1;
  plan->rating_col_idx = 2;
}

TEST(IndexRecommendTest, DuplicateItemIdsEmitOneTupleOnCacheMiss) {
  auto rec = MakeSmallRec();
  // The optimizer dedupes SQL IN-lists, but IndexRecommendPlan is a public
  // plan node: build it directly with duplicated item ids, as a caller (or
  // a future rewrite) legally may. User 1 has not rated items 3 or 4 and
  // nothing is materialized, so this exercises the model-fallback path.
  IndexRecommendPlan plan;
  InitIndexPlan(&plan, rec.get());
  plan.user_ids = {1};
  plan.item_ids = std::vector<int64_t>{3, 3, 4, 3};
  ExecContext ctx;
  auto exec = CreateExecutor(plan, &ctx);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec.value()->Init().ok());
  std::vector<int64_t> items;
  while (true) {
    auto next = exec.value()->Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    items.push_back(next.value()->At(1).AsInt());
  }
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, (std::vector<int64_t>{3, 4}))
      << "duplicated IN-list ids must not emit duplicate tuples";
  EXPECT_EQ(ctx.stats.index_misses, 1u);
}

TEST(IndexRecommendTest, CacheMissItemListSkipsRatedAndUnknownItems) {
  // The unpruned model fallback scores an item IN-list: user 1 already
  // rated items 1 and 2, and item 99 is unknown to the model, so only
  // items 3 and 4 are unseen candidates — scored in one batch, emitted.
  auto rec = MakeSmallRec();
  IndexRecommendPlan plan;
  InitIndexPlan(&plan, rec.get());
  plan.user_ids = {1};
  plan.item_ids = std::vector<int64_t>{1, 3, 99, 2, 4};
  ExecContext ctx;
  auto exec = CreateExecutor(plan, &ctx);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec.value()->Init().ok());
  std::vector<int64_t> items;
  while (true) {
    auto next = exec.value()->Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    items.push_back(next.value()->At(1).AsInt());
  }
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(ctx.stats.predictions, 2u);
  EXPECT_EQ(ctx.stats.predict_batches, 1u);
}

TEST(IndexRecommendTest, DuplicateItemIdsEmitOneTupleOnCacheHit) {
  auto rec = MakeSmallRec();
  ASSERT_TRUE(rec->MaterializeUser(1).ok());
  IndexRecommendPlan plan;
  InitIndexPlan(&plan, rec.get());
  plan.user_ids = {1};
  plan.item_ids = std::vector<int64_t>{4, 4, 3};
  ExecContext ctx;
  auto exec = CreateExecutor(plan, &ctx);
  ASSERT_TRUE(exec.ok());
  ASSERT_TRUE(exec.value()->Init().ok());
  size_t rows = 0;
  while (true) {
    auto next = exec.value()->Next();
    ASSERT_TRUE(next.ok());
    if (!next.value().has_value()) break;
    ++rows;
  }
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(ctx.stats.index_hits, 1u);
}

// ------------------------------------------ parallel query determinism

void LoadRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 30; ++u) {
    for (int k = 0; k < 6; ++k) {
      int item = (u * 3 + k * 5) % 20 + 1;
      rows.push_back({Value::Int(u), Value::Int(item),
                      Value::Double((u + k) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Ratings", rows).ok());
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
}

std::string RowsToString(const ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    for (const auto& v : row.values()) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

/// A second table for few-user queries: 6 users, 80 ratings each, over
/// 300 items, so one user alone is past the 256-pair fan-out threshold.
void LoadWideRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Wide (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 6; ++u) {
    for (int k = 0; k < 80; ++k) {
      int item = (u * 116 + k * 7) % 300 + 1;
      rows.push_back({Value::Int(u), Value::Int(item),
                      Value::Double((u + k) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Wide", rows).ok());
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER w ON Wide USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
}

/// Join outer for the JOINRECOMMEND goldens: every item of LoadRatings
/// (1..20, out of id order), four duplicates, two NULL item ids and two ids
/// no rating mentions — 28 probes, 24 of them scored per user.
void LoadShelf(RecDB* db) {
  ASSERT_TRUE(db->Execute("CREATE TABLE Shelf (iid INT, tag INT)").ok());
  std::vector<std::vector<Value>> rows;
  for (int k = 0; k < 20; ++k) {
    rows.push_back({Value::Int((k * 7) % 20 + 1), Value::Int(k)});
  }
  for (int iid : {3, 7, 7, 15}) {
    rows.push_back({Value::Int(iid), Value::Int(100 + iid)});
  }
  rows.push_back({Value::Null(), Value::Int(200)});
  rows.push_back({Value::Int(99), Value::Int(201)});
  rows.push_back({Value::Null(), Value::Int(202)});
  rows.push_back({Value::Int(500), Value::Int(203)});
  ASSERT_TRUE(db->BulkInsert("Shelf", rows).ok());
}

/// 12 users x 24 scored probes = 288 (user, item) pairs: past the 256-pair
/// fan-out threshold.
std::string ShelfJoinSql(const std::string& algo) {
  return "SELECT R.uid, R.iid, R.ratingval, S.tag FROM Ratings AS R, "
         "Shelf AS S RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
         algo +
         " WHERE R.uid IN (29, 3, 17, 8, 1, 22, 11, 5, 14, 26, 30, 2) "
         "AND S.iid = R.iid";
}

TEST(ParallelDeterminismTest, RecommendRowsIdenticalAcrossThreadCounts) {
  // Un-LIMITed RECOMMEND and JOINRECOMMEND: at parallelism 2 and 8 every
  // query emits its serial rows in the serial order. `fans_out` is whether
  // it goes through the morsel driver there: at 256 (user, item) pairs or
  // more it does — over users, or over item slices when it has fewer users
  // than workers — and below that it streams.
  ParallelismGuard guard;
  RecDB db;
  LoadRatings(&db);
  LoadWideRatings(&db);
  LoadShelf(&db);
  const std::string rec =
      " RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF";
  struct Case {
    std::string sql;
    bool fans_out;
  };
  const std::vector<Case> cases = {
      // 30 users x 20 items: user morsels.
      {"SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R" + rec, true},
      // 7 users x 20 items = 140 pairs: streams.
      {"SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R" + rec +
           " WHERE R.uid IN (29, 3, 17, 8, 1, 22, 11)",
       false},
      // 1 user x 300 items: item slices.
      {"SELECT R.uid, R.iid, R.ratingval FROM Wide AS R" + rec +
           " WHERE R.uid = 4",
       true},
      // 2 users x 300 items: user morsels at 2, item slices at 8.
      {"SELECT R.uid, R.iid, R.ratingval FROM Wide AS R" + rec +
           " WHERE R.uid IN (5, 2)",
       true},
      // JoinRecommend, 12 users x 24 outer items: user morsels.
      {ShelfJoinSql("ItemCosCF"), true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
    auto serial = db.Execute(c.sql);
    ASSERT_TRUE(serial.ok());
    ASSERT_GT(serial.value().NumRows(), 0u);
    EXPECT_EQ(serial.value().stats.tasks_spawned, 0u);
    const std::string expected = RowsToString(serial.value());

    for (int threads : {2, 8}) {
      ASSERT_TRUE(
          db.Execute("SET parallelism = " + std::to_string(threads)).ok());
      auto parallel = db.Execute(c.sql);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(RowsToString(parallel.value()), expected)
          << "RECOMMEND emission order changed at parallelism " << threads;
      EXPECT_EQ(parallel.value().stats.predictions,
                serial.value().stats.predictions);
      EXPECT_EQ(parallel.value().stats.tasks_spawned > 0, c.fans_out)
          << "at parallelism " << threads;
    }
  }
}

TEST(UserOrderTest, RecommendEmitsUsersInAscendingIdOnEveryPath) {
  // The one user order (DESIGN.md §14): RECOMMEND emits users in ascending
  // id, not in the order the rating matrix first saw them. User 0 arrives
  // after CREATE RECOMMENDER, so the matrix interns it last; it copies user
  // 5's ratings, so each of its items ties user 5's score and the pruned
  // Top-k, which breaks ties by user position, must put user 0 first too.
  // ItemCF Top-k plans exact, so the pruned leg runs UserCosCF, still on
  // the bounded driver. Its recommender is created after the insert, so it
  // has a neighborhood for user 0, whose rows come last in the table scan
  // and who is interned last there as well.
  ParallelismGuard guard;
  RecDB db;
  LoadRatings(&db);
  auto five = db.Execute("SELECT uid, iid, ratingval FROM Ratings WHERE uid = 5");
  ASSERT_TRUE(five.ok());
  std::string insert = "INSERT INTO Ratings VALUES ";
  for (size_t r = 0; r < five.value().NumRows(); ++r) {
    insert += (r > 0 ? ", (0, " : "(0, ") + five.value().At(r, 1).ToString() +
              ", " + five.value().At(r, 2).ToString() + ")";
  }
  ASSERT_TRUE(db.Execute(insert).ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER ru ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING UserCosCF")
                  .ok());

  const std::string rec =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ";
  const std::string exact = rec + "ItemCosCF";
  // LIMIT above the 31 x 20 grid keeps every unseen pair.
  const std::string pruned =
      rec + "UserCosCF ORDER BY R.ratingval DESC LIMIT 1000";
  auto explained = db.Explain(pruned);
  ASSERT_TRUE(explained.ok());
  ASSERT_NE(explained.value().find("mode=pruned"), std::string::npos)
      << explained.value();

  std::string serial_exact, serial_pruned;
  for (int threads : {1, 8}) {
    SCOPED_TRACE("parallelism " + std::to_string(threads));
    ASSERT_TRUE(
        db.Execute("SET parallelism = " + std::to_string(threads)).ok());
    auto all = db.Execute(exact);
    ASSERT_TRUE(all.ok());
    ASSERT_GT(all.value().NumRows(), 0u);
    EXPECT_EQ(all.value().At(0, 0).AsInt(), 0);
    for (size_t r = 1; r < all.value().NumRows(); ++r) {
      ASSERT_LE(all.value().At(r - 1, 0).AsInt(), all.value().At(r, 0).AsInt())
          << "row " << r;
    }

    auto topk = db.Execute(pruned);
    ASSERT_TRUE(topk.ok());
    // (uid, iid) -> output position, for users 0 and 5.
    std::map<std::pair<int64_t, int64_t>, size_t> pos;
    for (size_t r = 0; r < topk.value().NumRows(); ++r) {
      const int64_t uid = topk.value().At(r, 0).AsInt();
      if (uid == 0 || uid == 5) pos[{uid, topk.value().At(r, 1).AsInt()}] = r;
    }
    size_t ties = 0;
    for (const auto& [key, r0] : pos) {
      if (key.first != 0) continue;
      auto r5 = pos.find({5, key.second});
      ASSERT_NE(r5, pos.end()) << "item " << key.second;
      EXPECT_EQ(topk.value().At(r0, 2).AsDouble(),
                topk.value().At(r5->second, 2).AsDouble());
      EXPECT_LT(r0, r5->second) << "item " << key.second;
      ++ties;
    }
    EXPECT_GT(ties, 0u);

    if (threads == 1) {
      serial_exact = RowsToString(all.value());
      serial_pruned = RowsToString(topk.value());
    } else {
      EXPECT_EQ(RowsToString(all.value()), serial_exact);
      EXPECT_EQ(RowsToString(topk.value()), serial_pruned);
    }
  }
}

/// Rows as a sorted multiset of strings, doubles written as their bit
/// patterns, so only bit-equal results compare equal.
std::vector<std::string> RowMultiset(const ResultSet& rs) {
  std::vector<std::string> out;
  for (const auto& row : rs.rows) {
    std::string line;
    for (const auto& v : row.values()) {
      if (!v.is_null() && v.type() == TypeId::kDouble) {
        const double d = v.AsDouble();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        line += "d" + std::to_string(bits);
      } else {
        line += v.ToString();
      }
      line += '|';
    }
    out.push_back(std::move(line));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(JoinRecommendGoldenTest, MatchesHashJoinPlanForEveryAlgorithm) {
  // JoinRecommend scores each user over the outer's item list; the
  // hash-join plan scores the whole catalog per user and joins. Duplicate
  // outer items emit once per outer tuple, NULL and unknown ones emit
  // nothing, and every score is bit-equal.
  RecDB db;
  LoadRatings(&db);
  LoadShelf(&db);
  const char* algorithms[] = {"ItemCosCF", "ItemPearCF", "UserCosCF",
                              "UserPearCF", "SVD"};
  for (const char* algo : algorithms) {
    ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER j_") + algo +
                           " ON Ratings USERS FROM uid ITEMS FROM iid "
                           "RATINGS FROM ratingval USING " + algo)
                    .ok());
  }
  for (const char* algo : algorithms) {
    SCOPED_TRACE(algo);
    const std::string sql = ShelfJoinSql(algo);
    db.mutable_planner_options()->enable_join_recommend = true;
    auto plan = db.Explain(sql);
    ASSERT_TRUE(plan.ok());
    EXPECT_NE(plan.value().find("JoinRecommend"), std::string::npos)
        << plan.value();
    auto joined = db.Execute(sql);
    ASSERT_TRUE(joined.ok()) << joined.status().message();
    EXPECT_EQ(joined.value().stats.join_probes, 28u);

    db.mutable_planner_options()->enable_join_recommend = false;
    auto hash_plan = db.Explain(sql);
    ASSERT_TRUE(hash_plan.ok());
    EXPECT_EQ(hash_plan.value().find("JoinRecommend"), std::string::npos)
        << hash_plan.value();
    auto hashed = db.Execute(sql);
    db.mutable_planner_options()->enable_join_recommend = true;
    ASSERT_TRUE(hashed.ok()) << hashed.status().message();

    ASSERT_GT(joined.value().NumRows(), 0u);
    EXPECT_EQ(RowMultiset(joined.value()), RowMultiset(hashed.value()));
  }
}

TEST(ParallelDeterminismTest, FilterRecommendRowsIdenticalAcrossThreadCounts) {
  ParallelismGuard guard;
  RecDB db;
  LoadRatings(&db);
  std::string in_list;
  for (int u = 1; u <= 25; ++u) {
    if (!in_list.empty()) in_list += ", ";
    in_list += std::to_string(u);
  }
  const std::string q =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid IN (" + in_list + ") "
      "ORDER BY R.ratingval DESC, R.uid, R.iid LIMIT 40";
  ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
  auto serial = db.Execute(q);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(serial.value().NumRows(), 40u);
  const std::string expected = RowsToString(serial.value());

  for (int threads : {2, 8}) {
    ASSERT_TRUE(
        db.Execute("SET parallelism = " + std::to_string(threads)).ok());
    auto parallel = db.Execute(q);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(RowsToString(parallel.value()), expected);
    EXPECT_EQ(parallel.value().stats.predictions,
              serial.value().stats.predictions);
  }
}

// ------------------------------------------ parallel model-build determinism

RatingMatrix MakeMatrix() {
  RatingMatrix m;
  for (int u = 0; u < 60; ++u) {
    for (int k = 0; k < 8; ++k) {
      int item = (u * 7 + k * 11) % 40;
      m.Add(1000 + u, 2000 + item, (u + k) % 5 + 1 + 0.25 * (k % 3));
    }
  }
  return m;
}

void ExpectNeighborhoodsEqual(const std::vector<NeighborRow>& a,
                              const std::vector<NeighborRow>& b,
                              const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].NumEntries(), b[i].NumEntries()) << what << " row " << i;
    for (auto x = a[i].begin(), y = b[i].begin(); x != a[i].end(); ++x, ++y) {
      EXPECT_EQ((*x).idx, (*y).idx) << what << " row " << i;
      // Bit-identical, not approximately equal: the parallel accumulation
      // must add float products in exactly the serial order.
      EXPECT_EQ((*x).sim, (*y).sim) << what << " row " << i;
    }
    EXPECT_TRUE(a[i] == b[i]) << what << " row " << i;
  }
}

TEST(ParallelDeterminismTest, NeighborhoodsBitIdenticalAcrossThreadCounts) {
  ParallelismGuard guard;
  RatingMatrix m = MakeMatrix();
  std::vector<SimilarityOptions> variants(3);
  variants[1].centered = true;
  variants[1].top_k = 5;
  variants[2].min_overlap = 2;
  for (const auto& opts : variants) {
    TaskScheduler::SetGlobalParallelism(1);
    auto items_serial = BuildNeighborTable(m, CfSide::kItem, opts);
    auto users_serial = BuildNeighborTable(m, CfSide::kUser, opts);
    for (size_t threads : {2u, 8u}) {
      TaskScheduler::SetGlobalParallelism(threads);
      ExpectNeighborhoodsEqual(BuildNeighborTable(m, CfSide::kItem, opts),
                               items_serial, "item neighborhoods");
      ExpectNeighborhoodsEqual(BuildNeighborTable(m, CfSide::kUser, opts),
                               users_serial, "user neighborhoods");
    }
  }
}

TEST(ParallelDeterminismTest, MaterializedIndexIdenticalAcrossThreadCounts) {
  ParallelismGuard guard;
  auto collect = [](Recommender* rec) {
    std::vector<std::pair<int64_t, double>> out;
    rec->score_index()->ForEach(
        [&](int64_t u, int64_t i, double s) { out.push_back({u * 10000 + i, s}); });
    std::sort(out.begin(), out.end());
    return out;
  };
  TaskScheduler::SetGlobalParallelism(1);
  auto serial_rec = MakeSmallRec();
  ASSERT_TRUE(serial_rec->MaterializeAll().ok());
  auto expected = collect(serial_rec.get());
  ASSERT_FALSE(expected.empty());
  for (size_t threads : {2u, 8u}) {
    TaskScheduler::SetGlobalParallelism(threads);
    auto rec = MakeSmallRec();
    ASSERT_TRUE(rec->MaterializeAll().ok());
    EXPECT_EQ(collect(rec.get()), expected);
  }
}

// ----------------------------------------------------- TaskScheduler unit

TEST(TaskSchedulerTest, ParallelForCoversRangeExactlyOnce) {
  TaskScheduler sched(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<uint64_t> sum{0};
  TaskRunStats stats = sched.ParallelFor(kN, 64, [&](size_t begin, size_t end) {
    uint64_t local = 0;
    for (size_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      local += i;
    }
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(sum.load(), kN * (kN - 1) / 2);
  EXPECT_EQ(stats.tasks_spawned, (kN + 63) / 64);
  EXPECT_EQ(sched.total_tasks(), stats.tasks_spawned);
}

TEST(TaskSchedulerTest, SerialSchedulerRunsInline) {
  TaskScheduler sched(1);
  std::vector<size_t> order;
  sched.ParallelFor(100, 10, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(100);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(TaskSchedulerTest, ResizeAndReuse) {
  TaskScheduler sched(2);
  EXPECT_EQ(sched.num_threads(), 2u);
  std::atomic<uint64_t> count{0};
  sched.ParallelFor(1000, 16, [&](size_t begin, size_t end) {
    count.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000u);
  sched.Resize(5);
  EXPECT_EQ(sched.num_threads(), 5u);
  count = 0;
  sched.ParallelFor(1000, 16, [&](size_t begin, size_t end) {
    count.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 1000u);
  sched.Resize(1);
  count = 0;
  sched.ParallelFor(7, 2, [&](size_t begin, size_t end) {
    count.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 7u);
}

TEST(TaskSchedulerTest, EmptyRangeIsANoOp) {
  TaskScheduler sched(3);
  bool called = false;
  TaskRunStats stats =
      sched.ParallelFor(0, 8, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(stats.tasks_spawned, 0u);
}

// ------------------------------------------- batch == scalar golden equality

/// Ratings with deliberate edge cases: an interned user with zero ratings
/// (rating added then removed) alongside ordinary overlapping users.
std::shared_ptr<RatingMatrix> MakeGoldenMatrix() {
  auto m = std::make_shared<RatingMatrix>();
  for (int u = 0; u < 25; ++u) {
    for (int k = 0; k < 7; ++k) {
      int item = (u * 5 + k * 3) % 18;
      m->Add(100 + u, 500 + item, (u * 7 + k * 13) % 9 * 0.5 + 1);
    }
  }
  m->Add(199, 500, 3.0);
  EXPECT_TRUE(m->Remove(199, 500)) << "setup: rating must have existed";
  return m;
}

/// Every item plus unknown ids and in-batch duplicates.
std::vector<int64_t> GoldenCandidates() {
  std::vector<int64_t> items;
  for (int i = 0; i < 18; ++i) items.push_back(500 + i);
  items.push_back(9999);  // unknown item id
  items.push_back(500);   // duplicate of the first candidate
  items.push_back(505);   // duplicate
  items.push_back(-1);    // unknown (negative) item id
  return items;
}

/// One PredictBatch over the whole candidate list must equal (a) scalar
/// Predict per candidate and (b) the same list split at arbitrary cut
/// points, bit for bit — EXPECT_EQ on doubles, no tolerance. (b) is the
/// invariant the executors rely on: morsel and item-slice boundaries may
/// split a user's candidates anywhere.
void ExpectBatchMatchesScalar(const RecModel& model, int64_t user_id) {
  const std::vector<int64_t> items = GoldenCandidates();
  const size_t n = items.size();
  std::vector<double> batch(n, -1);
  model.PredictBatch(user_id, items, batch);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_EQ(batch[k], model.Predict(user_id, items[k]))
        << "user " << user_id << " item " << items[k] << " position " << k;
  }
  for (size_t cut : {size_t{1}, n / 3, n - 1}) {
    std::vector<double> split(n, -1);
    model.PredictBatch(user_id, std::span<const int64_t>(items.data(), cut),
                       std::span<double>(split.data(), cut));
    model.PredictBatch(
        user_id, std::span<const int64_t>(items.data() + cut, n - cut),
        std::span<double>(split.data() + cut, n - cut));
    EXPECT_EQ(split, batch) << "user " << user_id << " cut at " << cut;
  }
}

/// users: a regular user, a heavy user, the zero-rating user, an unknown id.
constexpr int64_t kGoldenUsers[] = {100, 112, 199, 424242};

TEST(BatchScalarEqualityTest, ItemCFBatchBitIdenticalToScalar) {
  auto m = MakeGoldenMatrix();
  auto cosine = ItemCFModel::Build(m, /*centered=*/false);
  auto pearson = ItemCFModel::Build(m, /*centered=*/true);
  for (int64_t user : kGoldenUsers) {
    ExpectBatchMatchesScalar(*cosine, user);
    ExpectBatchMatchesScalar(*pearson, user);
  }
}

TEST(BatchScalarEqualityTest, UserCFBatchBitIdenticalToScalar) {
  auto m = MakeGoldenMatrix();
  auto cosine = UserCFModel::Build(m, /*centered=*/false);
  auto pearson = UserCFModel::Build(m, /*centered=*/true);
  for (int64_t user : kGoldenUsers) {
    ExpectBatchMatchesScalar(*cosine, user);
    ExpectBatchMatchesScalar(*pearson, user);
  }
}

TEST(BatchScalarEqualityTest, SvdBatchBitIdenticalToScalar) {
  auto m = MakeGoldenMatrix();
  SvdOptions opts;
  opts.num_epochs = 5;
  auto plain = SvdModel::Build(m, opts);
  opts.use_biases = true;
  auto biased = SvdModel::Build(m, opts);
  for (int64_t user : kGoldenUsers) {
    ExpectBatchMatchesScalar(*plain, user);
    ExpectBatchMatchesScalar(*biased, user);
  }
}

/// Eq. (2) computed test-side: Σ sim(i, j)·r_uj / Σ|sim(i, j)| over the
/// user's rated items j in ascending index — the canonical summation order
/// (DESIGN.md §10) — with each sim read from the candidate's stored row.
double Eq2Reference(const ItemCFModel& model, int64_t user_id,
                    int64_t item_id) {
  const RatingMatrix& m = model.ratings();
  const auto u = m.UserIndex(user_id);
  if (!u.has_value() || !m.ItemIndex(item_id).has_value()) return 0;
  double num = 0, den = 0;
  const CsrRow rated = m.UserCsrRow(*u);
  for (size_t k = 0; k < rated.n; ++k) {
    const double sim = model.Similarity(item_id, m.ItemIdAt(rated.idx[k]));
    if (sim == 0) continue;
    num += sim * rated.rating[k];
    den += std::fabs(sim);
  }
  return den == 0 ? 0 : num / den;
}

/// Every item of the golden matrix in descending id, then out-of-order
/// duplicates, unknown ids and item 777 (interned only by the delta below).
std::vector<int64_t> UnsortedCandidates() {
  std::vector<int64_t> items;
  for (int i = 17; i >= 0; --i) items.push_back(500 + i);
  for (int64_t id : {509, 9999, 500, 777, 517, 509, -1, 503}) {
    items.push_back(id);
  }
  return items;
}

/// PredictBatch == Eq2Reference for every user (and an unknown one), in one
/// batch and split at every cut point.
void ExpectItemCfKernelMatchesReference(const ItemCFModel& model) {
  const std::vector<int64_t> items = UnsortedCandidates();
  const size_t n = items.size();
  std::vector<int64_t> users = model.ratings().user_ids();
  users.push_back(424242);
  for (int64_t user : users) {
    std::vector<double> expected(n);
    for (size_t k = 0; k < n; ++k) {
      expected[k] = Eq2Reference(model, user, items[k]);
    }
    std::vector<double> batch(n, -1);
    model.PredictBatch(user, items, batch);
    EXPECT_EQ(batch, expected) << "user " << user;
    for (size_t cut = 1; cut < n; ++cut) {
      std::vector<double> split(n, -1);
      model.PredictBatch(user, std::span<const int64_t>(items.data(), cut),
                         std::span<double>(split.data(), cut));
      model.PredictBatch(
          user, std::span<const int64_t>(items.data() + cut, n - cut),
          std::span<double>(split.data() + cut, n - cut));
      EXPECT_EQ(split, expected) << "user " << user << " cut at " << cut;
    }
  }
}

/// 30 users rating 12 of 18 items each with off-grid ratings (thirds): a
/// product sim·r is then inexact in double, so a sum over 12 such terms
/// taken in any order but the reference's differs in its last bits for
/// many (user, item) pairs. (MakeGoldenMatrix's half-star ratings over 7
/// items per user sum exactly in any order.)
std::shared_ptr<RatingMatrix> MakeOffGridMatrix() {
  auto m = std::make_shared<RatingMatrix>();
  for (int u = 0; u < 30; ++u) {
    for (int k = 0; k < 12; ++k) {
      m->Add(100 + u, 500 + (u * 5 + k * 7) % 18,
             1 + ((u * 11 + k * 17) % 13) / 3.0);
    }
  }
  return m;
}

TEST(BatchScalarEqualityTest, ItemCFKernelSumsRatedItemsInAscendingIndex) {
  // top_k == 0 runs the transposed kernel, top_k == 17 the gather kernel.
  // The 18-item catalog gives every row at most 17 neighbors, so both
  // models hold the same rows and must return the same bits as well.
  auto m = MakeOffGridMatrix();
  SimilarityOptions gather;
  gather.top_k = 17;
  std::vector<std::unique_ptr<ItemCFModel>> models;  // transposed, gather
  for (bool centered : {false, true}) {
    models.push_back(ItemCFModel::Build(m, centered));
    models.push_back(ItemCFModel::Build(m, centered, gather));
  }
  auto check = [&] {
    for (const auto& model : models) {
      SCOPED_TRACE(RecAlgorithmToString(model->algorithm()));
      ExpectItemCfKernelMatchesReference(*model);
    }
    const std::vector<int64_t> items = UnsortedCandidates();
    for (size_t k = 0; k < models.size(); k += 2) {
      for (int64_t user : m->user_ids()) {
        std::vector<double> transposed(items.size()), gathered(items.size());
        models[k]->PredictBatch(user, items, transposed);
        models[k + 1]->PredictBatch(user, items, gathered);
        EXPECT_EQ(transposed, gathered) << "user " << user;
      }
    }
  };
  check();
  // A pending delta: a new user, a new item 777 no row knows, and added,
  // removed and overwritten ratings of known users, all scored through the
  // merge view.
  m->Add(300, 500, 4.0);
  m->Add(300, 777, 2.0);
  m->Add(100, 777, 5.0);
  m->Add(101, 516, 1.5);
  m->Add(100, 500, 2.5);  // overwrites 1.0
  ASSERT_TRUE(m->Remove(102, 510));
  ASSERT_TRUE(m->has_delta());
  check();
}

/// Ratings whose item rows mix every run shape: three heavy users rate
/// items 0..79, so those items' rows hold runs of 8 cells and more; 80
/// light users rate 14 of 300 items each, so the other rows are sparse,
/// with short runs, bridged gaps of one and two cells and gaps of three or
/// more. Ratings are in thirds, so a sum taken out of order shows.
std::vector<std::tuple<int64_t, int64_t, double>> RunShapeRatings() {
  std::vector<std::tuple<int64_t, int64_t, double>> out;
  for (int64_t u = 0; u < 3; ++u) {
    for (int64_t i = 0; i < 80; ++i) {
      out.emplace_back(u, i, 1 + ((u * 5 + i * 7) % 13) / 3.0);
    }
  }
  Rng rng(31);
  for (int64_t u = 3; u < 83; ++u) {
    for (int k = 0; k < 14; ++k) {
      out.emplace_back(u, rng.UniformInt(0, 299),
                       1 + rng.UniformInt(0, 12) / 3.0);
    }
  }
  return out;
}

TEST(BatchScalarEqualityTest, ItemCFRunsScoreLikeTheGatherReference) {
  auto m = std::make_shared<RatingMatrix>();
  for (const auto& [u, i, r] : RunShapeRatings()) m->Add(u, i, r);
  for (bool centered : {false, true}) {
    auto model = ItemCFModel::Build(m, centered);
    SCOPED_TRACE(RecAlgorithmToString(model->algorithm()));
    const int32_t n = static_cast<int32_t>(m->NumItems());
    // The table holds every run shape the kernel distinguishes.
    bool long_run = false, short_run = false, bridged = false;
    for (int32_t i = 0; i < n; ++i) {
      const NeighborRow& row = model->NeighborhoodAt(i);
      for (const NeighborRow::Run& run : row.runs()) {
        (run.count >= 8 ? long_run : short_run) = true;
      }
      bridged = bridged || row.NumEntries() < row.num_cells();
    }
    ASSERT_TRUE(long_run && short_run && bridged);

    // Every user over index slices of many widths: each slice boundary
    // cuts through runs, and each slice must give the reference's bits.
    for (int32_t u = 0; u < static_cast<int32_t>(m->NumUsers()); ++u) {
      const int64_t user = m->UserIdAt(u);
      std::vector<double> expected(n);
      for (int32_t i = 0; i < n; ++i) {
        expected[i] = Eq2Reference(*model, user, m->ItemIdAt(i));
      }
      for (int32_t width : {1, 3, 7, 8, 9, 17, 64, n}) {
        std::vector<double> got(n, -1);
        for (int32_t lo = 0; lo < n; lo += width) {
          const int32_t len = std::min(width, n - lo);
          std::vector<int32_t> slice(len);
          std::iota(slice.begin(), slice.end(), lo);
          model->PredictBatchByIndex(
              u, slice, std::span<double>(got.data() + lo, len));
        }
        ASSERT_EQ(got, expected) << "user " << user << " width " << width;
      }
    }
  }
}

TEST(ParallelDeterminismTest, ItemCFRunsScoreLikeTheGatherReference) {
  // One user over the 300-item catalog is past the fan-out threshold, so
  // parallelism 2 and 8 score it in item slices whose bounds cut runs.
  ParallelismGuard guard;
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Runs (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (const auto& [u, i, r] : RunShapeRatings()) {
    rows.push_back({Value::Int(u), Value::Int(i), Value::Double(r)});
  }
  ASSERT_TRUE(db.BulkInsert("Runs", rows).ok());
  for (const char* algo : {"ItemCosCF", "ItemPearCF"}) {
    SCOPED_TRACE(algo);
    ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER ") + algo +
                           "_runs ON Runs USERS FROM uid ITEMS FROM iid "
                           "RATINGS FROM ratingval USING " + algo)
                    .ok());
    auto rec = db.GetRecommender(std::string(algo) + "_runs");
    ASSERT_TRUE(rec.ok());
    const auto& model =
        static_cast<const ItemCFModel&>(*rec.value()->model());
    for (int threads : {1, 2, 8}) {
      ASSERT_TRUE(
          db.Execute("SET parallelism = " + std::to_string(threads)).ok());
      for (int64_t user : {0, 5, 40}) {
        auto rs = db.Execute(
            "SELECT R.uid, R.iid, R.ratingval FROM Runs AS R RECOMMEND R.iid "
            "TO R.uid ON R.ratingval USING " +
            std::string(algo) + " WHERE R.uid = " + std::to_string(user));
        ASSERT_TRUE(rs.ok()) << rs.status().message();
        ASSERT_GT(rs.value().NumRows(), 200u);
        EXPECT_EQ(rs.value().stats.tasks_spawned > 0, threads > 1);
        for (const Tuple& row : rs.value().rows) {
          const int64_t item = row.values()[1].AsInt();
          EXPECT_EQ(row.values()[2].AsDouble(),
                    Eq2Reference(model, user, item))
              << "user " << user << " item " << item << " at parallelism "
              << threads;
        }
      }
    }
  }
}

// The kernels' multiply-adds must round the product before the add, as the
// x86-64 baseline does: with x = 1 + 2^-27 and y = 1 - 2^-27, x*y is
// 1 - 2^-54, which rounds to 1.0, so x*y - 1 is 0. A fused multiply-add
// keeps the product exact and gives -2^-54. The build passes
// -ffp-contract=off so that -march=native (RECDB_NATIVE) cannot fuse.
TEST(BatchScalarEqualityTest, MultiplyAddIsNotContracted) {
  volatile double x = 1.0 + std::ldexp(1.0, -27);
  volatile double y = 1.0 - std::ldexp(1.0, -27);
  const double a = x, b = y;
  EXPECT_EQ(a * b - 1.0, 0.0);
}

/// UserCF's Eq. (2) computed test-side: Σ sim(u, v)·r_vi / Σ|sim(u, v)|
/// over the item's raters v in ascending index, each sim read from the
/// user's stored row.
double UserEq2Reference(const UserCFModel& model, int64_t user_id,
                        int64_t item_id) {
  const RatingMatrix& m = model.ratings();
  const auto i = m.ItemIndex(item_id);
  if (!m.UserIndex(user_id).has_value() || !i.has_value()) return 0;
  double num = 0, den = 0;
  const CsrRow raters = m.ItemCsrRow(*i);
  for (size_t k = 0; k < raters.n; ++k) {
    const double sim = model.Similarity(user_id, m.UserIdAt(raters.idx[k]));
    if (sim == 0) continue;
    num += sim * raters.rating[k];
    den += std::fabs(sim);
  }
  return den == 0 ? 0 : num / den;
}

TEST(BatchScalarEqualityTest, UserCFKernelsSumRatersInAscendingIndex) {
  // 60 users rating 5 of 40 items each in thirds, so a sum over an item's
  // ~7 raters taken in any order but the reference's differs in its last
  // bits for many pairs. A whole-catalog batch runs the scatter kernel
  // (every user has fewer than all other users as neighbors), a one-item
  // batch the gather; both must return the reference's bits.
  auto m = std::make_shared<RatingMatrix>();
  for (int u = 0; u < 60; ++u) {
    for (int k = 0; k < 5; ++k) {
      m->Add(100 + u, 500 + (u * 7 + k * 11) % 40,
             1 + ((u * 11 + k * 17) % 13) / 3.0);
    }
  }
  std::vector<std::unique_ptr<UserCFModel>> models;
  for (bool centered : {false, true}) {
    models.push_back(UserCFModel::Build(m, centered));
  }
  auto check = [&] {
    for (const auto& model : models) {
      SCOPED_TRACE(RecAlgorithmToString(model->algorithm()));
      std::vector<int32_t> all(m->NumItems());
      std::iota(all.begin(), all.end(), 0);
      for (int32_t u = 0; u < static_cast<int32_t>(m->NumUsers()); ++u) {
        const int64_t user = m->UserIdAt(u);
        std::vector<double> expected(all.size());
        for (size_t k = 0; k < all.size(); ++k) {
          expected[k] = UserEq2Reference(*model, user, m->ItemIdAt(all[k]));
        }
        std::vector<double> batch(all.size(), -1);
        model->PredictBatchByIndex(u, all, batch);
        EXPECT_EQ(batch, expected) << "user " << user;
        for (size_t k = 0; k < all.size(); ++k) {
          double one = -1;
          model->PredictBatchByIndex(u, std::span<const int32_t>(&all[k], 1),
                                     std::span<double>(&one, 1));
          EXPECT_EQ(one, expected[k]) << "user " << user << " item " << k;
        }
      }
    }
  };
  check();
  // A pending delta: a new user, a new item 777 no row knows, and added,
  // removed and overwritten ratings of known users, all scored through the
  // row view.
  m->Add(300, 500, 4.0);
  m->Add(300, 777, 2.0);
  m->Add(100, 777, 5.0);
  m->Add(101, 516, 1.5);
  m->Add(100, 500, 2.5);  // overwrites the build's rating
  ASSERT_TRUE(m->Remove(102, 514));
  ASSERT_TRUE(m->has_delta());
  check();
}

/// PredictBatchByIndex over dense indices must equal PredictBatch over the
/// ids they name, bit for bit, and an out-of-range index must score exactly
/// like an unknown id. Covers every user and item of the matrix, including
/// ones interned after the model was built.
void ExpectByIndexMatchesById(const RecModel& model) {
  const RatingMatrix& m = model.ratings();
  const int32_t num_users = static_cast<int32_t>(m.NumUsers());
  const int32_t num_items = static_cast<int32_t>(m.NumItems());
  std::vector<int64_t> ids;
  std::vector<int32_t> idx;
  for (int32_t i = 0; i < num_items; ++i) {
    ids.push_back(m.ItemIdAt(i));
    idx.push_back(i);
  }
  // Unknown ids against out-of-range indices on both sides of the range.
  for (int32_t bad : {-1, num_items, num_items + 7, INT32_MAX}) {
    ids.push_back(9999);
    idx.push_back(bad);
  }
  std::vector<std::pair<int64_t, int32_t>> users;
  for (int32_t u = 0; u < num_users; ++u) users.emplace_back(m.UserIdAt(u), u);
  for (int32_t bad : {-1, num_users, INT32_MAX}) users.emplace_back(424242, bad);
  for (const auto& [user_id, u] : users) {
    std::vector<double> by_id(ids.size(), -1), by_index(idx.size(), -2);
    model.PredictBatch(user_id, ids, by_id);
    model.PredictBatchByIndex(u, idx, by_index);
    EXPECT_EQ(by_index, by_id)
        << RecAlgorithmToString(model.algorithm()) << " user " << user_id
        << " (index " << u << ")";
  }
}

TEST(BatchScalarEqualityTest, ByIndexBitIdenticalToByIdForEveryAlgorithm) {
  auto m = MakeGoldenMatrix();
  std::vector<std::unique_ptr<RecModel>> models;
  for (bool centered : {false, true}) {
    models.push_back(ItemCFModel::Build(m, centered));
    models.push_back(UserCFModel::Build(m, centered));
  }
  SvdOptions opts;
  opts.num_epochs = 5;
  models.push_back(SvdModel::Build(m, opts));
  for (const auto& model : models) ExpectByIndexMatchesById(*model);

  // A pending delta interns a user and an item the models were not built
  // with (no neighborhood, no factor row) and touches known rows.
  m->Add(300, 500, 4.0);
  m->Add(300, 777, 2.0);
  m->Add(100, 777, 5.0);
  m->Add(101, 503, 1.5);
  ASSERT_TRUE(m->has_delta());
  for (const auto& model : models) ExpectByIndexMatchesById(*model);
}

TEST(BatchScalarEqualityTest, BatchBitIdenticalUnderConcurrentCallers) {
  // The CF kernels reuse a thread_local dense accumulator; hammer
  // PredictBatch from many workers at parallelism 2 and 8 and require the
  // same bits as the serial call.
  ParallelismGuard guard;
  auto m = MakeGoldenMatrix();
  std::vector<std::unique_ptr<RecModel>> models;
  models.push_back(ItemCFModel::Build(m, false));
  models.push_back(UserCFModel::Build(m, false));
  SvdOptions opts;
  opts.num_epochs = 5;
  models.push_back(SvdModel::Build(m, opts));
  const std::vector<int64_t> items = GoldenCandidates();
  const std::vector<int64_t>& users = m->user_ids();
  for (const auto& model : models) {
    TaskScheduler::SetGlobalParallelism(1);
    std::vector<double> expected(users.size() * items.size(), -1);
    for (size_t u = 0; u < users.size(); ++u) {
      model->PredictBatch(
          users[u], items,
          std::span<double>(expected.data() + u * items.size(), items.size()));
    }
    for (size_t threads : {2u, 8u}) {
      TaskScheduler::SetGlobalParallelism(threads);
      std::vector<double> got(users.size() * items.size(), -1);
      TaskScheduler::Global().ParallelFor(
          users.size(), 1, [&](size_t begin, size_t end) {
            for (size_t u = begin; u < end; ++u) {
              model->PredictBatch(users[u], items,
                                  std::span<double>(
                                      got.data() + u * items.size(),
                                      items.size()));
            }
          });
      EXPECT_EQ(got, expected)
          << "algorithm " << RecAlgorithmToString(model->algorithm())
          << " at parallelism " << threads;
    }
  }
}

TEST(BatchScalarEqualityTest, QueryPathsReportBatchCounters) {
  ParallelismGuard guard;
  RecDB db;
  LoadRatings(&db);
  const std::string q =
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF";
  for (int threads : {1, 4}) {
    ASSERT_TRUE(
        db.Execute("SET parallelism = " + std::to_string(threads)).ok());
    auto rs = db.Execute(q);
    ASSERT_TRUE(rs.ok());
    // Every candidate prediction goes through the batch layer, in batches
    // of at least one, regardless of thread count.
    EXPECT_GT(rs.value().stats.predict_batches, 0u);
    EXPECT_GE(rs.value().stats.predictions, rs.value().stats.predict_batches);
  }
}

// ------------------------------------------------------------ SET statement

TEST(SetStatementTest, ParallelismValidation) {
  ParallelismGuard guard;
  RecDB db;
  auto ok = db.Execute("SET parallelism = 2");
  ASSERT_TRUE(ok.ok());
  EXPECT_NE(ok.value().message.find("parallelism set to 2"),
            std::string::npos);
  EXPECT_EQ(TaskScheduler::Global().num_threads(), 2u);

  EXPECT_FALSE(db.Execute("SET parallelism = 0").ok());
  EXPECT_FALSE(db.Execute("SET parallelism = -3").ok());
  EXPECT_FALSE(db.Execute("SET parallelism = 'lots'").ok());
  EXPECT_FALSE(db.Execute("SET parallelism = 1.5").ok());
  EXPECT_FALSE(db.Execute("SET no_such_option = 1").ok());
  // Failed SETs must not disturb the configured level.
  EXPECT_EQ(TaskScheduler::Global().num_threads(), 2u);
}

TEST(SetStatementTest, OptionsParallelismAppliesAtConstruction) {
  ParallelismGuard guard;
  RecDBOptions opts;
  opts.parallelism = 3;
  RecDB db(opts);
  EXPECT_EQ(TaskScheduler::Global().num_threads(), 3u);
}

}  // namespace
}  // namespace recdb
