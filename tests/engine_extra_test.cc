// Additional end-to-end coverage: user-based CF through SQL, the
// include_rated (Algorithm 1 literal) mode, tiny-buffer-pool execution,
// ResultSet rendering, and EXPLAIN error paths.
#include <gtest/gtest.h>

#include <set>

#include "api/recdb.h"
#include "common/rng.h"

namespace recdb {
namespace {

std::unique_ptr<RecDB> MakeDb(RecDBOptions opts = {}) {
  auto db = std::make_unique<RecDB>(opts);
  RECDB_DCHECK(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  Rng rng(55);
  std::vector<std::vector<Value>> rows;
  // Large enough to span many pages (the tiny-buffer-pool test relies on
  // the ratings heap exceeding a 4-frame pool).
  for (int u = 1; u <= 60; ++u) {
    for (int k = 0; k < 20; ++k) {
      rows.push_back({Value::Int(u), Value::Int(rng.UniformInt(1, 40)),
                      Value::Double(rng.UniformInt(1, 5))});
    }
  }
  RECDB_DCHECK(db->BulkInsert("Ratings", rows).ok());
  return db;
}

TEST(UserBasedSqlTest, UserCosAndUserPearThroughSql) {
  auto db = MakeDb();
  for (const char* algo : {"UserCosCF", "UserPearCF"}) {
    ASSERT_TRUE(db->Execute(std::string("CREATE RECOMMENDER r_") + algo +
                            " ON Ratings USERS FROM uid ITEMS FROM iid "
                            "RATINGS FROM ratingval USING " + algo)
                    .ok());
    auto rs = db->Execute(std::string(
        "SELECT R.iid, R.ratingval FROM Ratings AS R "
        "RECOMMEND R.iid TO R.uid ON R.ratingval USING ") + algo +
        " WHERE R.uid = 5 ORDER BY R.ratingval DESC LIMIT 5");
    ASSERT_TRUE(rs.ok()) << algo << ": " << rs.status();
    ASSERT_EQ(rs.value().NumRows(), 5u) << algo;
    // Scores must match the model directly.
    auto rec = db->GetRecommender(std::string("r_") + algo);
    ASSERT_TRUE(rec.ok());
    for (const auto& row : rs.value().rows) {
      EXPECT_DOUBLE_EQ(row.At(1).AsDouble(),
                       rec.value()->model()->Predict(5, row.At(0).AsInt()));
    }
  }
}

TEST(IncludeRatedTest, Algorithm1LiteralModeEmitsActualRatings) {
  RecDBOptions opts;
  opts.planner.include_rated = true;
  auto db = MakeDb(opts);
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
  auto rs = db->Execute(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3");
  ASSERT_TRUE(rs.ok());
  auto rec = db->GetRecommender("r");
  ASSERT_TRUE(rec.ok());
  const RatingMatrix& m = rec.value()->model()->ratings();
  // Every item appears; rated ones carry the user's actual rating
  // (Algorithm 1 line 8).
  EXPECT_EQ(rs.value().NumRows(), m.NumItems());
  size_t rated_seen = 0;
  for (const auto& row : rs.value().rows) {
    auto actual = m.Get(3, row.At(0).AsInt());
    if (actual.has_value()) {
      EXPECT_DOUBLE_EQ(row.At(1).AsDouble(), *actual);
      ++rated_seen;
    }
  }
  auto uidx = m.UserIndex(3);
  ASSERT_TRUE(uidx.has_value());
  EXPECT_EQ(rated_seen, m.UserCsrRow(*uidx).n);
}

TEST(TinyBufferPoolTest, QueriesSurviveHeavyEviction) {
  RecDBOptions opts;
  opts.buffer_pool_pages = 4;  // pathological: constant eviction
  auto db = MakeDb(opts);
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
  auto join = db->Execute(
      "SELECT A.uid, B.uid FROM Ratings A, Ratings B "
      "WHERE A.iid = B.iid AND A.uid = 1 AND B.uid = 2 ORDER BY B.iid");
  ASSERT_TRUE(join.ok()) << join.status();
  auto rec = db->Execute(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5");
  ASSERT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(rec.value().NumRows(), 5u);
  EXPECT_GT(db->disk()->num_reads(), 0u);  // evictions really happened
}

TEST(ResultSetTest, ToStringRenders) {
  auto db = MakeDb();
  auto rs = db->Execute(
      "SELECT uid, count(*) FROM Ratings GROUP BY uid ORDER BY uid LIMIT 3");
  ASSERT_TRUE(rs.ok());
  std::string s = rs.value().ToString(2);
  EXPECT_NE(s.find("uid"), std::string::npos);
  EXPECT_NE(s.find("rows total"), std::string::npos);  // truncation marker
}

TEST(ExplainTest, ExplainErrors) {
  auto db = MakeDb();
  EXPECT_FALSE(db->Explain("INSERT INTO Ratings VALUES (1,1,1.0)").ok());
  EXPECT_FALSE(db->Explain("SELECT * FROM nosuch").ok());
  auto plan = db->Explain("SELECT uid FROM Ratings WHERE uid = 1");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("SeqScan"), std::string::npos);
}

TEST(MultiRecommenderTest, SameAlgorithmDifferentTables) {
  auto db = MakeDb();
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Other (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  ASSERT_TRUE(db->Execute("INSERT INTO Other VALUES (1,1,5.0), (1,2,1.0), "
                          "(2,1,4.0), (2,3,2.0)")
                  .ok());
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER a ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER b ON Other USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
  // The RECOMMEND clause resolves by FROM table: querying Other must use b.
  auto rs = db->Execute(
      "SELECT R.iid FROM Other AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1");
  ASSERT_TRUE(rs.ok());
  std::set<int64_t> items;
  for (const auto& row : rs.value().rows) items.insert(row.At(0).AsInt());
  EXPECT_EQ(items, (std::set<int64_t>{3}));  // user 1 rated 1,2 in Other
}

TEST(DuplicateRecommenderTest, CreateTwiceFails) {
  auto db = MakeDb();
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval")
                  .ok());
  EXPECT_FALSE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                           "ITEMS FROM iid RATINGS FROM ratingval USING SVD")
                   .ok());
  // After dropping, the name is reusable.
  ASSERT_TRUE(db->Execute("DROP RECOMMENDER r").ok());
  EXPECT_TRUE(db->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval USING SVD")
                  .ok());
}

}  // namespace
}  // namespace recdb
