// End-to-end SQL tests through the RecDB facade: DDL/DML, the paper's
// query shapes (Queries 1-8), operator-equivalence oracles (FilterRecommend
// vs Recommend+Filter, IndexRecommend vs Sort+Limit, JoinRecommend vs join).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/recdb.h"
#include "common/rng.h"

namespace recdb {
namespace {

/// Fixture with the movie schema of paper Figure 1 plus a synthetic rating
/// workload large enough for neighborhoods to be meaningful.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    Exec("CREATE TABLE Users (uid INT, name TEXT, city TEXT, age INT)");
    Exec(
        "CREATE TABLE Movies (mid INT, name TEXT, director TEXT, genre "
        "TEXT)");
    Exec("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)");

    // 30 users x 40 movies, ~12 ratings per user, deterministic.
    Rng rng(123);
    std::vector<std::vector<Value>> users, movies, ratings;
    for (int u = 1; u <= 30; ++u) {
      users.push_back({Value::Int(u), Value::String("user" + std::to_string(u)),
                       Value::String(u % 2 ? "Minneapolis" : "Austin"),
                       Value::Int(18 + u)});
    }
    for (int m = 1; m <= 40; ++m) {
      movies.push_back(
          {Value::Int(m), Value::String("movie" + std::to_string(m)),
           Value::String("director" + std::to_string(m % 7)),
           Value::String(m % 3 == 0 ? "Action" : (m % 3 == 1 ? "Drama"
                                                             : "Sci-Fi"))});
    }
    std::set<std::pair<int, int>> seen;
    for (int u = 1; u <= 30; ++u) {
      for (int k = 0; k < 12; ++k) {
        int m = static_cast<int>(rng.UniformInt(1, 40));
        if (!seen.insert({u, m}).second) continue;
        ratings.push_back({Value::Int(u), Value::Int(m),
                           Value::Double(rng.UniformInt(1, 5))});
      }
    }
    ASSERT_TRUE(db_->BulkInsert("Users", users).ok());
    ASSERT_TRUE(db_->BulkInsert("Movies", movies).ok());
    ASSERT_TRUE(db_->BulkInsert("Ratings", ratings).ok());

    Exec(
        "CREATE RECOMMENDER GeneralRec ON Ratings USERS FROM uid "
        "ITEMS FROM iid RATINGS FROM ratingval USING ItemCosCF");
  }

  ResultSet Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    if (!r.ok()) return ResultSet{};
    return std::move(r).value();
  }

  std::unique_ptr<RecDB> db_;
};

TEST_F(EngineTest, BasicSelectFilterProject) {
  auto rs = Exec("SELECT name, age FROM Users WHERE age > 40 ORDER BY age");
  ASSERT_EQ(rs.columns, (std::vector<std::string>{"name", "age"}));
  ASSERT_FALSE(rs.rows.empty());
  int64_t prev = 0;
  for (const auto& row : rs.rows) {
    EXPECT_GT(row.At(1).AsInt(), 40);
    EXPECT_GE(row.At(1).AsInt(), prev);
    prev = row.At(1).AsInt();
  }
}

TEST_F(EngineTest, SelectStar) {
  auto rs = Exec("SELECT * FROM Movies WHERE mid = 7");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.columns.size(), 4u);
  EXPECT_EQ(rs.At(0, 1).AsString(), "movie7");
}

TEST_F(EngineTest, JoinTwoTables) {
  auto rs = Exec(
      "SELECT U.name, R.iid FROM Users U, Ratings R "
      "WHERE U.uid = R.uid AND U.uid = 3");
  ASSERT_FALSE(rs.rows.empty());
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row.At(0).AsString(), "user3");
  }
  // Count must equal user 3's rating count.
  auto direct = Exec("SELECT uid FROM Ratings WHERE uid = 3");
  EXPECT_EQ(rs.NumRows(), direct.NumRows());
}

TEST_F(EngineTest, RecommendQueryReturnsUnseenItemsOnly) {
  auto rs = Exec(
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1");
  ASSERT_FALSE(rs.rows.empty());
  auto rated = Exec("SELECT iid FROM Ratings WHERE uid = 1");
  std::set<int64_t> rated_items;
  for (const auto& row : rated.rows) rated_items.insert(row.At(0).AsInt());
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row.At(0).AsInt(), 1);
    EXPECT_EQ(rated_items.count(row.At(1).AsInt()), 0u)
        << "rated item leaked into recommendations";
  }
  EXPECT_EQ(rs.NumRows(), 40 - rated_items.size());
}

TEST_F(EngineTest, RecommendScoresMatchModelOracle) {
  auto rs = Exec(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 5");
  auto rec = db_->GetRecommender("GeneralRec");
  ASSERT_TRUE(rec.ok());
  const RecModel* model = rec.value()->model();
  ASSERT_NE(model, nullptr);
  ASSERT_FALSE(rs.rows.empty());
  for (const auto& row : rs.rows) {
    double oracle = model->Predict(5, row.At(0).AsInt());
    EXPECT_DOUBLE_EQ(row.At(1).AsDouble(), oracle);
  }
}

TEST_F(EngineTest, Query1TopTen) {
  auto rs = Exec(
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 10");
  ASSERT_EQ(rs.NumRows(), 10u);
  for (size_t i = 1; i < rs.NumRows(); ++i) {
    EXPECT_GE(rs.At(i - 1, 2).AsDouble(), rs.At(i, 2).AsDouble());
  }
}

TEST_F(EngineTest, FilterRecommendEquivalentToPostFilter) {
  // The optimizer's pushdown must not change results: compare against a run
  // with FilterRecommend disabled.
  const std::string sql =
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 2 AND R.iid IN (1,2,3,4,5,6,7,8) "
      "ORDER BY R.iid";
  auto optimized = Exec(sql);
  db_->mutable_planner_options()->enable_filter_recommend = false;
  db_->mutable_planner_options()->enable_index_recommend = false;
  auto naive = Exec(sql);
  db_->mutable_planner_options()->enable_filter_recommend = true;
  db_->mutable_planner_options()->enable_index_recommend = true;
  ASSERT_EQ(optimized.NumRows(), naive.NumRows());
  for (size_t i = 0; i < optimized.NumRows(); ++i) {
    EXPECT_EQ(optimized.At(i, 0).AsInt(), naive.At(i, 0).AsInt());
    EXPECT_DOUBLE_EQ(optimized.At(i, 1).AsDouble(),
                     naive.At(i, 1).AsDouble());
  }
  // And it must actually prune work.
  EXPECT_LT(optimized.stats.predictions, naive.stats.predictions);
}

TEST_F(EngineTest, FilterRecommendPlanIsChosen) {
  auto plan = db_->Explain(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 AND R.iid IN (1,2,3)");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("FilterRecommend"), std::string::npos)
      << plan.value();
}

TEST_F(EngineTest, Query4JoinRecommendMatchesNaiveJoin) {
  const std::string sql =
      "SELECT R.uid, M.name, R.ratingval FROM Ratings AS R, Movies AS M "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action' "
      "ORDER BY M.name";
  auto optimized = Exec(sql);
  auto plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("JoinRecommend"), std::string::npos)
      << plan.value();

  db_->mutable_planner_options()->enable_join_recommend = false;
  auto naive = Exec(sql);
  db_->mutable_planner_options()->enable_join_recommend = true;

  ASSERT_EQ(optimized.NumRows(), naive.NumRows());
  ASSERT_FALSE(optimized.rows.empty());
  for (size_t i = 0; i < optimized.NumRows(); ++i) {
    EXPECT_EQ(optimized.At(i, 1).AsString(), naive.At(i, 1).AsString());
    EXPECT_DOUBLE_EQ(optimized.At(i, 2).AsDouble(),
                     naive.At(i, 2).AsDouble());
  }
  EXPECT_LE(optimized.stats.predictions, naive.stats.predictions);
}

TEST_F(EngineTest, IndexRecommendServesMaterializedScores) {
  auto rec = db_->GetRecommender("GeneralRec");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec.value()->MaterializeAll().ok());

  const std::string sql =
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 7 ORDER BY R.ratingval DESC LIMIT 5";
  auto plan = db_->Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("IndexRecommend"), std::string::npos)
      << plan.value();

  auto indexed = Exec(sql);
  EXPECT_EQ(indexed.stats.index_hits, 1u);
  EXPECT_EQ(indexed.stats.predictions, 0u);  // no model work at query time

  db_->mutable_planner_options()->enable_index_recommend = false;
  auto computed = Exec(sql);
  db_->mutable_planner_options()->enable_index_recommend = true;

  ASSERT_EQ(indexed.NumRows(), computed.NumRows());
  for (size_t i = 0; i < indexed.NumRows(); ++i) {
    EXPECT_EQ(indexed.At(i, 0).AsInt(), computed.At(i, 0).AsInt());
    EXPECT_DOUBLE_EQ(indexed.At(i, 1).AsDouble(),
                     computed.At(i, 1).AsDouble());
  }
}

TEST_F(EngineTest, IndexRecommendFallsBackOnCacheMiss) {
  // The queried user is NOT materialized: IndexRecommend must fall back to
  // the model and still answer correctly. Materialize a different user so
  // the index is non-empty (an empty index suppresses the rewrite) and
  // force the operator past the cost pass, which would otherwise decline
  // it at zero coverage of user 9.
  auto rec = db_->GetRecommender("GeneralRec");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec.value()->MaterializeUser(3).ok());
  db_->mutable_planner_options()->enable_cost_based = false;

  const std::string sql =
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 9 ORDER BY R.ratingval DESC LIMIT 5";
  auto indexed = Exec(sql);
  db_->mutable_planner_options()->enable_cost_based = true;
  EXPECT_EQ(indexed.stats.index_misses, 1u);
  EXPECT_GT(indexed.stats.predictions, 0u);
  ASSERT_EQ(indexed.NumRows(), 5u);
  for (size_t i = 1; i < indexed.NumRows(); ++i) {
    EXPECT_GE(indexed.At(i - 1, 1).AsDouble(), indexed.At(i, 1).AsDouble());
  }
}

TEST_F(EngineTest, MultipleAlgorithmsCoexist) {
  Exec(
      "CREATE RECOMMENDER SvdRec ON Ratings USERS FROM uid ITEMS FROM iid "
      "RATINGS FROM ratingval USING SVD");
  auto cos = Exec(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 3");
  auto svd = Exec(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING SVD "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 3");
  ASSERT_EQ(cos.NumRows(), 3u);
  ASSERT_EQ(svd.NumRows(), 3u);
}

TEST_F(EngineTest, RecommendWithoutRecommenderFails) {
  auto r = db_->Execute(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING UserPearCF");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, DropRecommender) {
  Exec("DROP RECOMMENDER GeneralRec");
  auto r = db_->Execute(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF");
  EXPECT_FALSE(r.ok());
}

TEST_F(EngineTest, InsertFeedsRecommenderPendingUpdates) {
  auto rec = db_->GetRecommender("GeneralRec");
  ASSERT_TRUE(rec.ok());
  size_t before = rec.value()->live().delta_size();
  Exec("INSERT INTO Ratings VALUES (1, 40, 5.0)");
  EXPECT_EQ(rec.value()->live().delta_size(), before + 1);
}

TEST_F(EngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(db_->Execute("SELECT nope FROM Users").ok());
  EXPECT_FALSE(db_->Execute("SELECT name FROM NoSuchTable").ok());
  EXPECT_FALSE(db_->Execute("INSERT INTO Users VALUES (1)").ok());
  EXPECT_FALSE(
      db_->Execute("CREATE TABLE Users (uid INT)").ok());  // duplicate
  EXPECT_FALSE(db_->Execute(
                     "CREATE RECOMMENDER R2 ON Ratings USERS FROM bogus "
                     "ITEMS FROM iid RATINGS FROM ratingval")
                   .ok());
  // Ambiguous unqualified column across a join.
  EXPECT_FALSE(
      db_->Execute("SELECT uid FROM Users U, Ratings R WHERE U.uid = R.uid")
          .ok());
}

TEST_F(EngineTest, ExplainMakesTheChecksExecuteMakes) {
  // Explain() refuses what Execute() refuses: a closed database, and an
  // engine whose options failed validation.
  const std::string sql = "SELECT name FROM Users WHERE uid = 1";
  ASSERT_TRUE(db_->Explain(sql).ok());
  ASSERT_TRUE(db_->Close().ok());
  auto closed = db_->Explain(sql);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().ToString(), db_->Execute(sql).status().ToString());

  RecDBOptions bad;
  bad.shard_count = 2;
  bad.shard_index = 5;
  RecDB invalid(bad);
  auto plan = invalid.Explain(sql);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().ToString(), invalid.Execute(sql).status().ToString());
}

TEST_F(EngineTest, LimitZeroAndLargeLimit) {
  auto zero = Exec("SELECT name FROM Users ORDER BY uid LIMIT 0");
  EXPECT_EQ(zero.NumRows(), 0u);
  auto large = Exec("SELECT name FROM Users ORDER BY uid LIMIT 10000");
  EXPECT_EQ(large.NumRows(), 30u);
}

TEST_F(EngineTest, ArithmeticAndFunctionsInProjection) {
  auto rs = Exec("SELECT age + 2, age * 2, ABS(0 - age) FROM Users "
                 "WHERE uid = 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(rs.At(0, 0).AsInt(), 21);
  EXPECT_EQ(rs.At(0, 1).AsInt(), 38);
  EXPECT_EQ(rs.At(0, 2).AsInt(), 19);
}

}  // namespace
}  // namespace recdb
