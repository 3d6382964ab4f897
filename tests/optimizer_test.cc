// Optimizer tests: every rewrite rule's firing conditions and plan shapes,
// rule toggles, and end-to-end result equivalence between optimized and
// unoptimized plans on randomized queries (property-style).
#include <gtest/gtest.h>

#include "api/recdb.h"
#include "common/rng.h"

namespace recdb {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    Exec("CREATE TABLE Movies (mid INT, name TEXT, genre TEXT)");
    Exec("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)");
    Exec("CREATE TABLE Users (uid INT, name TEXT, age INT)");
    Rng rng(31);
    std::vector<std::vector<Value>> movies, ratings, users;
    for (int m = 1; m <= 30; ++m) {
      movies.push_back({Value::Int(m), Value::String("m" + std::to_string(m)),
                        Value::String(m % 4 == 0 ? "Action" : "Other")});
    }
    for (int u = 1; u <= 20; ++u) {
      users.push_back({Value::Int(u), Value::String("u" + std::to_string(u)),
                       Value::Int(20 + u)});
      for (int k = 0; k < 8; ++k) {
        ratings.push_back({Value::Int(u), Value::Int(rng.UniformInt(1, 30)),
                           Value::Double(rng.UniformInt(1, 5))});
      }
    }
    ASSERT_TRUE(db_->BulkInsert("Movies", movies).ok());
    ASSERT_TRUE(db_->BulkInsert("Users", users).ok());
    ASSERT_TRUE(db_->BulkInsert("Ratings", ratings).ok());
    Exec("CREATE RECOMMENDER r ON Ratings USERS FROM uid ITEMS FROM iid "
         "RATINGS FROM ratingval USING ItemCosCF");
  }

  ResultSet Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    if (!r.ok()) return ResultSet{};
    return std::move(r).value();
  }

  std::string Plan(const std::string& sql) {
    auto p = db_->Explain(sql);
    EXPECT_TRUE(p.ok()) << sql << " -> " << p.status();
    return p.value_or("");
  }

  std::unique_ptr<RecDB> db_;
};

TEST_F(OptimizerTest, UidPushdownMakesFilterRecommend) {
  std::string plan = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3");
  EXPECT_NE(plan.find("FilterRecommend"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Filter\n"), std::string::npos)
      << "residual filter should be gone: " << plan;
}

TEST_F(OptimizerTest, MixedPredicateLeavesResidualFilter) {
  // ratingval predicate is not pushable into the operator; it must remain
  // as a residual filter above a FilterRecommend.
  std::string plan = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3 AND R.ratingval > 2.5");
  EXPECT_NE(plan.find("FilterRecommend"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, NegatedInListIsNotPushed) {
  std::string plan = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.iid NOT IN (1,2,3)");
  // NOT IN cannot become an id list; the Recommend node stays unfiltered.
  EXPECT_EQ(plan.find("FilterRecommend"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Filter"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, IntersectingUserPredicates) {
  // uid = 3 AND uid IN (3, 4) -> FilterRecommend with users={3}.
  auto rs = Exec(
      "SELECT R.uid, R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3 AND R.uid IN (3, 4)");
  for (const auto& row : rs.rows) {
    EXPECT_EQ(row.At(0).AsInt(), 3);
  }
  // Contradictory predicates produce an empty result, not an error.
  auto empty = Exec(
      "SELECT R.uid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3 AND R.uid = 4");
  EXPECT_EQ(empty.NumRows(), 0u);
}

TEST_F(OptimizerTest, EqJoinBecomesHashJoin) {
  std::string plan = Plan(
      "SELECT U.name, M.name FROM Users U, Movies M "
      "WHERE U.uid = M.mid AND M.genre = 'Action'");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("NestedLoopJoin"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, NonEqJoinStaysNestedLoop) {
  std::string plan =
      Plan("SELECT U.name FROM Users U, Movies M WHERE U.uid < M.mid");
  EXPECT_NE(plan.find("NestedLoopJoin"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, HashJoinDisabledFallsBack) {
  db_->mutable_planner_options()->enable_hash_join = false;
  std::string plan = Plan(
      "SELECT U.name, M.name FROM Users U, Movies M WHERE U.uid = M.mid");
  EXPECT_EQ(plan.find("HashJoin"), std::string::npos) << plan;
  db_->mutable_planner_options()->enable_hash_join = true;
}

TEST_F(OptimizerTest, JoinRecommendRequiresUserPredicate) {
  // Without a uid filter the JoinRecommend rewrite must not fire.
  std::string plan = Plan(
      "SELECT M.name, R.ratingval FROM Ratings AS R, Movies AS M "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE M.mid = R.iid AND M.genre = 'Action'");
  EXPECT_EQ(plan.find("JoinRecommend"), std::string::npos) << plan;
  // With it, it must.
  std::string plan2 = Plan(
      "SELECT M.name, R.ratingval FROM Ratings AS R, Movies AS M "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 AND M.mid = R.iid AND M.genre = 'Action'");
  EXPECT_NE(plan2.find("JoinRecommend"), std::string::npos) << plan2;
}

TEST_F(OptimizerTest, JoinRecommendFiresWithTablesInEitherOrder) {
  // The recommend side may be the right child of the join; results must be
  // identical either way (a permutation projection restores column order).
  const char* sql_rec_first =
      "SELECT M.name, R.ratingval FROM Ratings AS R, Movies AS M "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 2 AND M.mid = R.iid AND M.genre = 'Action' "
      "ORDER BY M.name";
  const char* sql_rec_second =
      "SELECT M.name, R.ratingval FROM Movies AS M, Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 2 AND M.mid = R.iid AND M.genre = 'Action' "
      "ORDER BY M.name";
  std::string p1 = Plan(sql_rec_first), p2 = Plan(sql_rec_second);
  EXPECT_NE(p1.find("JoinRecommend"), std::string::npos) << p1;
  EXPECT_NE(p2.find("JoinRecommend"), std::string::npos) << p2;
  auto r1 = Exec(sql_rec_first);
  auto r2 = Exec(sql_rec_second);
  ASSERT_EQ(r1.NumRows(), r2.NumRows());
  ASSERT_GT(r1.NumRows(), 0u);
  for (size_t i = 0; i < r1.NumRows(); ++i) {
    EXPECT_EQ(r1.At(i, 0).AsString(), r2.At(i, 0).AsString());
    EXPECT_DOUBLE_EQ(r1.At(i, 1).AsDouble(), r2.At(i, 1).AsDouble());
  }
}

TEST_F(OptimizerTest, TopNBecomesIndexRecommendOnlyForScoreDesc) {
  // Materialize the queried user so the rewrite is cost-justified (an empty
  // index short-circuits the rule; zero coverage makes the cost pass
  // decline it — both covered by dedicated tests below).
  auto rec = db_->GetRecommender("r");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec.value()->MaterializeUser(1).ok());

  std::string desc_score = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5");
  EXPECT_NE(desc_score.find("IndexRecommend"), std::string::npos)
      << desc_score;

  std::string asc_score = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval ASC LIMIT 5");
  EXPECT_EQ(asc_score.find("IndexRecommend"), std::string::npos) << asc_score;

  std::string by_item = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.iid DESC LIMIT 5");
  EXPECT_EQ(by_item.find("IndexRecommend"), std::string::npos) << by_item;

  std::string no_limit = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC");
  EXPECT_EQ(no_limit.find("IndexRecommend"), std::string::npos) << no_limit;
}

TEST_F(OptimizerTest, FilterPushdownThroughJoinToBaseTables) {
  std::string plan = Plan(
      "SELECT U.name, M.name FROM Users U, Movies M "
      "WHERE U.uid = M.mid AND U.age > 30 AND M.genre = 'Action'");
  // Both single-table predicates must sit below the join, each on its
  // table's scan: the scan evaluates it and no Filter node remains.
  size_t join_pos = plan.find("HashJoin");
  ASSERT_NE(join_pos, std::string::npos) << plan;
  EXPECT_NE(plan.find("SeqScan Users as U where (U.age > 30)", join_pos),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("SeqScan Movies as M where (M.genre = 'Action')",
                      join_pos),
            std::string::npos)
      << plan;
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;
}

// --- cost-based phase (requires ANALYZE statistics) ---

TEST_F(OptimizerTest, ItemPushdownFlipsWithSelectivity) {
  // 28 of 30 items: pushing the list probes nearly the whole catalog per
  // user, so after ANALYZE the cost pass prefers a full Recommend with a
  // post-filter (paper Fig. 6 crossover). 3 of 30 stays pushed.
  std::string wide_list = "1";
  for (int m = 2; m <= 28; ++m) wide_list += "," + std::to_string(m);
  const std::string wide_sql =
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.iid IN (" + wide_list + ")";
  const std::string narrow_sql =
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.iid IN (1,2,3)";

  // Without statistics the rule-only plan stands, even for the wide list.
  std::string before = Plan(wide_sql);
  EXPECT_NE(before.find("FilterRecommend"), std::string::npos) << before;

  auto before_rows = Exec(wide_sql);
  Exec("ANALYZE Ratings");

  std::string after = Plan(wide_sql);
  EXPECT_EQ(after.find("FilterRecommend"), std::string::npos) << after;
  EXPECT_NE(after.find("Filter"), std::string::npos) << after;
  EXPECT_NE(after.find("Recommend"), std::string::npos) << after;

  // The selective list is still cheaper pushed down.
  std::string narrow = Plan(narrow_sql);
  EXPECT_NE(narrow.find("FilterRecommend"), std::string::npos) << narrow;

  // Same answer either way.
  auto after_rows = Exec(wide_sql);
  ASSERT_EQ(before_rows.NumRows(), after_rows.NumRows());
}

TEST_F(OptimizerTest, IndexRecommendDeclinedAtLowCoverage) {
  // The index holds user 5 only; querying user 1 would fall back to the
  // model for every lookup, so the cost pass declines the rewrite...
  auto rec = db_->GetRecommender("r");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec.value()->MaterializeUser(5).ok());
  const std::string sql =
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 1 ORDER BY R.ratingval DESC LIMIT 5";
  std::string declined = Plan(sql);
  EXPECT_EQ(declined.find("IndexRecommend"), std::string::npos) << declined;
  EXPECT_NE(declined.find("TopN"), std::string::npos) << declined;

  // ...with cost-based planning off, the rule fires unconditionally...
  db_->mutable_planner_options()->enable_cost_based = false;
  std::string forced = Plan(sql);
  EXPECT_NE(forced.find("IndexRecommend"), std::string::npos) << forced;
  db_->mutable_planner_options()->enable_cost_based = true;

  // ...and once the queried user is covered the index wins on cost too.
  ASSERT_TRUE(rec.value()->MaterializeUser(1).ok());
  std::string kept = Plan(sql);
  EXPECT_NE(kept.find("IndexRecommend"), std::string::npos) << kept;
}

TEST_F(OptimizerTest, ExplainShowsOptionsHeaderAndEstimates) {
  std::string plan = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3");
  EXPECT_EQ(plan.rfind("options: ", 0), 0u) << plan;
  EXPECT_NE(plan.find("cost_based=on"), std::string::npos) << plan;
  EXPECT_NE(plan.find("parallelism="), std::string::npos) << plan;
  EXPECT_NE(plan.find("est="), std::string::npos) << plan;
  EXPECT_EQ(plan.find("act="), std::string::npos)
      << "plain EXPLAIN must not execute: " << plan;

  // With cost-based planning off, no estimates are annotated.
  db_->mutable_planner_options()->enable_cost_based = false;
  std::string bare = Plan(
      "SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3");
  EXPECT_EQ(bare.find("est="), std::string::npos) << bare;
  EXPECT_NE(bare.find("cost_based=off"), std::string::npos) << bare;
  db_->mutable_planner_options()->enable_cost_based = true;
}

TEST_F(OptimizerTest, ExplainAnalyzeShowsActualRows) {
  Exec("ANALYZE");
  auto rs = Exec(
      "EXPLAIN ANALYZE SELECT R.iid FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 3 ORDER BY R.ratingval DESC LIMIT 5");
  std::string text;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    text += rs.At(i, 0).AsString() + "\n";
  }
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("act=5"), std::string::npos) << text;
}

// Property-style sweep: random conjunctive queries must return identical
// results with every optimization enabled vs all disabled.
class OptimizerEquivalenceTest : public OptimizerTest,
                                 public ::testing::WithParamInterface<int> {};

TEST_P(OptimizerEquivalenceTest, OptimizedMatchesNaive) {
  Rng rng(1000 + GetParam());
  // Random query pieces.
  int64_t uid = rng.UniformInt(1, 20);
  std::vector<int64_t> items;
  for (int k = 0; k < 4; ++k) items.push_back(rng.UniformInt(1, 30));
  std::string in_list;
  for (size_t i = 0; i < items.size(); ++i) {
    in_list += (i ? "," : "") + std::to_string(items[i]);
  }
  bool with_join = rng.Bernoulli(0.5);
  bool with_topk = rng.Bernoulli(0.5);
  bool with_inlist = rng.Bernoulli(0.5);

  std::string sql = "SELECT R.uid, R.iid, R.ratingval";
  if (with_join) sql += ", M.name";
  sql += " FROM Ratings AS R";
  if (with_join) sql += ", Movies AS M";
  sql += " RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF";
  sql += " WHERE R.uid = " + std::to_string(uid);
  if (with_join) sql += " AND M.mid = R.iid AND M.genre = 'Action'";
  if (with_inlist) sql += " AND R.iid IN (" + in_list + ")";
  sql += " ORDER BY R.ratingval DESC, R.iid";
  if (with_topk) sql += " LIMIT 7";

  auto optimized = Exec(sql);
  PlannerOptions* opts = db_->mutable_planner_options();
  opts->enable_filter_recommend = false;
  opts->enable_join_recommend = false;
  opts->enable_index_recommend = false;
  opts->enable_hash_join = false;
  auto naive = Exec(sql);
  *opts = PlannerOptions{};

  ASSERT_EQ(optimized.NumRows(), naive.NumRows()) << sql;
  for (size_t i = 0; i < optimized.NumRows(); ++i) {
    ASSERT_EQ(optimized.rows[i].NumValues(), naive.rows[i].NumValues());
    for (size_t c = 0; c < optimized.rows[i].NumValues(); ++c) {
      EXPECT_EQ(optimized.At(i, c), naive.At(i, c))
          << sql << " row " << i << " col " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQueries, OptimizerEquivalenceTest,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace recdb
