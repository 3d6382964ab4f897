// DELETE / UPDATE / EXPLAIN statement tests, including how DML on a ratings
// table flows into live recommenders (the online-system property the paper's
// Section II architecture discussion calls for).
#include <gtest/gtest.h>

#include "api/recdb.h"

namespace recdb {
namespace {

class DmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    Exec("CREATE TABLE t (id INT, name TEXT, score DOUBLE)");
    Exec("INSERT INTO t VALUES (1, 'a', 1.0), (2, 'b', 2.0), (3, 'c', 3.0), "
         "(4, 'd', 4.0), (5, 'e', 5.0)");
  }

  ResultSet Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    if (!r.ok()) return ResultSet{};
    return std::move(r).value();
  }

  std::vector<int64_t> Ids() {
    auto rs = Exec("SELECT id FROM t ORDER BY id");
    std::vector<int64_t> out;
    for (const auto& row : rs.rows) out.push_back(row.At(0).AsInt());
    return out;
  }

  std::unique_ptr<RecDB> db_;
};

TEST_F(DmlTest, DeleteWithPredicate) {
  auto rs = Exec("DELETE FROM t WHERE score > 3.5");
  EXPECT_NE(rs.message.find("deleted 2 rows"), std::string::npos);
  EXPECT_EQ(Ids(), (std::vector<int64_t>{1, 2, 3}));
}

TEST_F(DmlTest, DeleteAllAndFromEmpty) {
  Exec("DELETE FROM t");
  EXPECT_TRUE(Ids().empty());
  auto rs = Exec("DELETE FROM t");  // idempotent on empty table
  EXPECT_NE(rs.message.find("deleted 0 rows"), std::string::npos);
}

TEST_F(DmlTest, UpdateSingleColumn) {
  Exec("UPDATE t SET score = 9.5 WHERE id = 2");
  auto rs = Exec("SELECT score FROM t WHERE id = 2");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_DOUBLE_EQ(rs.At(0, 0).AsDouble(), 9.5);
}

TEST_F(DmlTest, UpdateSelfReferencingExpression) {
  Exec("UPDATE t SET score = score * 2 + 1");
  auto rs = Exec("SELECT score FROM t ORDER BY id");
  ASSERT_EQ(rs.NumRows(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(rs.At(i, 0).AsDouble(), (i + 1) * 2.0 + 1.0);
  }
}

TEST_F(DmlTest, UpdateMultipleColumnsWithCast) {
  Exec("UPDATE t SET name = 'renamed', score = 7 WHERE id IN (1, 3)");
  auto rs = Exec("SELECT name, score FROM t WHERE id IN (1, 3)");
  ASSERT_EQ(rs.NumRows(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rs.At(i, 0).AsString(), "renamed");
    EXPECT_DOUBLE_EQ(rs.At(i, 1).AsDouble(), 7.0);  // int 7 cast to DOUBLE
  }
}

TEST_F(DmlTest, UpdateGrowingStringRelocatesTuple) {
  Exec("UPDATE t SET name = 'a much longer name than before, surely "
       "relocated to a fresh slot' WHERE id = 1");
  auto rs = Exec("SELECT name FROM t WHERE id = 1");
  ASSERT_EQ(rs.NumRows(), 1u);
  EXPECT_EQ(Ids().size(), 5u);  // no duplicate or lost rows
}

TEST_F(DmlTest, ErrorsSurface) {
  EXPECT_FALSE(db_->Execute("DELETE FROM nosuch").ok());
  EXPECT_FALSE(db_->Execute("UPDATE t SET nosuch = 1").ok());
  EXPECT_FALSE(db_->Execute("UPDATE t SET score = 'xyz'").ok());  // bad cast
  EXPECT_FALSE(db_->Execute("EXPLAIN INSERT INTO t VALUES (9,'x',0)").ok());
}

TEST_F(DmlTest, ExplainStatement) {
  auto rs = Exec("EXPLAIN SELECT id FROM t WHERE score > 2 ORDER BY id");
  ASSERT_EQ(rs.columns, (std::vector<std::string>{"plan"}));
  ASSERT_FALSE(rs.rows.empty());
  std::string all;
  for (const auto& row : rs.rows) all += row.At(0).AsString() + "\n";
  EXPECT_NE(all.find("SeqScan"), std::string::npos) << all;
  EXPECT_NE(all.find("Sort"), std::string::npos) << all;
}

class RatingsDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    ASSERT_TRUE(db_->Execute(
                       "CREATE TABLE Ratings (uid INT, iid INT, "
                       "ratingval DOUBLE)")
                    .ok());
    ASSERT_TRUE(db_->Execute("INSERT INTO Ratings VALUES "
                             "(1,1,4.0), (1,2,3.0), (2,1,5.0), (2,3,2.0), "
                             "(3,2,1.0), (3,3,4.0)")
                    .ok());
    ASSERT_TRUE(db_->Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                             "ITEMS FROM iid RATINGS FROM ratingval")
                    .ok());
    rec_ = db_->GetRecommender("r").value();
  }

  std::unique_ptr<RecDB> db_;
  Recommender* rec_ = nullptr;
};

TEST_F(RatingsDmlTest, DeleteRemovesFromLiveMatrix) {
  ASSERT_TRUE(rec_->live().Get(1, 2).has_value());
  ASSERT_TRUE(db_->Execute("DELETE FROM Ratings WHERE uid = 1 AND iid = 2")
                  .ok());
  EXPECT_FALSE(rec_->live().Get(1, 2).has_value());
  EXPECT_EQ(rec_->live().NumRatings(), 5u);
  EXPECT_EQ(rec_->live().delta_size(), 1u);
}

TEST_F(RatingsDmlTest, UpdateRewritesLiveRating) {
  ASSERT_TRUE(
      db_->Execute("UPDATE Ratings SET ratingval = 1.5 WHERE uid = 2 AND "
                   "iid = 1")
          .ok());
  EXPECT_DOUBLE_EQ(rec_->live().Get(2, 1).value(), 1.5);
  EXPECT_EQ(rec_->live().NumRatings(), 6u);
}

TEST_F(RatingsDmlTest, UpdateMovingRatingToOtherItem) {
  ASSERT_TRUE(db_->Execute(
                     "UPDATE Ratings SET iid = 9 WHERE uid = 3 AND iid = 3")
                  .ok());
  EXPECT_FALSE(rec_->live().Get(3, 3).has_value());
  EXPECT_DOUBLE_EQ(rec_->live().Get(3, 9).value(), 4.0);
  EXPECT_EQ(rec_->live().NumRatings(), 6u);
}

TEST_F(RatingsDmlTest, RebuildAfterDeletesReflectsRemovals) {
  ASSERT_TRUE(db_->Execute("DELETE FROM Ratings WHERE uid = 1").ok());
  ASSERT_TRUE(rec_->Build().ok());
  EXPECT_EQ(rec_->model()->ratings().NumRatings(), 4u);
  EXPECT_FALSE(rec_->model()->ratings().Get(1, 1).has_value());
}

// Regression: a BulkInsert whose row k failed its cast left rows 0..k-1 in
// the heap (and committed them to the WAL) without feeding them to the
// recommenders; SQL INSERT fed its landed prefix. Both now share one
// row-landing loop, so the matrix holds exactly the rows the table holds.
TEST_F(RatingsDmlTest, FailedBulkInsertFeedsTheRowsItLanded) {
  std::vector<std::vector<Value>> rows = {
      {Value::Int(10), Value::Int(1), Value::Double(4.0)},
      {Value::Int(11), Value::Int(1), Value::Double(3.0)},
      {Value::String("x"), Value::Int(1), Value::Double(2.0)}};
  EXPECT_FALSE(db_->BulkInsert("Ratings", rows).ok());
  auto count = db_->Execute("SELECT uid FROM Ratings WHERE uid >= 10");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows.size(), 2u);
  EXPECT_EQ(rec_->live().Get(10, 1), std::optional<double>(4.0));
  EXPECT_EQ(rec_->live().Get(11, 1), std::optional<double>(3.0));

  // The SQL path lands and feeds the same prefix.
  EXPECT_FALSE(
      db_->Execute("INSERT INTO Ratings VALUES (12, 2, 5.0), ('y', 2, 1.0)")
          .ok());
  EXPECT_EQ(rec_->live().Get(12, 2), std::optional<double>(5.0));
  EXPECT_EQ(rec_->live().NumRatings(), 9u);
}

TEST(RatingMatrixRemoveTest, RemoveBookkeeping) {
  RatingMatrix m;
  m.Add(1, 1, 4.0);
  m.Add(1, 2, 2.0);
  EXPECT_NEAR(m.GlobalMean(), 3.0, 1e-12);
  EXPECT_TRUE(m.Remove(1, 1));
  EXPECT_FALSE(m.Remove(1, 1));
  EXPECT_FALSE(m.Remove(9, 9));
  EXPECT_EQ(m.NumRatings(), 1u);
  EXPECT_NEAR(m.GlobalMean(), 2.0, 1e-12);
  auto u = m.UserIndex(1).value();
  EXPECT_EQ(m.UserCsrRow(u).n, 1u);
}

}  // namespace
}  // namespace recdb
