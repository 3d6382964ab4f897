// Predicate-carrying heap scans: a scan that evaluates its predicate over
// masked decodes must return exactly what decoding every row and calling
// BoundExpr::EvalPredicate on it returns — the same rows, rids, order and
// Status — over random predicates, random heaps and small buffer pools.
// Also: errors surface per row (a LIMIT stops before a later failing row),
// a corrupt column the predicate does not read still fails its page, and
// the optimizer fuses Filter-over-SeqScan and zero-width COUNT(*) scans.
#include <gtest/gtest.h>

#include <iterator>
#include <set>

#include "api/recdb.h"
#include "common/rng.h"
#include "planner/expression.h"
#include "storage/buffer_pool.h"
#include "storage/table_heap.h"

namespace recdb {
namespace {

// Columns: 0 INT id, 1 INT with NULLs, 2 DOUBLE with NULLs, 3 TEXT with
// NULLs, 4 any of INT / DOUBLE / TEXT / NULL (cross-type compares).
constexpr size_t kCols = 5;

std::string RandomText(Rng& rng, int64_t max_len) {
  std::string s;
  const int64_t len = rng.UniformInt(0, max_len);
  for (int64_t i = 0; i < len; ++i) {
    s += static_cast<char>('a' + rng.UniformInt(0, 2));
  }
  return s;
}

Value RandomConstant(Rng& rng) {
  switch (rng.UniformInt(0, 5)) {
    case 0:
      return Value::Null();
    case 1:
    case 2:
      return Value::Int(rng.UniformInt(-5, 5));
    case 3:
      return Value::Double(rng.UniformInt(-10, 10) / 2.0);
    default:
      return Value::String(RandomText(rng, 2));
  }
}

Tuple RandomRow(Rng& rng, int64_t id) {
  std::vector<Value> v(kCols);
  v[0] = Value::Int(id);
  if (rng.UniformInt(0, 4) > 0) v[1] = Value::Int(rng.UniformInt(-5, 5));
  if (rng.UniformInt(0, 4) > 0) {
    v[2] = Value::Double(rng.UniformInt(-10, 10) / 2.0);
  }
  // Long strings make updates displace rows to other pages.
  if (rng.UniformInt(0, 4) > 0) v[3] = Value::String(RandomText(rng, 40));
  v[4] = RandomConstant(rng);
  return Tuple(std::move(v));
}

BoundExprPtr RandomComparison(Rng& rng) {
  static const BinaryOp kOps[] = {BinaryOp::kEq, BinaryOp::kNe,
                                  BinaryOp::kLt, BinaryOp::kLe,
                                  BinaryOp::kGt, BinaryOp::kGe};
  const BinaryOp op = kOps[rng.UniformInt(0, 5)];
  auto col = BoundExpr::MakeColumn(rng.UniformInt(1, kCols - 1));
  BoundExprPtr other =
      rng.Bernoulli(0.3)
          ? BoundExpr::MakeColumn(rng.UniformInt(0, kCols - 1))
          : BoundExpr::MakeConstant(RandomConstant(rng));
  if (rng.Bernoulli(0.5)) std::swap(col, other);
  return BoundExpr::MakeBinary(op, std::move(col), std::move(other));
}

BoundExprPtr RandomPredicate(Rng& rng, int depth) {
  const int64_t pick = rng.UniformInt(0, depth > 0 ? 7 : 3);
  if (pick <= 1) return RandomComparison(rng);
  if (pick == 2) {
    auto e = std::make_unique<BoundExpr>();
    e->kind = BoundExprKind::kInList;
    e->negated = rng.Bernoulli(0.5);
    e->left = BoundExpr::MakeColumn(rng.UniformInt(1, kCols - 1));
    const int64_t n = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < n; ++i) e->in_values.push_back(RandomConstant(rng));
    return e;
  }
  if (pick == 3) {
    // ABS(col) >= k: errors on a TEXT operand, so Statuses get compared.
    auto abs = std::make_unique<BoundExpr>();
    abs->kind = BoundExprKind::kFunction;
    abs->func = ScalarFunction::kAbs;
    abs->args.push_back(BoundExpr::MakeColumn(rng.Bernoulli(0.8) ? 1 : 4));
    return BoundExpr::MakeBinary(BinaryOp::kGe, std::move(abs),
                                 BoundExpr::MakeConstant(
                                     Value::Int(rng.UniformInt(0, 4))));
  }
  if (pick == 4) {
    auto e = std::make_unique<BoundExpr>();
    e->kind = BoundExprKind::kNot;
    e->left = RandomPredicate(rng, depth - 1);
    return e;
  }
  return BoundExpr::MakeBinary(
      rng.Bernoulli(0.5) ? BinaryOp::kAnd : BinaryOp::kOr,
      RandomPredicate(rng, depth - 1), RandomPredicate(rng, depth - 1));
}

struct RidLess {
  bool operator()(const Rid& a, const Rid& b) const {
    return a.page_id != b.page_id ? a.page_id < b.page_id : a.slot < b.slot;
  }
};
using RidSet = std::set<Rid, RidLess>;

/// What a scan produced: rows until the end or the first error.
struct ScanOutcome {
  std::vector<std::pair<Rid, Tuple>> rows;
  Status status;
};

ScanOutcome DrainScan(const TableHeap& heap, const BufferPool& pool,
                      ScanSpec spec, uint64_t* examined) {
  ScanOutcome out;
  auto it = heap.Begin(kCols, spec);
  while (true) {
    auto next = it.Next();
    EXPECT_EQ(pool.NumPinned(), 0u);  // no pin held between calls
    if (!next.ok()) {
      out.status = next.status();
      break;
    }
    if (!next.value().has_value()) break;
    out.rows.push_back(std::move(*next.value()));
  }
  if (examined != nullptr) *examined = it.rows_examined();
  return out;
}

/// The reference: every live row in (page, slot) order, decoded whole
/// through TableHeap::Get, then EvalPredicate.
ScanOutcome DecodeEveryRow(const TableHeap& heap, const RidSet& live,
                           const BoundExpr& pred, uint64_t* examined) {
  ScanOutcome out;
  *examined = 0;
  for (const Rid& rid : live) {
    auto row = heap.Get(rid, kCols);
    EXPECT_TRUE(row.ok()) << row.status();
    ++*examined;
    auto pass = pred.EvalPredicate(row.value());
    if (!pass.ok()) {
      out.status = pass.status();
      break;
    }
    if (pass.value()) out.rows.emplace_back(rid, std::move(row).value());
  }
  return out;
}

class FusedScanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FusedScanTest, FusedScanEqualsFilterOverFullDecode) {
  const size_t pool_pages = GetParam();
  InMemoryDiskManager disk;
  BufferPool pool(pool_pages, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  TableHeap& heap = *heap_res.value();

  Rng rng(2600 + pool_pages);
  RidSet live;
  int64_t next_id = 0;
  size_t displaced = 0, errors = 0, nonempty = 0;
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 300; ++step) {
      const int64_t op = rng.UniformInt(0, 99);
      auto pick = [&] {
        auto it = live.begin();
        std::advance(it, rng.UniformInt(
                             0, static_cast<int64_t>(live.size()) - 1));
        return *it;
      };
      if (op < 60 || live.empty()) {
        auto rid = heap.Insert(RandomRow(rng, next_id++));
        ASSERT_TRUE(rid.ok());
        live.insert(rid.value());
      } else if (op < 80) {
        const Rid rid = pick();
        ASSERT_TRUE(heap.Delete(rid).ok());
        live.erase(rid);
      } else {
        const Rid rid = pick();
        auto new_rid = heap.Update(rid, RandomRow(rng, next_id++));
        ASSERT_TRUE(new_rid.ok());
        if (!(new_rid.value() == rid)) ++displaced;
        live.erase(rid);
        live.insert(new_rid.value());
      }
    }
    for (int trial = 0; trial < 40; ++trial) {
      BoundExprPtr pred = RandomPredicate(rng, 3);
      uint64_t want_examined = 0, got_examined = 0;
      ScanOutcome want = DecodeEveryRow(heap, live, *pred, &want_examined);
      ScanOutcome got =
          DrainScan(heap, pool, ScanSpec{pred.get()}, &got_examined);
      EXPECT_EQ(got.status.ToString(), want.status.ToString()) << trial;
      ASSERT_EQ(got.rows.size(), want.rows.size()) << trial;
      for (size_t i = 0; i < want.rows.size(); ++i) {
        EXPECT_EQ(got.rows[i].first.ToString(), want.rows[i].first.ToString());
        EXPECT_EQ(got.rows[i].second, want.rows[i].second) << trial;
      }
      EXPECT_EQ(got_examined, want_examined) << trial;

      // Zero-width: the same rids and Status, no columns.
      ScanOutcome bare = DrainScan(
          heap, pool, ScanSpec{pred.get(), /*emit_columns=*/false}, nullptr);
      EXPECT_EQ(bare.status.ToString(), want.status.ToString());
      ASSERT_EQ(bare.rows.size(), want.rows.size());
      for (size_t i = 0; i < want.rows.size(); ++i) {
        EXPECT_EQ(bare.rows[i].first.ToString(),
                  want.rows[i].first.ToString());
        EXPECT_EQ(bare.rows[i].second.NumValues(), 0u);
      }
      errors += want.status.ok() ? 0 : 1;
      nonempty += want.rows.empty() ? 0 : 1;
    }
  }
  // The generator must have exercised what it claims to.
  EXPECT_GT(displaced, 0u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(nonempty, 40u);
  std::set<page_id_t> pages;
  for (const Rid& rid : live) pages.insert(rid.page_id);
  if (pool_pages <= 8) EXPECT_GT(pages.size(), pool_pages);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, FusedScanTest,
                         ::testing::Values(3, 8, 64));

// A corrupt column the predicate never reads still fails the scan, and
// nothing of the corrupt slot's page is served, whether or not the row
// would have passed.
TEST(FusedScanCorruptionTest, CorruptUnreadColumnFailsThePage) {
  InMemoryDiskManager disk;
  BufferPool pool(8, &disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  TableHeap& heap = *heap_res.value();
  std::vector<Rid> rids;
  for (int64_t k = 0; k < 6; ++k) {
    auto rid = heap.Insert(Tuple({Value::Int(k), Value::Int(k),
                                  Value::Double(0.5), Value::String("abc"),
                                  Value::Int(1)}));
    ASSERT_TRUE(rid.ok());
    rids.push_back(rid.value());
  }
  ASSERT_EQ(rids.front().page_id, rids.back().page_id);
  {
    // Column 3's type byte follows three 9-byte fixed-width columns.
    auto guard = pool.FetchGuard(rids[4].page_id);
    ASSERT_TRUE(guard.ok());
    TablePage tp(guard.value().page());
    auto bytes = tp.Get(rids[4].slot);
    ASSERT_TRUE(bytes.ok());
    const_cast<uint8_t*>(bytes.value().first)[27] = 0x7f;
    guard.value().MarkDirty();
  }
  const auto c0 = [] { return BoundExpr::MakeColumn(0); };
  const auto k = [](int64_t v) { return BoundExpr::MakeConstant(Value::Int(v)); };
  auto rejects_all = BoundExpr::MakeBinary(BinaryOp::kLt, c0(), k(0));
  auto passes_all = BoundExpr::MakeBinary(BinaryOp::kGe, c0(), k(0));
  for (ScanSpec spec : {ScanSpec{rejects_all.get()}, ScanSpec{passes_all.get()},
                        ScanSpec{nullptr, /*emit_columns=*/false},
                        ScanSpec{}}) {
    ScanOutcome got = DrainScan(heap, pool, spec, nullptr);
    EXPECT_EQ(got.status.code(), StatusCode::kInternal) << got.status;
    EXPECT_NE(got.status.message().find("bad type byte"), std::string::npos)
        << got.status;
    EXPECT_TRUE(got.rows.empty()) << "rows of the corrupt page were served";
  }
  EXPECT_FALSE(heap.Get(rids[4], kCols).ok());
}

// --- through SQL --------------------------------------------------------

class FusedScanSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<RecDB>();
    Exec("CREATE TABLE t (a INT, b TEXT)");
    Exec("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z'), (4, 'y')");
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

// The predicate fails on row 3 (division by zero). A LIMIT satisfied before
// row 3 returns its rows, as Limit over Filter over SeqScan does: the scan
// evaluates the predicate one row per Next(), never a page in bulk.
TEST_F(FusedScanSqlTest, PredicateErrorAfterLimitIsNeverRaised) {
  const std::string where = "SELECT a FROM t WHERE 10 / (3 - a) > 0";
  std::string plan = Plan(where + " LIMIT 1");
  EXPECT_NE(plan.find("SeqScan t as t where"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Filter"), std::string::npos) << plan;

  auto one = Exec(where + " LIMIT 1");
  ASSERT_EQ(one.NumRows(), 1u);
  EXPECT_EQ(one.At(0, 0).AsInt(), 1);
  auto two = Exec(where + " LIMIT 2");
  ASSERT_EQ(two.NumRows(), 2u);
  EXPECT_EQ(two.At(1, 0).AsInt(), 2);
  for (const std::string& sql : {where, where + " LIMIT 3"}) {
    auto r = db_->Execute(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError) << r.status();
  }
}

TEST_F(FusedScanSqlTest, CountStarScansZeroWidthAndCountsEverySlot) {
  std::string plan = Plan("SELECT COUNT(*) FROM t WHERE b = 'y'");
  EXPECT_NE(plan.find("SeqScan t as t where (t.b = 'y') columns=none"),
            std::string::npos)
      << plan;
  auto all = Exec("SELECT COUNT(*) FROM t");
  EXPECT_EQ(all.At(0, 0).AsInt(), 4);
  auto ys = Exec("SELECT COUNT(*) FROM t WHERE b = 'y'");
  EXPECT_EQ(ys.At(0, 0).AsInt(), 2);
  // tuples_scanned counts every live slot examined, passing or not.
  EXPECT_EQ(ys.stats.tuples_scanned, 4u);
  // A COUNT of a column reads it: that scan still emits columns.
  plan = Plan("SELECT COUNT(b) FROM t");
  EXPECT_EQ(plan.find("columns=none"), std::string::npos) << plan;
  EXPECT_EQ(Exec("SELECT COUNT(b) FROM t").At(0, 0).AsInt(), 4);
}

TEST_F(FusedScanSqlTest, ExplainAnalyzeCountsEmittedRowsOnTheScan) {
  Exec("ANALYZE t");
  auto rs = Exec("EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 3");
  std::string text;
  for (size_t i = 0; i < rs.NumRows(); ++i) {
    text += rs.At(i, 0).AsString() + "\n";
  }
  const size_t scan = text.find("SeqScan t as t where (t.a >= 3)");
  ASSERT_NE(scan, std::string::npos) << text;
  EXPECT_NE(text.find("act=2)", scan), std::string::npos) << text;
}

TEST_F(FusedScanSqlTest, DeleteAndUpdateTakeTheScanPredicate) {
  Exec("UPDATE t SET b = 'w' WHERE b = 'y'");
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t WHERE b = 'w'").At(0, 0).AsInt(), 2);
  Exec("DELETE FROM t WHERE a > 2");
  auto rs = Exec("SELECT a, b FROM t");
  ASSERT_EQ(rs.NumRows(), 2u);
  EXPECT_EQ(rs.At(0, 0).AsInt(), 1);
  EXPECT_EQ(rs.At(1, 1).AsString(), "w");
  // A WHERE that errors fails the statement and changes nothing.
  EXPECT_FALSE(db_->Execute("DELETE FROM t WHERE 1 / (a - 2) > 0").ok());
  EXPECT_EQ(Exec("SELECT COUNT(*) FROM t").At(0, 0).AsInt(), 2);
}

}  // namespace
}  // namespace recdb
