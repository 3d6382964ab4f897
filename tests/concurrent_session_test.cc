// Concurrent sessions over one RecDB: a writer session streams single-row
// INSERTs (each one WAL-committed) while reader sessions run RECOMMEND
// scans, COUNT(*) heap scans and EXPLAIN. The reader/writer discipline
// under test:
//  - read-only scripts share the state lock, so readers never block each
//    other and always see a consistent pre- or post-statement snapshot;
//  - the writer's group-commit fsync happens after the exclusive lock is
//    released, so durability stalls don't serialize the readers.
// This test is the TSan target in CI (ctest -R concurrent_session).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/recdb.h"
#include "api/session.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace recdb {
namespace {

std::string TempDbPath(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  return path;
}

std::unique_ptr<RecDB> SeededDb(const std::string& path) {
  auto db_or = RecDB::Open(path);
  EXPECT_TRUE(db_or.ok()) << db_or.status();
  if (!db_or.ok()) return nullptr;
  auto db = std::move(db_or).value();
  EXPECT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> ratings;
  for (int u = 1; u <= 10; ++u) {
    for (int i = 1; i <= 8; ++i) {
      if ((u + i) % 3 == 0) continue;
      ratings.push_back({Value::Int(u), Value::Int(i),
                         Value::Double(1.0 + (u * 7 + i * 3) % 5)});
    }
  }
  EXPECT_TRUE(db->BulkInsert("Ratings", ratings).ok());
  EXPECT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval "
                          "USING ItemCosCF")
                  .ok());
  return db;
}

std::string RecommendSql(int uid) {
  return "SELECT R.iid, R.ratingval FROM Ratings AS R "
         "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
         "WHERE R.uid = " +
         std::to_string(uid) + " ORDER BY R.ratingval DESC, R.iid LIMIT 5";
}

TEST(ConcurrentSessionTest, ReadersScanWhileWriterInserts) {
  std::string path = TempDbPath("recdb_concurrent.db");
  auto db = SeededDb(path);
  ASSERT_NE(db, nullptr);
  size_t base_rows = db->Execute("SELECT uid FROM Ratings").value().NumRows();

  constexpr int kWriterInserts = 48;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> writer_errors{0};
  std::atomic<int> reader_errors{0};
  std::atomic<int> reader_queries{0};
  std::atomic<int> bad_counts{0};  // outside [base, base + inserts] or falling

  auto writer_session = db->CreateSession();
  std::vector<std::unique_ptr<Session>> reader_sessions;
  for (int r = 0; r < kReaders; ++r) reader_sessions.push_back(db->CreateSession());

  std::thread writer([&] {
    for (int k = 0; k < kWriterInserts; ++k) {
      // New items stream into live rows mid-flight, so readers score
      // through the row view while it grows under them.
      auto r = writer_session->Execute(
          "INSERT INTO Ratings VALUES (" + std::to_string(1 + k % 10) + ", " +
          std::to_string(100 + k) + ", " + std::to_string(1 + k % 5) + ".0)");
      if (!r.ok()) writer_errors.fetch_add(1);
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session* session = reader_sessions[r].get();
      // Bounded loop: keep scanning until the writer finishes (plus one
      // final pass over the complete state), but never spin forever.
      // A heap scan overlapping the writer's inserts: each count is a
      // statement-consistent snapshot, so it lies between the seed and the
      // final row count and never falls for one reader. The predicated
      // count runs the scan with the predicate fused into it (every rating
      // passes), so it must obey the same bounds.
      const char* kCounts[] = {
          "SELECT COUNT(*) FROM Ratings",
          "SELECT COUNT(*) FROM Ratings WHERE ratingval >= 0"};
      int64_t last_count[] = {0, 0};
      for (int it = 0; it < 2000; ++it) {
        bool was_done = done.load();
        for (int q = 0; q < 2; ++q) {
          auto count = session->Execute(kCounts[q]);
          if (!count.ok()) {
            reader_errors.fetch_add(1);
            continue;
          }
          const int64_t n = count.value().rows[0].At(0).AsInt();
          if (n < static_cast<int64_t>(base_rows) ||
              n > static_cast<int64_t>(base_rows) + kWriterInserts ||
              n < last_count[q]) {
            bad_counts.fetch_add(1);
          }
          last_count[q] = n;
        }
        int uid = 1 + (r * 7 + it) % 10;
        auto rec = session->Execute(RecommendSql(uid));
        if (!rec.ok()) {
          reader_errors.fetch_add(1);
        } else {
          EXPECT_LE(rec.value().NumRows(), 5u);
          reader_queries.fetch_add(1);
        }
        if (r == 0 && it % 8 == 0) {
          auto plan = session->Explain(RecommendSql(uid));
          if (!plan.ok()) reader_errors.fetch_add(1);
        }
        if (was_done) break;
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(writer_errors.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  EXPECT_EQ(bad_counts.load(), 0);
  EXPECT_GT(reader_queries.load(), 0);
  EXPECT_EQ(writer_session->statements(), static_cast<uint64_t>(kWriterInserts));

  // Every acknowledged insert is visible once the writer has finished.
  auto rows = db->Execute("SELECT uid FROM Ratings");
  ASSERT_TRUE(rows.ok()) << rows.status();
  EXPECT_EQ(rows.value().NumRows(),
            base_rows + static_cast<size_t>(kWriterInserts));
  EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));

  // ...and every one of them was WAL-committed: a reopen after a clean close
  // serves the same row count.
  reader_sessions.clear();
  writer_session.reset();
  ASSERT_TRUE(db->Close().ok());
  db.reset();

  auto reopened = std::move(RecDB::Open(path)).value();
  auto recount = reopened->Execute("SELECT uid FROM Ratings");
  ASSERT_TRUE(recount.ok());
  EXPECT_EQ(recount.value().NumRows(),
            base_rows + static_cast<size_t>(kWriterInserts));
  ASSERT_TRUE(reopened->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(ConcurrentSessionTest, ReadersScanAcrossBackgroundRefreshSwaps) {
  // The PR-7 race under test (TSan target): RECOMMEND readers score
  // through the live rows while the background re-freeze job swaps a
  // flattened CSR in under the writer lock. A small rebuild_threshold (4 ops
  // against the initial base) forces many swap cycles within one writer
  // stream.
  std::string path = TempDbPath("recdb_bg_refresh.db");
  obs::MetricsRegistry::Global().ResetForTest();
  std::vector<std::vector<Value>> ratings;
  for (int u = 1; u <= 10; ++u) {
    for (int i = 1; i <= 8; ++i) {
      if ((u + i) % 3 == 0) continue;
      ratings.push_back({Value::Int(u), Value::Int(i),
                         Value::Double(1.0 + (u * 7 + i * 3) % 5)});
    }
  }
  RecDBOptions options;
  options.maintenance = MaintenanceMode::kBackground;
  options.rebuild_threshold = 4.0 / static_cast<double>(ratings.size());
  auto db_or = RecDB::Open(path, options);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  auto db = std::move(db_or).value();
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  ASSERT_TRUE(db->BulkInsert("Ratings", ratings).ok());
  ASSERT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval "
                          "USING ItemCosCF")
                  .ok());

  constexpr int kWriterInserts = 64;
  constexpr int kReaders = 3;
  std::atomic<bool> done{false};
  std::atomic<int> errors{0};
  auto writer_session = db->CreateSession();
  std::vector<std::unique_ptr<Session>> reader_sessions;
  for (int r = 0; r < kReaders; ++r) {
    reader_sessions.push_back(db->CreateSession());
  }

  std::thread writer([&] {
    for (int k = 0; k < kWriterInserts; ++k) {
      auto r = writer_session->Execute(
          "INSERT INTO Ratings VALUES (" + std::to_string(1 + k % 10) + ", " +
          std::to_string(200 + k) + ", " + std::to_string(1 + k % 5) + ".0)");
      if (!r.ok()) errors.fetch_add(1);
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session* session = reader_sessions[r].get();
      for (int it = 0; it < 2000; ++it) {
        bool was_done = done.load();
        auto rec = session->Execute(RecommendSql(1 + (r * 3 + it) % 10));
        if (!rec.ok()) errors.fetch_add(1);
        if (was_done) break;
      }
    });
  }

  writer.join();
  for (auto& t : readers) t.join();
  db->DrainBackgroundWork();

  EXPECT_EQ(errors.load(), 0);
  // Background refreshes actually ran while readers were scoring.
  auto snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(
      snap.counters[static_cast<size_t>(obs::Counter::kIngestRefreshes)], 1u);
  // A sub-threshold tail of delta may legitimately remain; a manual
  // refresh clears it.
  auto refreshed = db->RefreshRecommender("Rec");
  ASSERT_TRUE(refreshed.ok()) << refreshed.status();
  auto rec = db->registry()->Get("Rec");
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec.value()->live().has_delta());
  EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));

  reader_sessions.clear();
  writer_session.reset();
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(ConcurrentSessionTest, ReadOnlySessionsRunInParallel) {
  std::string path = TempDbPath("recdb_readers.db");
  auto db = SeededDb(path);
  ASSERT_NE(db, nullptr);

  constexpr int kSessions = 8;
  constexpr int kQueriesEach = 24;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      auto session = db->CreateSession();
      for (int q = 0; q < kQueriesEach; ++q) {
        auto r = session->Execute(RecommendSql(1 + (s + q) % 10));
        if (!r.ok() || r.value().NumRows() == 0) errors.fetch_add(1);
      }
      EXPECT_EQ(session->statements(), static_cast<uint64_t>(kQueriesEach));
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(ConcurrentSessionTest, TracedReaderSharesTheEngineLock) {
  // A traced SELECT takes the engine lock shared, like an untraced one, so
  // it completes while another reader holds the lock.
  std::string path = TempDbPath("recdb_traced_reader.db");
  auto db = SeededDb(path);
  ASSERT_NE(db, nullptr);
  auto mu = std::make_shared<std::shared_mutex>();
  db->ShareEngineLock(mu);
  ASSERT_TRUE(db->Execute("SET trace = on").ok());

  std::promise<Result<ResultSet>> promise;
  auto traced = promise.get_future();
  std::shared_lock<std::shared_mutex> held(*mu);
  std::thread reader([&] { promise.set_value(db->Execute(RecommendSql(1))); });
  const bool completed = traced.wait_for(std::chrono::seconds(5)) ==
                         std::future_status::ready;
  held.unlock();
  reader.join();
  EXPECT_TRUE(completed)
      << "a traced SELECT waited for another reader to release the lock";

  auto rs = traced.get();
  ASSERT_TRUE(rs.ok()) << rs.status();
  EXPECT_GT(rs.value().NumRows(), 0u);
  EXPECT_NE(rs.value().trace.find("execute"), std::string::npos);
  EXPECT_EQ(rs.value().trace, db->last_trace());
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

/// A model whose refresh prepare runs `gate` (a bounded wait) and then
/// returns an empty update.
class GatedPrepareModel : public RecModel {
 public:
  GatedPrepareModel(std::shared_ptr<const RatingMatrix> ratings,
                    std::function<void()> gate)
      : RecModel(std::move(ratings)), gate_(std::move(gate)) {}
  RecAlgorithm algorithm() const override { return RecAlgorithm::kItemCosCF; }
  size_t ApproxBytes() const override { return 0; }
  bool SupportsIncrementalUpdate() const override { return true; }
  Result<ModelUpdate> PrepareDeltaUpdate(
      const std::vector<DeltaOp>& ops) const override {
    (void)ops;
    gate_();
    return ModelUpdate{};
  }

 protected:
  void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                      std::span<double> out) const override {
    (void)user_idx;
    (void)items;
    std::fill(out.begin(), out.end(), 1.0);
  }

 private:
  std::function<void()> gate_;
};

TEST(ConcurrentSessionTest, ForegroundRefreshPreparesUnderTheSharedLock) {
  // RefreshRecommender prepares under the shared lock, as the background
  // lane does: a SELECT on another thread completes while the prepare
  // runs. The prepare waits (at most 5 s) for that SELECT to return.
  std::string path = TempDbPath("recdb_refresh_shared_prepare.db");
  auto db = SeededDb(path);
  ASSERT_NE(db, nullptr);
  auto rec = db->registry()->Get("Rec");
  ASSERT_TRUE(rec.ok());
  std::promise<void> prepare_started;
  std::promise<void> select_returned;
  auto select_done = select_returned.get_future().share();
  std::atomic<bool> select_ran_during_prepare{false};
  rec.value()->AdoptModelForTest(std::make_unique<GatedPrepareModel>(
      rec.value()->model()->ratings_ptr(), [&] {
        prepare_started.set_value();
        select_ran_during_prepare.store(
            select_done.wait_for(std::chrono::seconds(5)) ==
            std::future_status::ready);
      }));
  ASSERT_TRUE(db->Execute("INSERT INTO Ratings VALUES (1, 99, 4.0)").ok());

  std::thread reader([&] {
    if (prepare_started.get_future().wait_for(std::chrono::seconds(30)) ==
        std::future_status::ready) {
      EXPECT_TRUE(db->Execute("SELECT uid FROM Ratings").ok());
    }
    select_returned.set_value();
  });
  auto refreshed = db->RefreshRecommender("Rec");
  reader.join();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status();
  EXPECT_TRUE(refreshed.value());
  EXPECT_TRUE(select_ran_during_prepare.load())
      << "a SELECT waited for RefreshRecommender's prepare";
  EXPECT_FALSE(rec.value()->live().has_delta());
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(ConcurrentSessionTest, SessionsHaveDistinctIdsAndCountStatements) {
  std::string path = TempDbPath("recdb_session_ids.db");
  auto db = SeededDb(path);
  ASSERT_NE(db, nullptr);

  auto a = db->CreateSession();
  auto b = db->CreateSession();
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(a->db(), db.get());
  EXPECT_EQ(a->statements(), 0u);
  EXPECT_TRUE(a->Execute("SELECT uid FROM Ratings").ok());
  EXPECT_TRUE(a->Execute("SELECT iid FROM Ratings").ok());
  EXPECT_EQ(a->statements(), 2u);
  EXPECT_EQ(b->statements(), 0u);

  // A session surfaces the same errors as the database handle.
  EXPECT_FALSE(b->Execute("SELECT nope FROM Missing").ok());
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

}  // namespace
}  // namespace recdb
