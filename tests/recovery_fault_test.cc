// Crash-recovery fault matrix: seeded kill points around the WAL group
// commit and inside recovery itself, each followed by a reopen that must
//  - recover exactly the committed prefix of the workload (durability), and
//  - answer RECOMMEND queries bit-identically to a database that executed
//    the same committed prefix and was closed cleanly (training is
//    deterministic, so recovery must reconstruct the same ratings heap).
//
// A "kill" is simulated by failing every subsequent read/write on both the
// data and the WAL device (FaultInjectingDiskManager with a 100% permanent
// fault rate) and then destroying the RecDB: the destructor's best-effort
// checkpoint fails, so nothing beyond the already-acknowledged log suffix
// reaches either file — exactly the state a power cut leaves behind.
#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/recdb.h"
#include "obs/metrics.h"
#include "storage/disk_manager.h"
#include "test_util.h"

namespace recdb {
namespace {

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_us = 0;
  return p;
}

std::string TempDbPath(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  return path;
}

/// A file-backed database whose data and WAL devices are both wrapped in
/// fault injectors, with the raw wrapper pointers kept for kill injection.
struct FaultDb {
  std::unique_ptr<RecDB> db;
  FaultInjectingDiskManager* data = nullptr;
  FaultInjectingDiskManager* wal = nullptr;
};

FaultDb OpenFaultDb(const std::string& path) {
  FaultDb out;
  auto data_file = FileDiskManager::Open(path);
  EXPECT_TRUE(data_file.ok()) << data_file.status();
  auto wal_file = FileDiskManager::Open(path + ".wal");
  EXPECT_TRUE(wal_file.ok()) << wal_file.status();
  if (!data_file.ok() || !wal_file.ok()) return out;
  auto data = std::make_unique<FaultInjectingDiskManager>(
      std::move(data_file).value());
  auto wal =
      std::make_unique<FaultInjectingDiskManager>(std::move(wal_file).value());
  data->set_retry_policy(FastRetry(1));
  wal->set_retry_policy(FastRetry(1));
  out.data = data.get();
  out.wal = wal.get();
  auto db = RecDB::OpenWithDisks(std::move(data), std::move(wal));
  EXPECT_TRUE(db.ok()) << db.status();
  if (db.ok()) out.db = std::move(db).value();
  return out;
}

/// Power cut: every further I/O on both devices fails, then the process
/// "exits" (the RecDB is destroyed; its best-effort close cannot write).
void Kill(FaultDb* f) {
  f->data->SetRandomFaults(1.0, 1.0, /*seed=*/7, FaultKind::kPermanent);
  f->wal->SetRandomFaults(1.0, 1.0, /*seed=*/7, FaultKind::kPermanent);
  f->db.reset();
}

using Recommendation = std::pair<int64_t, double>;

std::vector<Recommendation> RecommendationsFor(RecDB* db, int uid) {
  auto r = db->Execute(
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = " +
      std::to_string(uid) + " ORDER BY R.ratingval DESC, R.iid LIMIT 5");
  EXPECT_TRUE(r.ok()) << r.status();
  std::vector<Recommendation> out;
  if (!r.ok()) return out;
  for (const auto& row : r.value().rows) {
    out.push_back({row.At(0).AsInt(), row.At(1).AsDouble()});
  }
  return out;
}

std::vector<std::vector<Value>> BaseRatings() {
  std::vector<std::vector<Value>> ratings;
  for (int u = 1; u <= 12; ++u) {
    for (int i = 1; i <= 10; ++i) {
      if ((u + i) % 3 == 0) continue;
      ratings.push_back({Value::Int(u), Value::Int(i),
                         Value::Double(1.0 + (u * 7 + i * 3) % 5)});
    }
  }
  return ratings;
}

std::string IncrementalInsert(int k) {
  // Distinct (user, item) pairs outside the base grid.
  return "INSERT INTO Ratings VALUES (" + std::to_string(1 + k % 12) + ", " +
         std::to_string(11 + k) + ", " + std::to_string(1 + k % 5) + ".5)";
}

/// Runs the workload prefix: schema + base ratings + recommender, then k
/// committed single-row inserts. Returns the base row count.
size_t RunCommittedPrefix(RecDB* db, int k) {
  EXPECT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> base = BaseRatings();
  EXPECT_TRUE(db->BulkInsert("Ratings", base).ok());
  EXPECT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM uid "
                          "ITEMS FROM iid RATINGS FROM ratingval "
                          "USING ItemCosCF")
                  .ok());
  for (int j = 0; j < k; ++j) {
    auto r = db->Execute(IncrementalInsert(j));
    EXPECT_TRUE(r.ok()) << r.status();
  }
  return base.size();
}

size_t CountRatings(RecDB* db) {
  auto r = db->Execute("SELECT uid FROM Ratings");
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r.value().NumRows() : 0;
}

// --- kill after commit: the whole acknowledged prefix survives ---------------

TEST(RecoveryFaultTest, KilledDatabaseRecoversCommittedPrefixExactly) {
  for (int k : {0, 1, 3, 7}) {
    SCOPED_TRACE("k=" + std::to_string(k));

    // Reference: same committed prefix, clean close + reopen. Both sides
    // re-train at open over identical heaps, so answers must match bit for
    // bit — not approximately.
    std::string ref_path = TempDbPath("recdb_ref_" + std::to_string(k) + ".db");
    std::vector<std::vector<Recommendation>> expected;
    size_t base_rows = 0;
    {
      auto ref = std::move(RecDB::Open(ref_path)).value();
      base_rows = RunCommittedPrefix(ref.get(), k);
      ASSERT_TRUE(ref->Close().ok());
    }
    auto ref = std::move(RecDB::Open(ref_path)).value();
    for (int uid : {1, 5, 9}) {
      expected.push_back(RecommendationsFor(ref.get(), uid));
    }
    ASSERT_FALSE(expected[0].empty());

    // Victim: same prefix, then a power cut instead of a close.
    std::string path = TempDbPath("recdb_kill_" + std::to_string(k) + ".db");
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    ASSERT_EQ(RunCommittedPrefix(f.db.get(), k), base_rows);
    Kill(&f);

    auto db_or = RecDB::Open(path);
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    auto db = std::move(db_or).value();
    EXPECT_EQ(CountRatings(db.get()), base_rows + static_cast<size_t>(k));
    EXPECT_TRUE(db->registry()->Get("Rec").ok());
    size_t idx = 0;
    for (int uid : {1, 5, 9}) {
      EXPECT_EQ(RecommendationsFor(db.get(), uid), expected[idx++])
          << "uid " << uid;
    }
    EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));

    // The recovered database keeps accepting writes.
    ASSERT_TRUE(db->Execute("INSERT INTO Ratings VALUES (99, 1, 3.0)").ok());
    ASSERT_TRUE(db->Close().ok());
    ::unlink(path.c_str());
    ::unlink((path + ".wal").c_str());
    ::unlink(ref_path.c_str());
    ::unlink((ref_path + ".wal").c_str());
  }
}

// --- kill before the group-commit fsync --------------------------------------

TEST(RecoveryFaultTest, KillBeforeGroupCommitFsyncLosesOnlyTheUnacknowledged) {
  std::string path = TempDbPath("recdb_kill_prefsync.db");
  const int kCommitted = 4;
  size_t base_rows = 0;
  {
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    base_rows = RunCommittedPrefix(f.db.get(), kCommitted);

    // The next commit's batch write never reaches the log device — the
    // "crash before fsync" kill point. The statement must NOT be
    // acknowledged.
    f.wal->FailNthWrite(f.wal->write_attempts() + 1, FaultKind::kPermanent);
    auto r = f.db->Execute(IncrementalInsert(kCommitted));
    EXPECT_FALSE(r.ok());
    Kill(&f);
  }

  auto db = std::move(RecDB::Open(path)).value();
  EXPECT_EQ(CountRatings(db.get()), base_rows + kCommitted);
  ASSERT_TRUE(db->Close().ok());
}

// --- kill inside the group-commit fsync --------------------------------------

TEST(RecoveryFaultTest, KillInsideGroupCommitFsyncIsNotAcknowledged) {
  std::string path = TempDbPath("recdb_kill_infsync.db");
  const int kCommitted = 4;
  size_t base_rows = 0;
  {
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    base_rows = RunCommittedPrefix(f.db.get(), kCommitted);

    // The batch reaches the log file but the durability barrier fails —
    // the "crash inside fsync" kill point. The statement is not
    // acknowledged; whether its record survives is the device's choice.
    // Here the page writes did land, so recovery may legitimately replay
    // it — the invariant is that everything ACKNOWLEDGED survives.
    f.wal->FailNthSync(f.wal->sync_attempts() + 1, FaultKind::kPermanent);
    auto r = f.db->Execute(IncrementalInsert(kCommitted));
    EXPECT_FALSE(r.ok());
    Kill(&f);
  }

  auto db = std::move(RecDB::Open(path)).value();
  size_t recovered = CountRatings(db.get());
  EXPECT_GE(recovered, base_rows + kCommitted);
  EXPECT_LE(recovered, base_rows + kCommitted + 1);
  EXPECT_TRUE(db->registry()->Get("Rec").ok());
  ASSERT_TRUE(db->Close().ok());
}

// --- kill during recovery itself ---------------------------------------------

TEST(RecoveryFaultTest, CrashDuringRecoveryCheckpointIsRestartable) {
  std::string path = TempDbPath("recdb_kill_midredo.db");
  const int kCommitted = 5;
  size_t base_rows = 0;
  {
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    base_rows = RunCommittedPrefix(f.db.get(), kCommitted);
    Kill(&f);
  }

  // First reopen crashes mid-recovery: REDO replays into the pool, but the
  // post-recovery checkpoint cannot write the data file. The open must fail
  // cleanly — and must NOT have truncated the log before the replayed state
  // was durable.
  {
    auto data_file = std::move(FileDiskManager::Open(path)).value();
    auto wal_file = std::move(FileDiskManager::Open(path + ".wal")).value();
    auto data =
        std::make_unique<FaultInjectingDiskManager>(std::move(data_file));
    auto wal = std::make_unique<FaultInjectingDiskManager>(std::move(wal_file));
    data->set_retry_policy(FastRetry(1));
    wal->set_retry_policy(FastRetry(1));
    data->FailNthWrite(1, FaultKind::kPermanent);
    auto db_or = RecDB::OpenWithDisks(std::move(data), std::move(wal));
    EXPECT_FALSE(db_or.ok());
  }

  // Second, clean reopen: REDO is idempotent (page-LSN guards), so replaying
  // over whatever the interrupted recovery managed to flush reconstructs the
  // full committed prefix.
  auto db = std::move(RecDB::Open(path)).value();
  EXPECT_EQ(CountRatings(db.get()), base_rows + kCommitted);
  EXPECT_TRUE(db->registry()->Get("Rec").ok());
  EXPECT_FALSE(RecommendationsFor(db.get(), 1).empty());
  ASSERT_TRUE(db->Close().ok());
}

// --- Close() failure leaves the database open for retry (regression) ---------

TEST(RecoveryFaultTest, FailedCloseLeavesDatabaseOpenForRetry) {
  std::string path = TempDbPath("recdb_close_retry.db");
  FaultDb f = OpenFaultDb(path);
  ASSERT_NE(f.db, nullptr);
  size_t base_rows = RunCommittedPrefix(f.db.get(), 2);

  // First Close(): the checkpoint's first data write fails. Close used to
  // mark the handle closed anyway, so the retry below would have returned
  // OK without ever persisting the un-checkpointed state.
  f.data->ClearFaults();
  f.data->FailNthWrite(1, FaultKind::kPermanent);
  Status st = f.db->Close();
  EXPECT_FALSE(st.ok());

  // Still open: statements keep working.
  EXPECT_EQ(CountRatings(f.db.get()), base_rows + 2);

  // Retry succeeds once the device recovers, and the state is durable.
  f.data->ClearFaults();
  ASSERT_TRUE(f.db->Close().ok());
  f.db.reset();

  auto db = std::move(RecDB::Open(path)).value();
  EXPECT_EQ(CountRatings(db.get()), base_rows + 2);
  ASSERT_TRUE(db->Close().ok());
}

// --- checkpoints bound replay: reopen after checkpoint skips old records -----

TEST(RecoveryFaultTest, CheckpointedStateRecoversWithoutReplayingOldLog) {
  std::string path = TempDbPath("recdb_cp_bound.db");
  size_t base_rows = 0;
  {
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    base_rows = RunCommittedPrefix(f.db.get(), 3);
    ASSERT_TRUE(f.db->Checkpoint().ok());
    // Two more committed inserts after the checkpoint, then a power cut:
    // recovery replays exactly the post-checkpoint suffix.
    ASSERT_TRUE(f.db->Execute(IncrementalInsert(3)).ok());
    ASSERT_TRUE(f.db->Execute(IncrementalInsert(4)).ok());
    Kill(&f);
  }

  auto db = std::move(RecDB::Open(path)).value();
  EXPECT_EQ(CountRatings(db.get()), base_rows + 5);
  EXPECT_TRUE(db->registry()->Get("Rec").ok());
  ASSERT_TRUE(db->Close().ok());
}

// --- recovery shares one ratings load across recommenders on a table --------

TEST(RecoveryFaultTest, RecoveryLoadsSharedRatingsTableOnce) {
  std::string path = TempDbPath("recdb_shared_load.db");
  {
    FaultDb f = OpenFaultDb(path);
    ASSERT_NE(f.db, nullptr);
    (void)RunCommittedPrefix(f.db.get(), 2);  // creates recommender "Rec"
    // A second recommender over the *same* ratings table/columns.
    ASSERT_TRUE(f.db->Execute("CREATE RECOMMENDER RecUser ON Ratings "
                              "USERS FROM uid ITEMS FROM iid RATINGS FROM "
                              "ratingval USING UserCosCF")
                    .ok());
    ASSERT_TRUE(f.db->Close().ok());
  }

  // Regression (PR 7 bugfix): recovery used to re-scan the ratings heap and
  // re-freeze a CSR once per recommender; configs sharing a table template
  // must now share one loaded matrix. One heap load == one CSR build; each
  // recommender still trains its own model.
  obs::MetricsRegistry::Global().ResetForTest();
  auto db = std::move(RecDB::Open(path)).value();
  auto snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(
      snap.counters[static_cast<size_t>(obs::Counter::kIngestCsrBuilds)], 1u);
  EXPECT_EQ(snap.counters[static_cast<size_t>(obs::Counter::kModelBuilds)],
            2u);

  // Both recommenders are live and trained against the recovered heap.
  auto rec_a = db->registry()->Get("Rec");
  auto rec_b = db->registry()->Get("RecUser");
  ASSERT_TRUE(rec_a.ok());
  ASSERT_TRUE(rec_b.ok());
  EXPECT_NE(rec_a.value()->model(), nullptr);
  EXPECT_NE(rec_b.value()->model(), nullptr);
  EXPECT_EQ(rec_a.value()->live().NumRatings(),
            rec_b.value()->live().NumRatings());
  EXPECT_FALSE(RecommendationsFor(db.get(), 1).empty());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace recdb
