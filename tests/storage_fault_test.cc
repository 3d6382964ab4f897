// Fault-injection tests for the storage stack and the error paths above it:
//  - retry-with-backoff over transient faults, permanent faults escape
//  - FileDiskManager durability, CRC32 checksums, torn-write detection
//  - buffer-pool consistency when eviction write-back or victim reads fail
//  - a heap scan whose middle page fails to read: the device's error comes
//    out of Next(), never a truncated result, and no pin is left behind
//  - RecDB statements failing cleanly (non-OK Status, zero leaked pins,
//    catalog/registry consistent) and a file-backed database answering
//    RECOMMEND queries identically after close + reopen, with every value
//    type, recommender hyperparameter and the maintenance trigger restored
//    from a checkpoint or from WAL replay.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/recdb.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/page.h"
#include "storage/table_heap.h"
#include "test_util.h"

namespace recdb {
namespace {

RetryPolicy FastRetry(int max_attempts) {
  RetryPolicy p;
  p.max_attempts = max_attempts;
  p.backoff_us = 0;  // deterministic: no wall-clock waits in tests
  return p;
}

std::string TempDbPath(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  return path;
}

// --- retry policy over injected faults ---------------------------------------

TEST(FaultInjectionTest, TransientReadFaultSucceedsAfterRetry) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(3));
  page_id_t pid = fault->AllocatePage();
  char buf[kPageSize];
  std::memset(buf, 0x5A, kPageSize);
  ASSERT_TRUE(fault->WritePage(pid, buf).ok());

  fault->ClearFaults();
  fault->FailNthRead(1, FaultKind::kTransient);
  char out[kPageSize] = {};
  Status st = fault->ReadPage(pid, out);
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(std::memcmp(buf, out, kPageSize), 0);
  EXPECT_EQ(fault->num_retries(), 1u);
  EXPECT_EQ(fault->num_read_failures(), 0u);
  EXPECT_EQ(fault->read_attempts(), 2u);  // failed attempt + successful retry
}

TEST(FaultInjectionTest, TransientFaultsExhaustRetryBudget) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(3));
  page_id_t pid = fault->AllocatePage();
  char out[kPageSize];

  fault->FailNthRead(1, FaultKind::kTransient);
  fault->FailNthRead(2, FaultKind::kTransient);
  fault->FailNthRead(3, FaultKind::kTransient);
  Status st = fault->ReadPage(pid, out);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st;
  EXPECT_EQ(fault->num_retries(), 2u);  // 3 attempts = 2 retries
  EXPECT_EQ(fault->num_read_failures(), 1u);
}

TEST(FaultInjectionTest, PermanentFaultIsNotRetried) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(3));
  page_id_t pid = fault->AllocatePage();
  char buf[kPageSize] = {};

  fault->FailNthWrite(1, FaultKind::kPermanent);
  Status st = fault->WritePage(pid, buf);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;
  EXPECT_EQ(fault->num_retries(), 0u);
  EXPECT_EQ(fault->write_attempts(), 1u);
  EXPECT_EQ(fault->num_write_failures(), 1u);

  // The device recovers once the scheduled fault is consumed.
  EXPECT_TRUE(fault->WritePage(pid, buf).ok());
}

TEST(FaultInjectionTest, SeededRandomFaultsAreDeterministic) {
  auto run = [](uint64_t seed) {
    auto fault = std::make_unique<FaultInjectingDiskManager>(
        std::make_unique<InMemoryDiskManager>());
    fault->set_retry_policy(FastRetry(1));
    page_id_t pid = fault->AllocatePage();
    char buf[kPageSize] = {};
    EXPECT_TRUE(fault->WritePage(pid, buf).ok());
    fault->SetRandomFaults(0.5, 0.0, seed, FaultKind::kPermanent);
    std::vector<bool> outcomes;
    char out[kPageSize];
    for (int i = 0; i < 64; ++i) outcomes.push_back(fault->ReadPage(pid, out).ok());
    return outcomes;
  };
  std::vector<bool> a = run(42), b = run(42);
  EXPECT_EQ(a, b);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);   // some succeed
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);  // some fail
}

// --- FileDiskManager: durability + checksums ---------------------------------

TEST(FileDiskManagerTest, PagesSurviveReopen) {
  std::string path = TempDbPath("recdb_file_disk.db");
  std::vector<char> pattern(kPageSize);
  {
    auto disk_or = FileDiskManager::Open(path);
    ASSERT_TRUE(disk_or.ok()) << disk_or.status();
    auto disk = std::move(disk_or).value();
    for (int i = 0; i < 3; ++i) {
      page_id_t pid = disk->AllocatePage();
      std::memset(pattern.data(), 0x10 + i, kPageSize);
      ASSERT_TRUE(disk->WritePage(pid, pattern.data()).ok());
    }
    ASSERT_TRUE(disk->Sync().ok());
  }
  auto disk_or = FileDiskManager::Open(path);
  ASSERT_TRUE(disk_or.ok()) << disk_or.status();
  auto disk = std::move(disk_or).value();
  EXPECT_TRUE(disk->persistent());
  EXPECT_EQ(disk->NumPages(), 3u);  // high-water mark restored from header
  char out[kPageSize];
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(disk->ReadPage(i, out).ok());
    std::memset(pattern.data(), 0x10 + i, kPageSize);
    EXPECT_EQ(std::memcmp(pattern.data(), out, kPageSize), 0) << "page " << i;
  }
  // Fresh allocations never reuse a live page id after reopen.
  EXPECT_EQ(disk->AllocatePage(), 3);
  ::unlink(path.c_str());
}

TEST(FileDiskManagerTest, AllocatedButNeverWrittenPageReadsAsZeroes) {
  std::string path = TempDbPath("recdb_file_hole.db");
  auto disk = std::move(FileDiskManager::Open(path)).value();
  page_id_t pid = disk->AllocatePage();
  char out[kPageSize];
  std::memset(out, 0xFF, kPageSize);
  ASSERT_TRUE(disk->ReadPage(pid, out).ok());
  for (size_t i = 0; i < kPageSize; ++i) ASSERT_EQ(out[i], 0);
  ::unlink(path.c_str());
}

TEST(FileDiskManagerTest, TornWriteDetectedByChecksumOnReread) {
  std::string path = TempDbPath("recdb_torn.db");
  auto disk = std::move(FileDiskManager::Open(path)).value();
  page_id_t pid = disk->AllocatePage();
  char buf[kPageSize];
  std::memset(buf, 0x33, kPageSize);
  ASSERT_TRUE(disk->WritePage(pid, buf).ok());
  char out[kPageSize];
  ASSERT_TRUE(disk->ReadPage(pid, out).ok());

  // Power fails mid-write: header checksum covers the full intended payload
  // but only half of it reached the platter.
  ASSERT_TRUE(disk->TornWrite(pid, buf, kPageSize / 2).ok());
  Status st = disk->ReadPage(pid, out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st;
  EXPECT_EQ(disk->num_checksum_failures(), 1u);
  ::unlink(path.c_str());
}

TEST(FileDiskManagerTest, TornWriteInjectedThroughDecorator) {
  std::string path = TempDbPath("recdb_torn_inject.db");
  auto file = std::move(FileDiskManager::Open(path)).value();
  auto fault = std::make_unique<FaultInjectingDiskManager>(std::move(file));
  fault->set_retry_policy(FastRetry(3));
  page_id_t pid = fault->AllocatePage();
  char buf[kPageSize];
  std::memset(buf, 0x77, kPageSize);

  fault->FailNthWrite(1, FaultKind::kTorn);
  Status st = fault->WritePage(pid, buf);
  EXPECT_EQ(st.code(), StatusCode::kIOError) << st;  // the write reports failure

  // ...and the half-written slot it left behind fails verification.
  char out[kPageSize];
  st = fault->ReadPage(pid, out);
  EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st;
  EXPECT_GE(fault->num_checksum_failures(), 1u);
  ::unlink(path.c_str());
}

TEST(FileDiskManagerTest, BitFlipOnDiskDetectedAfterReopen) {
  std::string path = TempDbPath("recdb_bitflip.db");
  {
    auto disk = std::move(FileDiskManager::Open(path)).value();
    char buf[kPageSize];
    for (int i = 0; i < 3; ++i) {
      page_id_t pid = disk->AllocatePage();
      std::memset(buf, 0x40 + i, kPageSize);
      ASSERT_TRUE(disk->WritePage(pid, buf).ok());
    }
    ASSERT_TRUE(disk->Sync().ok());
  }
  // Flip one payload byte of page 1 behind the manager's back.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long offset = static_cast<long>(
        FileDiskManager::kFileHeaderSize +
        1 * (FileDiskManager::kSlotHeaderSize + kPageSize) +
        FileDiskManager::kSlotHeaderSize + 200);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fputc(0x41 ^ 0x01, f), 0x41 ^ 0x01);
    std::fclose(f);
  }
  auto disk = std::move(FileDiskManager::Open(path)).value();
  char out[kPageSize];
  EXPECT_TRUE(disk->ReadPage(0, out).ok());
  EXPECT_EQ(disk->ReadPage(1, out).code(), StatusCode::kDataLoss);
  EXPECT_TRUE(disk->ReadPage(2, out).ok());
  EXPECT_EQ(disk->num_checksum_failures(), 1u);
  ::unlink(path.c_str());
}

// --- buffer pool under I/O failure -------------------------------------------

TEST(BufferPoolFaultTest, FailedEvictionWriteBackLosesNoData) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(1));
  FaultInjectingDiskManager* disk = fault.get();
  BufferPool pool(2, disk);

  page_id_t a, b;
  {
    auto ga = pool.NewGuard(&a);
    ASSERT_TRUE(ga.ok());
    ga.value().data()[0] = 'A';
  }
  {
    auto gb = pool.NewGuard(&b);
    ASSERT_TRUE(gb.ok());
    gb.value().data()[0] = 'B';
  }
  // Next write-back fails permanently: the pool must skip that victim
  // (keeping it resident and dirty) and evict the other one instead.
  disk->ClearFaults();
  disk->FailNthWrite(1, FaultKind::kPermanent);
  page_id_t c;
  {
    auto gc = pool.NewGuard(&c);
    ASSERT_TRUE(gc.ok()) << gc.status();
    gc.value().data()[0] = 'C';
  }
  EXPECT_TRUE(NoPinsLeaked(&pool));

  // Every page still reads back its byte once the device recovers.
  disk->ClearFaults();
  for (auto [pid, expect] : {std::pair<page_id_t, char>{a, 'A'},
                             {b, 'B'},
                             {c, 'C'}}) {
    auto g = pool.FetchGuard(pid);
    ASSERT_TRUE(g.ok()) << g.status();
    EXPECT_EQ(g.value().data()[0], expect) << "page " << pid;
  }
  EXPECT_TRUE(NoPinsLeaked(&pool));
  ASSERT_TRUE(pool.FlushAll().ok());
}

TEST(BufferPoolFaultTest, FailedFetchLeavesPoolReusable) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(1));
  FaultInjectingDiskManager* disk = fault.get();
  page_id_t pid = disk->AllocatePage();
  char buf[kPageSize];
  std::memset(buf, 0x66, kPageSize);
  ASSERT_TRUE(disk->WritePage(pid, buf).ok());

  BufferPool pool(2, disk);
  disk->ClearFaults();
  disk->FailNthRead(1, FaultKind::kPermanent);
  auto bad = pool.FetchGuard(pid);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(NoPinsLeaked(&pool));

  // The frame went back to the free list; the same fetch now succeeds.
  disk->ClearFaults();
  auto good = pool.FetchGuard(pid);
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good.value().data()[5], 0x66);
}

// --- heap scans over a faulty device -----------------------------------------

TEST(HeapScanFaultTest, MiddlePageReadFaultSurfacesFromNextAndRetries) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  fault->set_retry_policy(FastRetry(1));
  FaultInjectingDiskManager* disk = fault.get();
  BufferPool pool(2, disk);
  auto heap_res = TableHeap::Create(&pool);
  ASSERT_TRUE(heap_res.ok());
  TableHeap& heap = *heap_res.value();
  std::map<page_id_t, size_t> per_page;  // page -> live tuples
  for (int k = 0; per_page.size() < 6; ++k) {
    auto rid = heap.Insert(Tuple({Value::Int(k), Value::String(std::string(
                                                     300, 'a' + k % 26))}));
    ASSERT_TRUE(rid.ok());
    ++per_page[rid.value().page_id];
  }
  // Two frames, six pages: the scan reads pages 0, 1, 2, ... from the
  // device in order, so read attempt 3 is page 2, in the middle.
  const size_t before_fault =
      per_page.begin()->second + std::next(per_page.begin())->second;
  disk->ClearFaults();
  disk->FailNthRead(3, FaultKind::kPermanent);
  auto it = heap.Begin(2);
  size_t served = 0;
  Status error;
  while (true) {
    auto next = it.Next();
    if (!next.ok()) {
      error = next.status();
      break;
    }
    ASSERT_TRUE(next.value().has_value()) << "scan ended without the fault";
    ++served;
  }
  EXPECT_EQ(error.code(), StatusCode::kIOError) << error;
  EXPECT_EQ(served, before_fault);  // pages 0 and 1 whole, nothing of page 2
  EXPECT_TRUE(NoPinsLeaked(&pool));

  // Once the device recovers, the same iterator resumes at the failed page.
  disk->ClearFaults();
  while (true) {
    auto next = it.Next();
    ASSERT_TRUE(next.ok()) << next.status();
    if (!next.value().has_value()) break;
    ++served;
  }
  EXPECT_EQ(served, heap.num_tuples());
  EXPECT_TRUE(NoPinsLeaked(&pool));
}

// --- RecDB statements under injected faults ----------------------------------

class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto fault = std::make_unique<FaultInjectingDiskManager>(
        std::make_unique<InMemoryDiskManager>());
    fault->set_retry_policy(FastRetry(3));
    disk_ = fault.get();
    RecDBOptions options;
    options.buffer_pool_pages = 4;  // tiny pool: statements must hit the disk
    db_ = std::make_unique<RecDB>(options, std::move(fault));

    Exec("CREATE TABLE Users (uid INT, name TEXT)");
    Exec("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)");
    std::vector<std::vector<Value>> users, ratings;
    for (int u = 1; u <= 400; ++u) {
      users.push_back({Value::Int(u),
                       Value::String("user-with-a-long-name-" +
                                     std::to_string(u))});
    }
    for (int u = 1; u <= 40; ++u) {
      for (int i = 1; i <= 30; ++i) {
        if ((u + i) % 3 == 0) continue;  // leave unseen items to recommend
        ratings.push_back({Value::Int(u), Value::Int(i),
                           Value::Double(1.0 + (u * i) % 5)});
      }
    }
    ASSERT_TRUE(db_->BulkInsert("Users", users).ok());
    ASSERT_TRUE(db_->BulkInsert("Ratings", ratings).ok());
    Exec(
        "CREATE RECOMMENDER Rec ON Ratings USERS FROM uid ITEMS FROM iid "
        "RATINGS FROM ratingval USING ItemCosCF");
    disk_->ClearFaults();
    disk_->ResetCounters();
  }

  ResultSet Exec(const std::string& sql) {
    auto r = db_->Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status();
    if (!r.ok()) return ResultSet{};
    return std::move(r).value();
  }

  std::unique_ptr<RecDB> db_;
  FaultInjectingDiskManager* disk_ = nullptr;
};

TEST_F(EngineFaultTest, FailingStatementsReturnStatusAndLeakNoPins) {
  const std::vector<std::string> statements = {
      "INSERT INTO Ratings VALUES (1, 999, 3.0)",
      "SELECT uid, iid FROM Ratings WHERE uid = 7",
      "SELECT R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = 2 ORDER BY R.ratingval DESC LIMIT 5",
      "UPDATE Ratings SET ratingval = 2.5 WHERE uid = 3 AND iid = 1",
      "DELETE FROM Ratings WHERE uid = 999",
  };
  size_t failures = 0;
  // Sweep a permanent fault across the first attempts of every statement:
  // whatever I/O each statement happens to issue, a failure must surface as
  // a clean non-OK Status with zero pins leaked — never a crash.
  for (uint64_t attempt = 1; attempt <= 10; ++attempt) {
    for (const auto& sql : statements) {
      disk_->ClearFaults();
      disk_->FailNthRead(attempt, FaultKind::kPermanent);
      disk_->FailNthWrite(attempt, FaultKind::kPermanent);
      auto r = db_->Execute(sql);
      if (!r.ok()) {
        ++failures;
        EXPECT_NE(r.status().code(), StatusCode::kOk);
      }
      EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()))
          << sql << " (faulted attempt " << attempt << ")";
    }
  }
  EXPECT_GT(failures, 0u);  // the sweep must actually have hit I/O paths

  // The engine is not wedged: with faults cleared everything works again.
  disk_->ClearFaults();
  auto rs = Exec("SELECT uid FROM Ratings WHERE uid = 7");
  EXPECT_FALSE(rs.rows.empty());
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
}

TEST_F(EngineFaultTest, ScanFaultOnMiddlePageFailsTheStatementNotTheNext) {
  TableInfo* users = db_->catalog()->GetTable("Users").value();
  ASSERT_GE(users->heap->last_page_id() - users->heap->first_page_id(), 3);
  // Scan Ratings to push every Users page out of the 4-frame pool, so the
  // scan below reads Users page by page and its third read is a middle page.
  Exec("SELECT COUNT(*) FROM Ratings");
  disk_->ClearFaults();
  disk_->FailNthRead(3, FaultKind::kPermanent);
  auto r = db_->Execute("SELECT COUNT(*) FROM Users");
  ASSERT_FALSE(r.ok()) << "a truncated count came back: "
                       << r.value().rows[0].At(0).ToString();
  EXPECT_EQ(r.status().code(), StatusCode::kIOError) << r.status();
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));

  disk_->ClearFaults();
  auto rs = Exec("SELECT COUNT(*) FROM Users");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0].At(0).AsInt(), 400);
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
}

TEST_F(EngineFaultTest, ScansLeakNoPinsWhenDrainedOrCutShort) {
  // A full scan, and a LIMIT 1 whose executors are destroyed mid-scan.
  Exec("SELECT COUNT(*) FROM Users");
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
  auto rs = Exec("SELECT uid, name FROM Users LIMIT 1");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
  rs = Exec("SELECT U.name, R.iid FROM Users AS U, Ratings AS R "
            "WHERE U.uid = R.uid LIMIT 1");
  EXPECT_EQ(rs.rows.size(), 1u);
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
}

TEST_F(EngineFaultTest, TransientFaultIsRetriedAndReportedInStats) {
  disk_->ClearFaults();
  disk_->FailNthRead(1, FaultKind::kTransient);
  auto r = db_->Execute("SELECT uid FROM Ratings WHERE uid = 5");
  ASSERT_TRUE(r.ok()) << r.status();  // the retry absorbed the fault
  EXPECT_FALSE(r.value().rows.empty());
  EXPECT_GE(r.value().stats.io_retries, 1u);
  EXPECT_EQ(r.value().stats.io_read_failures, 0u);
  // The rendered result surfaces the fault line only when something fired.
  EXPECT_NE(r.value().ToString().find("io faults"), std::string::npos);
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
}

TEST_F(EngineFaultTest, AbortedInsertReportsRowsApplied) {
  // Scan Users (~4+ pages through a 4-frame pool) to evict Ratings' tail
  // page, so the INSERT below must read it back from the faulted disk.
  Exec("SELECT uid FROM Users WHERE uid = 400");
  disk_->ClearFaults();
  disk_->FailNthRead(1, FaultKind::kPermanent);
  auto r = db_->Execute("INSERT INTO Ratings VALUES (41, 1, 5.0)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("INSERT aborted: 0 of 1 rows"),
            std::string::npos)
      << r.status();
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));

  disk_->ClearFaults();
  auto rows_41 = Exec("SELECT iid FROM Ratings WHERE uid = 41");
  EXPECT_TRUE(rows_41.rows.empty());  // the failed insert applied nothing
}

TEST_F(EngineFaultTest, FailedCreateRecommenderLeavesRegistryClean) {
  // Evict Ratings pages, then make training's first read fail.
  Exec("SELECT uid FROM Users WHERE uid = 400");
  disk_->ClearFaults();
  disk_->FailNthRead(1, FaultKind::kPermanent);
  auto r = db_->Execute(
      "CREATE RECOMMENDER Rec2 ON Ratings USERS FROM uid ITEMS FROM iid "
      "RATINGS FROM ratingval USING UserCosCF");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(NoPinsLeaked(db_->buffer_pool()));
  EXPECT_FALSE(db_->registry()->Get("Rec2").ok());  // not half-registered

  // The same CREATE succeeds once I/O recovers (no AlreadyExists residue).
  disk_->ClearFaults();
  Exec(
      "CREATE RECOMMENDER Rec2 ON Ratings USERS FROM uid ITEMS FROM iid "
      "RATINGS FROM ratingval USING UserCosCF");
  EXPECT_TRUE(db_->registry()->Get("Rec2").ok());
}

// --- file-backed RecDB: close + reopen ---------------------------------------

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

TEST(RecDBFileTest, ReopenedDatabaseServesIdenticalRecommendations) {
  std::string path = TempDbPath("recdb_e2e.db");
  std::vector<std::vector<Recommendation>> before;
  size_t num_ratings = 0;
  {
    auto db_or = RecDB::Open(path);
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    auto db = std::move(db_or).value();
    ASSERT_TRUE(
        db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval "
                    "DOUBLE)")
            .ok());
    std::vector<std::vector<Value>> ratings;
    for (int u = 1; u <= 20; ++u) {
      for (int i = 1; i <= 15; ++i) {
        if ((u + i) % 4 == 0) continue;
        ratings.push_back({Value::Int(u), Value::Int(i),
                           Value::Double(1.0 + (u * 7 + i * 3) % 5)});
      }
    }
    ASSERT_TRUE(db->BulkInsert("Ratings", ratings).ok());
    num_ratings = ratings.size();
    ASSERT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM "
                            "uid ITEMS FROM iid RATINGS FROM ratingval "
                            "USING ItemCosCF")
                    .ok());
    for (int uid : {1, 7, 13}) before.push_back(RecommendationsFor(db.get(), uid));
    ASSERT_FALSE(before[0].empty());
    Status st = db->Close();
    ASSERT_TRUE(st.ok()) << st;
  }

  auto db_or = RecDB::Open(path);
  ASSERT_TRUE(db_or.ok()) << db_or.status();
  auto db = std::move(db_or).value();

  // Catalog and registry restored from the meta-page chain.
  auto table = db->catalog()->GetTable("Ratings");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value()->heap->num_tuples(), num_ratings);
  EXPECT_TRUE(db->registry()->Get("Rec").ok());

  // Deterministic re-training: identical RECOMMEND answers.
  size_t idx = 0;
  for (int uid : {1, 7, 13}) {
    EXPECT_EQ(RecommendationsFor(db.get(), uid), before[idx++]) << "uid " << uid;
  }
  EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));

  // The reopened database keeps working: inserts land on fresh pages.
  auto ins = db->Execute("INSERT INTO Ratings VALUES (21, 1, 4.0)");
  ASSERT_TRUE(ins.ok()) << ins.status();
  auto check = db->Execute("SELECT iid FROM Ratings WHERE uid = 21");
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.value().NumRows(), 1u);
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
}

TEST(RecDBFileTest, CorruptDataPageSurfacesAsDataLossNotACrash) {
  std::string path = TempDbPath("recdb_corrupt.db");
  {
    auto db = std::move(RecDB::Open(path)).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id INT, payload TEXT)").ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO t VALUES (1, 'hello'), (2, 'world')").ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // Flip one byte in page 1 — the table's heap page (page 0 is the meta
  // chain) — as a disk bit-rot / partial-write would.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long offset = static_cast<long>(
        FileDiskManager::kFileHeaderSize +
        1 * (FileDiskManager::kSlotHeaderSize + kPageSize) +
        FileDiskManager::kSlotHeaderSize + 64);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto db_or = RecDB::Open(path);
  ASSERT_TRUE(db_or.ok()) << db_or.status();  // meta chain itself is intact
  auto db = std::move(db_or).value();
  auto r = db->Execute("SELECT id FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << r.status();
  EXPECT_TRUE(NoPinsLeaked(db->buffer_pool()));
  EXPECT_GE(db->disk()->num_checksum_failures(), 1u);

  // The database object survives: unrelated statements still execute.
  auto ddl = db->Execute("CREATE TABLE u (id INT)");
  EXPECT_TRUE(ddl.ok()) << ddl.status();
  ::unlink(path.c_str());
}

TEST(RecDBFileTest, FailedOpenDoesNotRewriteTheFile) {
  std::string path = TempDbPath("recdb_failed_open.db");
  {
    auto db = std::move(RecDB::Open(path)).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE Ratings (uid INT, iid INT, "
                            "ratingval DOUBLE)")
                    .ok());
    ASSERT_TRUE(
        db->Execute("INSERT INTO Ratings VALUES (1,1,4.0), (2,1,3.0)").ok());
    ASSERT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM "
                            "uid ITEMS FROM iid RATINGS FROM ratingval "
                            "USING ItemCosCF")
                    .ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // Corrupt the ratings heap page (page 1): reopening now fails during the
  // recommender's training scan.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long offset = static_cast<long>(
        FileDiskManager::kFileHeaderSize +
        1 * (FileDiskManager::kSlotHeaderSize + kPageSize) +
        FileDiskManager::kSlotHeaderSize + 32);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  auto first = RecDB::Open(path);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss) << first.status();

  // The failed open (and the destruction of its half-loaded RecDB) must not
  // checkpoint partial state over the file: a second open fails identically
  // instead of "succeeding" with the recommender silently dropped.
  auto second = RecDB::Open(path);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kDataLoss) << second.status();
  ::unlink(path.c_str());
}


TEST(RecDBFileTest, ValuesOfEveryTypeRoundTripThroughReopen) {
  std::string path = TempDbPath("recdb_types.db");
  const std::string query = "SELECT * FROM t ORDER BY c";
  std::vector<Tuple> before;
  {
    auto db = std::move(RecDB::Open(path)).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE t (a INT, b DOUBLE, c TEXT, "
                            "g GEOMETRY)")
                    .ok());
    ASSERT_TRUE(db->Execute("INSERT INTO t VALUES "
                            "(1, 1.5, 'hello', 'POINT(1 2)'), "
                            "(2, NULL, '', 'POLYGON((0 0, 1 0, 0 1))'), "
                            "(NULL, -2.25, 'quote''d', 'POINT(-3 4)')")
                    .ok());
    ASSERT_TRUE(db->Execute("CREATE TABLE empty_table (x INT)").ok());
    auto rs = db->Execute(query);
    ASSERT_TRUE(rs.ok()) << rs.status();
    before = rs.value().rows;
    ASSERT_EQ(before.size(), 3u);
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = std::move(RecDB::Open(path)).value();
  auto after = db->Execute(query);
  ASSERT_TRUE(after.ok()) << after.status();
  ASSERT_EQ(after.value().NumRows(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after.value().rows[i], before[i]) << "row " << i;
  }
  auto empty = db->Execute("SELECT x FROM empty_table");
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.value().NumRows(), 0u);
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
}

RecommenderConfig TunedConfig() {
  RecommenderConfig cfg;
  cfg.name = "tuned";
  cfg.ratings_table = "Ratings";
  cfg.user_col = "uid";
  cfg.item_col = "iid";
  cfg.rating_col = "ratingval";
  cfg.algorithm = RecAlgorithm::kSVD;
  cfg.rebuild_threshold = 0.42;
  cfg.sim_opts.top_k = 17;
  cfg.svd_opts.num_factors = 9;
  cfg.svd_opts.num_epochs = 4;
  cfg.svd_opts.seed = 123;
  cfg.svd_opts.use_biases = true;
  return cfg;
}

TEST(RecDBFileTest, HyperparametersSurviveCheckpointAndWalReplay) {
  // Checkpointed: the config is read back from the catalog meta pages.
  // Killed before any checkpoint: the kCreateRecommender WAL record is the
  // only copy, and REDO must rebuild the recommender from it. Either way
  // the retrained SVD model answers identically.
  const std::string query =
      "SELECT R.iid, R.ratingval FROM Ratings AS R RECOMMEND R.iid TO R.uid "
      "ON R.ratingval USING SVD WHERE R.uid = 1 ORDER BY R.ratingval DESC";
  for (bool checkpointed : {true, false}) {
    SCOPED_TRACE(checkpointed ? "checkpointed" : "wal replay");
    std::string path = TempDbPath("recdb_tuned.db");
    std::vector<Tuple> before;
    {
      auto data_file = FileDiskManager::Open(path);
      auto wal_file = FileDiskManager::Open(path + ".wal");
      ASSERT_TRUE(data_file.ok() && wal_file.ok());
      auto data = std::make_unique<FaultInjectingDiskManager>(
          std::move(data_file).value());
      auto wal = std::make_unique<FaultInjectingDiskManager>(
          std::move(wal_file).value());
      FaultInjectingDiskManager* data_raw = data.get();
      FaultInjectingDiskManager* wal_raw = wal.get();
      auto db = std::move(RecDB::OpenWithDisks(std::move(data), std::move(wal)))
                    .value();
      ASSERT_TRUE(db->Execute("CREATE TABLE Ratings (uid INT, iid INT, "
                              "ratingval DOUBLE);"
                              "INSERT INTO Ratings VALUES (1,1,4.0), "
                              "(1,2,3.0), (2,1,5.0), (2,3,2.0)")
                      .ok());
      ASSERT_TRUE(db->CreateRecommender(TunedConfig()).ok());
      auto rs = db->Execute(query);
      ASSERT_TRUE(rs.ok()) << rs.status();
      before = rs.value().rows;
      ASSERT_FALSE(before.empty());
      if (checkpointed) {
        ASSERT_TRUE(db->Close().ok());
      } else {
        // Power cut: the destructor's best-effort checkpoint cannot write.
        data_raw->set_retry_policy(FastRetry(1));
        wal_raw->set_retry_policy(FastRetry(1));
        data_raw->SetRandomFaults(1.0, 1.0, /*seed=*/7, FaultKind::kPermanent);
        wal_raw->SetRandomFaults(1.0, 1.0, /*seed=*/7, FaultKind::kPermanent);
      }
    }
    auto db_or = RecDB::Open(path);
    ASSERT_TRUE(db_or.ok()) << db_or.status();
    auto db = std::move(db_or).value();
    auto rec = db->GetRecommender("tuned");
    ASSERT_TRUE(rec.ok()) << rec.status();
    const RecommenderConfig& got = rec.value()->config();
    EXPECT_EQ(got.algorithm, RecAlgorithm::kSVD);
    EXPECT_EQ(got.rebuild_threshold, 0.42);
    EXPECT_EQ(got.sim_opts.top_k, 17);
    EXPECT_EQ(got.svd_opts.num_factors, 9);
    EXPECT_EQ(got.svd_opts.num_epochs, 4);
    EXPECT_EQ(got.svd_opts.seed, 123u);
    EXPECT_TRUE(got.svd_opts.use_biases);
    auto after = db->Execute(query);
    ASSERT_TRUE(after.ok()) << after.status();
    EXPECT_EQ(after.value().rows, before);
    ASSERT_TRUE(db->Close().ok());
    ::unlink(path.c_str());
    ::unlink((path + ".wal").c_str());
  }
}

// Single-row INSERTs of fresh (uid, iid) pairs until `rec` trips
// NeedsRefresh; returns how many it took (0 if `limit` never trips it).
size_t InsertsUntilRefreshDue(RecDB* db, const Recommender& rec,
                              size_t limit) {
  for (size_t k = 1; k <= limit; ++k) {
    auto r = db->Execute("INSERT INTO Ratings VALUES (" +
                         std::to_string(1000 + k) + ", 1, 3.0)");
    EXPECT_TRUE(r.ok()) << r.status();
    if (rec.NeedsRefresh()) return k;
  }
  return 0;
}

TEST(RecDBFileTest, MaintenanceTriggerSurvivesReopen) {
  // Regression: only rebuild_threshold is persisted, and the trigger used
  // to live in two unpersisted knobs, so a reopened recommender fell back
  // to the default trigger. With one persisted N% it must trip at the same
  // delta size after Close/Open, whatever the reopening engine's options.
  std::string path = TempDbPath("recdb_trigger.db");
  RecDBOptions options;
  options.rebuild_threshold = 0.02;  // 300 base ratings: trips at 6 ops
  {
    auto db = std::move(RecDB::Open(path, options)).value();
    ASSERT_TRUE(db->Execute("CREATE TABLE Ratings (uid INT, iid INT, "
                            "ratingval DOUBLE)")
                    .ok());
    std::vector<std::vector<Value>> ratings;
    for (int u = 1; u <= 30; ++u) {
      for (int i = 1; i <= 10; ++i) {
        ratings.push_back({Value::Int(u), Value::Int(i),
                           Value::Double(1.0 + (u * 7 + i * 3) % 5)});
      }
    }
    ASSERT_TRUE(db->BulkInsert("Ratings", ratings).ok());
    ASSERT_TRUE(db->Execute("CREATE RECOMMENDER Rec ON Ratings USERS FROM "
                            "uid ITEMS FROM iid RATINGS FROM ratingval "
                            "USING ItemCosCF")
                    .ok());
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = std::move(RecDB::Open(path)).value();  // default options
  Recommender* rec = db->GetRecommender("Rec").value();
  ASSERT_EQ(rec->base_size(), 300u);
  EXPECT_EQ(rec->config().rebuild_threshold, 0.02);
  EXPECT_EQ(InsertsUntilRefreshDue(db.get(), *rec, 64), 6u);
  ASSERT_TRUE(db->Close().ok());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace recdb
