// LogManager unit tests: framing + reopen recovery, group-commit
// piggybacking, torn-tail safety, epoch truncation, flush-failure retry,
// and the buffer pool's WAL rule (log before data write-back).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/recdb.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/log_manager.h"
#include "storage/table_heap.h"

namespace recdb {
namespace {

std::string TempWalPath(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  ::unlink(path.c_str());
  return path;
}

std::unique_ptr<LogManager> OpenFileLog(const std::string& path) {
  auto disk = std::move(FileDiskManager::Open(path)).value();
  return std::move(LogManager::Open(std::move(disk))).value();
}

std::vector<uint8_t> Payload(std::initializer_list<uint8_t> bytes) {
  return std::vector<uint8_t>(bytes);
}

TEST(LogManagerTest, AppendAssignsMonotonicLsnsWithoutTouchingDisk) {
  auto log = std::move(LogManager::Open(
                           std::make_unique<InMemoryDiskManager>()))
                 .value();
  uint64_t flushes_before = log->flushes();
  EXPECT_EQ(log->Append(WalRecordType::kInsert, Payload({1})), 1u);
  EXPECT_EQ(log->Append(WalRecordType::kDelete, Payload({2})), 2u);
  EXPECT_EQ(log->Append(WalRecordType::kUpdate, Payload({3})), 3u);
  EXPECT_EQ(log->newest_lsn(), 3u);
  EXPECT_EQ(log->durable_lsn(), 0u);
  EXPECT_EQ(log->flushes(), flushes_before);  // buffered only
  EXPECT_EQ(log->records_appended(), 3u);
}

TEST(LogManagerTest, CommitMakesRecordsDurableAcrossReopen) {
  std::string path = TempWalPath("wal_reopen.wal");
  {
    auto log = OpenFileLog(path);
    EXPECT_TRUE(log->TakeRecoveredRecords().empty());
    log->Append(WalRecordType::kInsert, Payload({10, 11}));
    log->Append(WalRecordType::kCreateTable, Payload({20}));
    log->Append(WalRecordType::kDelete, {});
    ASSERT_TRUE(log->Commit(log->newest_lsn()).ok());
    EXPECT_EQ(log->durable_lsn(), 3u);
  }
  auto log = OpenFileLog(path);
  auto records = log->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].type, WalRecordType::kInsert);
  EXPECT_EQ(records[0].payload, Payload({10, 11}));
  EXPECT_EQ(records[1].lsn, 2u);
  EXPECT_EQ(records[1].type, WalRecordType::kCreateTable);
  EXPECT_EQ(records[2].lsn, 3u);
  EXPECT_TRUE(records[2].payload.empty());
  // The reopened log continues the LSN sequence.
  EXPECT_EQ(log->newest_lsn(), 3u);
  EXPECT_EQ(log->durable_lsn(), 3u);
  EXPECT_EQ(log->Append(WalRecordType::kInsert, {}), 4u);
  ::unlink(path.c_str());
}

TEST(LogManagerTest, UncommittedSuffixIsNotRecovered) {
  std::string path = TempWalPath("wal_uncommitted.wal");
  {
    auto log = OpenFileLog(path);
    log->Append(WalRecordType::kInsert, Payload({1}));
    log->Append(WalRecordType::kInsert, Payload({2}));
    ASSERT_TRUE(log->Commit(2).ok());
    log->Append(WalRecordType::kInsert, Payload({3}));  // never committed
    // Simulated crash: the LogManager is dropped with records pending.
  }
  auto log = OpenFileLog(path);
  auto records = log->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records.back().lsn, 2u);
  ::unlink(path.c_str());
}

TEST(LogManagerTest, GroupCommitFlushesOnceForManyRecords) {
  auto log = std::move(LogManager::Open(
                           std::make_unique<InMemoryDiskManager>()))
                 .value();
  uint64_t flushes_before = log->flushes();
  for (int i = 0; i < 64; ++i) {
    log->Append(WalRecordType::kInsert, Payload({static_cast<uint8_t>(i)}));
  }
  ASSERT_TRUE(log->Commit(log->newest_lsn()).ok());
  EXPECT_EQ(log->flushes(), flushes_before + 1);  // one batch, one fsync
  // Committing an already-durable LSN is free.
  ASSERT_TRUE(log->Commit(5).ok());
  EXPECT_EQ(log->flushes(), flushes_before + 1);
}

TEST(LogManagerTest, ConcurrentCommittersPiggybackOnSharedFlushes) {
  auto log = std::move(LogManager::Open(
                           std::make_unique<InMemoryDiskManager>()))
                 .value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        Lsn lsn = log->Append(WalRecordType::kInsert, Payload({7}));
        ASSERT_TRUE(log->Commit(lsn).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(log->durable_lsn(), static_cast<Lsn>(kThreads * kPerThread));
  // Group commit: strictly fewer fsyncs than commits is the whole point.
  // (Worst case equals the commit count only if there was zero overlap;
  // with 8 threads hammering the log some piggybacking must occur.)
  EXPECT_LE(log->flushes(), static_cast<uint64_t>(kThreads * kPerThread));
}

TEST(LogManagerTest, LargeBatchSpansMultiplePages) {
  std::string path = TempWalPath("wal_multipage.wal");
  {
    auto log = OpenFileLog(path);
    std::vector<uint8_t> big(kPageSize / 2, 0xAB);
    for (int i = 0; i < 5; ++i) log->Append(WalRecordType::kInsert, big);
    ASSERT_TRUE(log->Commit(log->newest_lsn()).ok());
  }
  auto log = OpenFileLog(path);
  auto records = log->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 5u);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.payload.size(), kPageSize / 2);
    EXPECT_EQ(rec.payload[17], 0xAB);
  }
  ::unlink(path.c_str());
}

TEST(LogManagerTest, TornTailPageTruncatesOnlyUnacknowledgedRecords) {
  std::string path = TempWalPath("wal_torn.wal");
  {
    auto log = OpenFileLog(path);
    log->Append(WalRecordType::kInsert, Payload({1}));
    ASSERT_TRUE(log->Commit(1).ok());  // batch 1 -> log page 1
    log->Append(WalRecordType::kInsert, Payload({2}));
    ASSERT_TRUE(log->Commit(2).ok());  // batch 2 -> log page 2
  }
  // Tear the second batch's page on the device (flip a payload byte past
  // the page header). The device-level CRC catches it; the scan must stop
  // there and keep the first batch intact.
  {
    FILE* f = ::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    long off = static_cast<long>(
        FileDiskManager::kFileHeaderSize +
        2 * (FileDiskManager::kSlotHeaderSize + kPageSize) +
        FileDiskManager::kSlotHeaderSize + 100);
    ASSERT_EQ(::fseek(f, off, SEEK_SET), 0);
    int c = ::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(::fseek(f, off, SEEK_SET), 0);
    ::fputc(c ^ 0xFF, f);
    ::fclose(f);
  }
  auto log = OpenFileLog(path);
  auto records = log->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].lsn, 1u);
  EXPECT_EQ(records[0].payload, Payload({1}));
  // New appends overwrite the torn tail and recover cleanly.
  EXPECT_EQ(log->Append(WalRecordType::kInsert, Payload({3})), 2u);
  ASSERT_TRUE(log->Commit(2).ok());
  auto log2 = OpenFileLog(path);
  auto records2 = log2->TakeRecoveredRecords();
  ASSERT_EQ(records2.size(), 2u);
  EXPECT_EQ(records2[1].payload, Payload({3}));
  ::unlink(path.c_str());
}

TEST(LogManagerTest, ResetTruncatesAndRecoveryskipsOldEpoch) {
  std::string path = TempWalPath("wal_reset.wal");
  {
    auto log = OpenFileLog(path);
    log->Append(WalRecordType::kInsert, Payload({1}));
    log->Append(WalRecordType::kInsert, Payload({2}));
    ASSERT_TRUE(log->Commit(2).ok());
    ASSERT_TRUE(log->Reset(2).ok());  // checkpoint covers lsn <= 2
    EXPECT_EQ(log->base_lsn(), 2u);
    // Post-reset records continue the LSN sequence in the new epoch.
    EXPECT_EQ(log->Append(WalRecordType::kInsert, Payload({3})), 3u);
    ASSERT_TRUE(log->Commit(3).ok());
  }
  auto log = OpenFileLog(path);
  auto records = log->TakeRecoveredRecords();
  ASSERT_EQ(records.size(), 1u);  // pre-reset records are gone
  EXPECT_EQ(records[0].lsn, 3u);
  EXPECT_EQ(records[0].payload, Payload({3}));
  EXPECT_EQ(log->base_lsn(), 2u);
  ::unlink(path.c_str());
}

TEST(LogManagerTest, FailedFlushKeepsRecordsPendingForRetry) {
  auto fault = std::make_unique<FaultInjectingDiskManager>(
      std::make_unique<InMemoryDiskManager>());
  RetryPolicy no_retry;
  no_retry.max_attempts = 1;
  no_retry.backoff_us = 0;
  fault->set_retry_policy(no_retry);
  FaultInjectingDiskManager* fault_raw = fault.get();
  auto log = std::move(LogManager::Open(std::move(fault))).value();

  log->Append(WalRecordType::kInsert, Payload({1}));
  fault_raw->FailNthSync(fault_raw->sync_attempts() + 1,
                         FaultKind::kPermanent);
  Status st = log->Commit(1);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(log->durable_lsn(), 0u);

  // The records stayed pending: a later commit retries and succeeds.
  fault_raw->ClearFaults();
  ASSERT_TRUE(log->Commit(1).ok());
  EXPECT_EQ(log->durable_lsn(), 1u);
}

TEST(LogManagerTest, BufferPoolEnforcesWalRuleOnFlush) {
  // A data page stamped with LSN n must not reach its device before the
  // log is durable through n.
  auto log = std::move(LogManager::Open(
                           std::make_unique<InMemoryDiskManager>()))
                 .value();
  auto data_disk = std::make_unique<InMemoryDiskManager>();
  BufferPool pool(4, data_disk.get());
  pool.SetWal(log.get());

  page_id_t pid;
  auto guard = std::move(pool.NewGuard(&pid)).value();
  Lsn lsn = log->Append(WalRecordType::kInsert, Payload({1}));
  guard.page()->set_lsn(lsn);
  guard.MarkDirty();
  ASSERT_TRUE(guard.Drop().ok());
  EXPECT_EQ(log->durable_lsn(), 0u);  // nothing written back yet

  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_GE(log->durable_lsn(), lsn);  // flush forced the commit first
}

TEST(LogManagerTest, InMemoryWalKeepsOnlyEachCommitsUsedBytes) {
  // Every group commit starts a fresh log page. On an in-memory device a
  // single-row INSERT's page must cost about its used bytes, not 4 KB.
  auto data = std::make_unique<InMemoryDiskManager>();
  auto wal = std::make_unique<InMemoryDiskManager>();
  InMemoryDiskManager* wal_dev = wal.get();
  auto db = RecDB::OpenWithDisks(std::move(data), std::move(wal));
  ASSERT_TRUE(db.ok()) << db.status().message();
  ASSERT_TRUE(db.value()
                  ->Execute("CREATE TABLE r (uid INT, iid INT, v DOUBLE)")
                  .ok());
  const size_t pages_before = wal_dev->NumPages();
  const size_t bytes_before = wal_dev->ResidentBytes();
  constexpr int kCommits = 200;
  for (int k = 0; k < kCommits; ++k) {
    ASSERT_TRUE(db.value()
                    ->Execute("INSERT INTO r VALUES (" + std::to_string(k) +
                              ", 7, 3.5)")
                    .ok());
  }
  // One page per commit, as before; each holds far less than a page.
  EXPECT_GE(wal_dev->NumPages() - pages_before, size_t{kCommits});
  const size_t per_commit =
      (wal_dev->ResidentBytes() - bytes_before) / kCommits;
  EXPECT_LT(per_commit, kPageSize / 8) << per_commit << " bytes per commit";
}

TEST(WalTupleRecordTest, EncodeDecodeRoundTrip) {
  Rid rid{7, 3};
  std::vector<uint8_t> bytes = {1, 2, 3, 4};
  auto insert_payload = EncodeWalTupleRecord("Ratings", rid, &bytes);
  auto decoded = std::move(DecodeWalTupleRecord(insert_payload)).value();
  EXPECT_EQ(decoded.table, "Ratings");
  EXPECT_EQ(decoded.rid.page_id, 7);
  EXPECT_EQ(decoded.rid.slot, 3);
  EXPECT_EQ(decoded.bytes, bytes);

  auto delete_payload = EncodeWalTupleRecord("Ratings", rid, nullptr);
  auto decoded_del = std::move(DecodeWalTupleRecord(delete_payload)).value();
  EXPECT_TRUE(decoded_del.bytes.empty());

  // Truncated payloads surface as kDataLoss, not as garbage records.
  insert_payload.resize(insert_payload.size() / 2);
  EXPECT_EQ(DecodeWalTupleRecord(insert_payload).status().code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace recdb
