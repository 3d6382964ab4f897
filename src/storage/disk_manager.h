// DiskManager: the "disk" under the buffer pool.
//
// The paper's operators are described in terms of block-at-a-time I/O over
// PostgreSQL heap files, where I/O can and does fail. This layer reproduces
// both the cost model and the failure model behind one abstract interface:
//
//   - InMemoryDiskManager: a page vector that counts every read/write and can
//     optionally charge a per-page latency (the seed's behaviour).
//   - FileDiskManager: persists pages to a single database file. Every page
//     slot carries an on-disk header with a CRC32 checksum; a torn or corrupt
//     page surfaces as kDataLoss on ReadPage. Sync() is an fsync durability
//     barrier.
//   - FaultInjectingDiskManager: decorator with deterministic, seeded fault
//     schedules (fail the Nth read/write attempt, transient vs permanent
//     errors, torn writes) for testing the error paths above the disk.
//
// The public ReadPage/WritePage entry points implement a bounded
// retry-with-backoff policy: transient faults (kUnavailable) are retried up
// to RetryPolicy::max_attempts before the error escapes to the buffer pool.
// Fault counters (read/write failures, retries, checksum failures) are
// maintained here so every layer above can observe fault behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace recdb {

/// Bounded retry-with-backoff for transient I/O faults.
struct RetryPolicy {
  /// Total attempts per logical read/write (1 = no retry).
  int max_attempts = 3;
  /// Backoff before the first retry; doubles per subsequent retry.
  /// 0 disables the wait (what deterministic tests want).
  uint64_t backoff_us = 100;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `len` bytes, seeded so the
/// checksum of an all-zero buffer is non-zero. Exposed for tests.
uint32_t Crc32(const void* data, size_t len);

class DiskManager {
 public:
  DiskManager() = default;
  virtual ~DiskManager() = default;

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocate a fresh zeroed page, returning its id.
  virtual page_id_t AllocatePage() = 0;

  /// Read page `pid` into `out` (kPageSize bytes), retrying transient
  /// faults per the retry policy. kDataLoss on checksum mismatch.
  Status ReadPage(page_id_t pid, char* out);

  /// Write kPageSize bytes from `src` to page `pid`, retrying transient
  /// faults per the retry policy.
  Status WritePage(page_id_t pid, const char* src);

  /// Durability barrier: everything written before Sync() survives a crash
  /// after it. No-op for in-memory devices; fsync for file-backed ones.
  virtual Status Sync() { return Status::OK(); }

  virtual size_t NumPages() const = 0;

  /// True when pages survive process exit (file-backed devices); layers
  /// above use this to decide whether catalog metadata must be persisted.
  virtual bool persistent() const { return false; }

  // I/O accounting. Counters are relaxed atomics: concurrent sessions read
  // them (per-script I/O deltas) while other sessions issue I/O.
  uint64_t num_reads() const {
    return num_reads_.load(std::memory_order_relaxed);
  }
  uint64_t num_writes() const {
    return num_writes_.load(std::memory_order_relaxed);
  }
  // Fault accounting (ReadPage/WritePage calls that failed after retries,
  // transient-fault retries performed, checksum verification failures).
  uint64_t num_read_failures() const {
    return num_read_failures_.load(std::memory_order_relaxed);
  }
  uint64_t num_write_failures() const {
    return num_write_failures_.load(std::memory_order_relaxed);
  }
  uint64_t num_retries() const {
    return num_retries_.load(std::memory_order_relaxed);
  }
  uint64_t num_checksum_failures() const {
    return num_checksum_failures_.load(std::memory_order_relaxed);
  }
  void ResetCounters() {
    num_reads_ = num_writes_ = 0;
    num_read_failures_ = num_write_failures_ = 0;
    num_retries_ = num_checksum_failures_ = 0;
  }

  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Emulated device latency charged per physical page access (busy-wait in
  /// nanoseconds; 0 = off). Lets benchmarks model magnetic-disk behaviour.
  void set_page_latency_ns(uint64_t ns) { page_latency_ns_ = ns; }

 protected:
  /// One physical read/write attempt (no retries; subclasses implement).
  virtual Status DoReadPage(page_id_t pid, char* out) = 0;
  virtual Status DoWritePage(page_id_t pid, const char* src) = 0;

  void ChargeLatency() const;
  void CountChecksumFailure() { ++num_checksum_failures_; }

 private:
  enum class OpKind { kRead, kWrite };
  Status RunWithRetry(OpKind kind, page_id_t pid, char* out, const char* src);

  RetryPolicy retry_policy_;
  std::atomic<uint64_t> num_reads_{0};
  std::atomic<uint64_t> num_writes_{0};
  std::atomic<uint64_t> num_read_failures_{0};
  std::atomic<uint64_t> num_write_failures_{0};
  std::atomic<uint64_t> num_retries_{0};
  std::atomic<uint64_t> num_checksum_failures_{0};
  uint64_t page_latency_ns_ = 0;
};

/// The seed's purely in-memory page store: never fails (beyond bounds
/// checks), zero-latency unless configured otherwise. Each page keeps only
/// the bytes up to its last nonzero one and reads the rest back as zeros,
/// so a WAL page holding one small commit costs its ~100 used bytes, not a
/// full page.
class InMemoryDiskManager : public DiskManager {
 public:
  page_id_t AllocatePage() override;
  size_t NumPages() const override { return pages_.size(); }

  /// Page bytes held in memory: the sum of every page's stored prefix.
  size_t ResidentBytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 protected:
  Status DoReadPage(page_id_t pid, char* out) override;
  Status DoWritePage(page_id_t pid, const char* src) override;

 private:
  struct StoredPage {
    std::unique_ptr<char[]> bytes;
    size_t len = 0;  // bytes past len are zero
  };
  std::vector<StoredPage> pages_;
  std::atomic<size_t> resident_bytes_{0};
};

/// Single-file page store with per-page CRC32 checksums.
///
/// File layout (little-endian):
///   [file header, kFileHeaderSize bytes]
///     magic "RECDBF1\0" | u32 page_count | u32 header_crc (over the above)
///   [page slot 0][page slot 1]...
/// Each page slot is kSlotHeaderSize + kPageSize bytes:
///     u32 crc (over page_id then payload) | u32 page_id | u64 reserved
///
/// A slot that is entirely zero denotes an allocated-but-never-written page
/// (a file hole) and reads back as zeroes; any other slot must pass checksum
/// and page-id verification or ReadPage returns kDataLoss.
class FileDiskManager : public DiskManager {
 public:
  static constexpr size_t kFileHeaderSize = 64;
  static constexpr size_t kSlotHeaderSize = 16;

  /// Open (or create) the database file at `path`.
  static Result<std::unique_ptr<FileDiskManager>> Open(const std::string& path);

  ~FileDiskManager() override;

  page_id_t AllocatePage() override { return next_page_id_++; }
  size_t NumPages() const override { return static_cast<size_t>(next_page_id_); }

  /// fsync barrier; also persists the allocation high-water mark in the
  /// file header so a reopened database never re-issues a live page id.
  Status Sync() override;

  bool persistent() const override { return true; }

  const std::string& path() const { return path_; }

  /// Test hook: simulate a torn write of `src` to `pid` — the slot header
  /// (with the checksum of the FULL intended payload) and only the first
  /// `valid_bytes` of payload reach the file, as when power fails between
  /// sectors. A subsequent ReadPage of `pid` must return kDataLoss.
  Status TornWrite(page_id_t pid, const char* src, size_t valid_bytes);

 protected:
  Status DoReadPage(page_id_t pid, char* out) override;
  Status DoWritePage(page_id_t pid, const char* src) override;

 private:
  FileDiskManager(std::string path, int fd, page_id_t next_page_id)
      : path_(std::move(path)), fd_(fd), next_page_id_(next_page_id) {}

  static uint64_t SlotOffset(page_id_t pid);
  Status WriteFileHeader();

  std::string path_;
  int fd_ = -1;
  page_id_t next_page_id_ = 0;
};

/// Kinds of injected faults.
enum class FaultKind {
  kTransient,  // fails with kUnavailable; a retry may succeed
  kPermanent,  // fails with kIOError; retries don't help
  kTorn,       // writes only: half the payload reaches the inner device,
               // then the write reports failure (kIOError)
};

/// Decorator that injects deterministic faults into an inner DiskManager.
///
/// Faults are scheduled against per-kind *attempt* counters (1-based; the
/// retry loop's re-attempts advance the counter too, so a transient fault at
/// read attempt N is naturally retried as attempt N+1). A seeded random
/// failure rate can be layered on top for soak testing; it is deterministic
/// for a given seed and call sequence.
class FaultInjectingDiskManager : public DiskManager {
 public:
  explicit FaultInjectingDiskManager(std::unique_ptr<DiskManager> inner)
      : inner_(std::move(inner)) {}

  /// Fail the `attempt`-th read/write attempt (1-based, counted from
  /// construction or the last ClearFaults()).
  void FailNthRead(uint64_t attempt, FaultKind kind = FaultKind::kTransient) {
    read_faults_[attempt] = kind;
  }
  void FailNthWrite(uint64_t attempt, FaultKind kind = FaultKind::kTransient) {
    write_faults_[attempt] = kind;
  }
  /// Fail the `attempt`-th Sync() call (1-based). kTorn is not meaningful
  /// for a barrier and is treated as kPermanent. Crash-recovery tests use
  /// this as the "inside the group-commit fsync" kill point.
  void FailNthSync(uint64_t attempt, FaultKind kind = FaultKind::kPermanent) {
    sync_faults_[attempt] = kind;
  }

  /// Seeded random faults: each attempt fails with probability `rate`.
  void SetRandomFaults(double read_rate, double write_rate, uint64_t seed,
                       FaultKind kind = FaultKind::kTransient) {
    read_rate_ = read_rate;
    write_rate_ = write_rate;
    rng_state_ = seed | 1;
    random_kind_ = kind;
  }

  void ClearFaults() {
    read_faults_.clear();
    write_faults_.clear();
    sync_faults_.clear();
    read_rate_ = write_rate_ = 0;
    read_attempts_ = write_attempts_ = sync_attempts_ = 0;
  }

  uint64_t num_injected_faults() const { return num_injected_; }
  uint64_t read_attempts() const { return read_attempts_; }
  uint64_t write_attempts() const { return write_attempts_; }
  uint64_t sync_attempts() const { return sync_attempts_; }

  DiskManager* inner() { return inner_.get(); }

  page_id_t AllocatePage() override { return inner_->AllocatePage(); }
  size_t NumPages() const override { return inner_->NumPages(); }
  Status Sync() override;
  bool persistent() const override { return inner_->persistent(); }

 protected:
  Status DoReadPage(page_id_t pid, char* out) override;
  Status DoWritePage(page_id_t pid, const char* src) override;

 private:
  /// Fault scheduled for this attempt, if any (consumes one-shot entries).
  std::optional<FaultKind> NextFault(std::map<uint64_t, FaultKind>* schedule,
                                     uint64_t attempt, double rate);
  double NextRandom();

  std::unique_ptr<DiskManager> inner_;
  std::map<uint64_t, FaultKind> read_faults_;
  std::map<uint64_t, FaultKind> write_faults_;
  std::map<uint64_t, FaultKind> sync_faults_;
  uint64_t read_attempts_ = 0;
  uint64_t write_attempts_ = 0;
  uint64_t sync_attempts_ = 0;
  double read_rate_ = 0;
  double write_rate_ = 0;
  FaultKind random_kind_ = FaultKind::kTransient;
  uint64_t rng_state_ = 1;
  uint64_t num_injected_ = 0;
};

}  // namespace recdb
