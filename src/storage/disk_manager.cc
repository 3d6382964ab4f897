#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace recdb {

namespace {

constexpr char kFileMagic[8] = {'R', 'E', 'C', 'D', 'B', 'F', '1', '\0'};

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Full pread/pwrite (restarting on EINTR and short transfers).
ssize_t PreadFull(int fd, void* buf, size_t count, uint64_t offset) {
  size_t done = 0;
  while (done < count) {
    ssize_t n = ::pread(fd, static_cast<char*>(buf) + done, count - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) break;  // EOF: caller zero-fills the rest
    done += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(done);
}

bool PwriteFull(int fd, const void* buf, size_t count, uint64_t offset) {
  size_t done = 0;
  while (done < count) {
    ssize_t n = ::pwrite(fd, static_cast<const char*>(buf) + done,
                         count - done, static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

void EncodeU32(char* dst, uint32_t v) { std::memcpy(dst, &v, sizeof(v)); }
uint32_t DecodeU32(const char* src) {
  uint32_t v;
  std::memcpy(&v, src, sizeof(v));
  return v;
}

bool AllZero(const char* buf, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    if (buf[i] != 0) return false;
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  static const std::array<uint32_t, 256> kTable = MakeCrcTable();
  uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = kTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- DiskManager (retry wrapper) ---------------------------------------------

Status DiskManager::RunWithRetry(OpKind kind, page_id_t pid, char* out,
                                 const char* src) {
  const int max_attempts = retry_policy_.max_attempts < 1
                               ? 1
                               : retry_policy_.max_attempts;
  uint64_t backoff_us = retry_policy_.backoff_us;
  Status st;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    if (attempt > 1) {
      ++num_retries_;
      obs::Count(obs::Counter::kDiskRetries);
      if (backoff_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
        backoff_us *= 2;
      }
    }
    st = kind == OpKind::kRead ? DoReadPage(pid, out) : DoWritePage(pid, src);
    if (st.ok()) {
      if (kind == OpKind::kRead) {
        ++num_reads_;
        obs::Count(obs::Counter::kDiskReads);
      } else {
        ++num_writes_;
        obs::Count(obs::Counter::kDiskWrites);
      }
      return st;
    }
    if (st.code() == StatusCode::kDataLoss) {
      ++num_checksum_failures_;
      obs::Count(obs::Counter::kDiskChecksumFailures);
    }
    if (!st.IsTransient()) break;  // permanent: retrying cannot help
  }
  if (kind == OpKind::kRead) {
    ++num_read_failures_;
    obs::Count(obs::Counter::kDiskReadFailures);
  } else {
    ++num_write_failures_;
    obs::Count(obs::Counter::kDiskWriteFailures);
  }
  return st;
}

Status DiskManager::ReadPage(page_id_t pid, char* out) {
  return RunWithRetry(OpKind::kRead, pid, out, nullptr);
}

Status DiskManager::WritePage(page_id_t pid, const char* src) {
  return RunWithRetry(OpKind::kWrite, pid, nullptr, src);
}

void DiskManager::ChargeLatency() const {
  if (page_latency_ns_ == 0) return;
  auto end = std::chrono::steady_clock::now() +
             std::chrono::nanoseconds(page_latency_ns_);
  while (std::chrono::steady_clock::now() < end) {
    // busy wait: sleep granularity is too coarse for sub-microsecond charges
  }
}

// --- InMemoryDiskManager -----------------------------------------------------

page_id_t InMemoryDiskManager::AllocatePage() {
  pages_.emplace_back();  // all zeros: nothing stored
  return static_cast<page_id_t>(pages_.size() - 1);
}

Status InMemoryDiskManager::DoReadPage(page_id_t pid, char* out) {
  if (pid < 0 || static_cast<size_t>(pid) >= pages_.size()) {
    return Status::IOError("read of unallocated page " + std::to_string(pid));
  }
  ChargeLatency();
  const StoredPage& page = pages_[pid];
  if (page.len > 0) std::memcpy(out, page.bytes.get(), page.len);
  std::memset(out + page.len, 0, kPageSize - page.len);
  return Status::OK();
}

Status InMemoryDiskManager::DoWritePage(page_id_t pid, const char* src) {
  if (pid < 0 || static_cast<size_t>(pid) >= pages_.size()) {
    return Status::IOError("write of unallocated page " + std::to_string(pid));
  }
  ChargeLatency();
  // The stored prefix ends at the last nonzero byte; skip zero words first.
  size_t len = kPageSize;
  static_assert(kPageSize % sizeof(uint64_t) == 0);
  for (uint64_t word = 0; len > 0; len -= sizeof(word)) {
    std::memcpy(&word, src + len - sizeof(word), sizeof(word));
    if (word != 0) break;
  }
  while (len > 0 && src[len - 1] == 0) --len;
  StoredPage& page = pages_[pid];
  if (len != page.len) {
    page.bytes.reset(len > 0 ? new char[len] : nullptr);
    resident_bytes_.fetch_add(len, std::memory_order_relaxed);
    resident_bytes_.fetch_sub(page.len, std::memory_order_relaxed);
    page.len = len;
  }
  if (len > 0) std::memcpy(page.bytes.get(), src, len);
  return Status::OK();
}

// --- FileDiskManager ---------------------------------------------------------

uint64_t FileDiskManager::SlotOffset(page_id_t pid) {
  return kFileHeaderSize +
         static_cast<uint64_t>(pid) * (kSlotHeaderSize + kPageSize);
}

Result<std::unique_ptr<FileDiskManager>> FileDiskManager::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  page_id_t next_page_id = 0;
  if (st.st_size == 0) {
    // Fresh database: stamp the header now so a reopen recognises the file.
    auto mgr = std::unique_ptr<FileDiskManager>(
        new FileDiskManager(path, fd, 0));
    RECDB_RETURN_NOT_OK(mgr->WriteFileHeader());
    return mgr;
  }
  char header[kFileHeaderSize] = {};
  ssize_t n = PreadFull(fd, header, kFileHeaderSize, 0);
  if (n != static_cast<ssize_t>(kFileHeaderSize) ||
      std::memcmp(header, kFileMagic, sizeof(kFileMagic)) != 0) {
    ::close(fd);
    return Status::IOError(path + " is not a recdb database file");
  }
  uint32_t stored_count = DecodeU32(header + sizeof(kFileMagic));
  uint32_t stored_crc = DecodeU32(header + sizeof(kFileMagic) + 4);
  if (stored_crc != Crc32(header, sizeof(kFileMagic) + 4)) {
    ::close(fd);
    return Status::DataLoss("corrupt file header in " + path);
  }
  // Trust the larger of the persisted high-water mark and the file extent,
  // so pages written after the last Sync() are still addressable.
  uint64_t by_size = 0;
  if (static_cast<uint64_t>(st.st_size) > kFileHeaderSize) {
    by_size = (static_cast<uint64_t>(st.st_size) - kFileHeaderSize +
               kSlotHeaderSize + kPageSize - 1) /
              (kSlotHeaderSize + kPageSize);
  }
  next_page_id = static_cast<page_id_t>(
      std::max<uint64_t>(stored_count, by_size));
  return std::unique_ptr<FileDiskManager>(
      new FileDiskManager(path, fd, next_page_id));
}

FileDiskManager::~FileDiskManager() {
  if (fd_ >= 0) {
    (void)WriteFileHeader();
    ::fsync(fd_);
    ::close(fd_);
  }
}

Status FileDiskManager::WriteFileHeader() {
  char header[kFileHeaderSize] = {};
  std::memcpy(header, kFileMagic, sizeof(kFileMagic));
  EncodeU32(header + sizeof(kFileMagic), static_cast<uint32_t>(next_page_id_));
  EncodeU32(header + sizeof(kFileMagic) + 4,
            Crc32(header, sizeof(kFileMagic) + 4));
  if (!PwriteFull(fd_, header, kFileHeaderSize, 0)) {
    return Status::IOError("header write failed for " + path_);
  }
  return Status::OK();
}

Status FileDiskManager::Sync() {
  RECDB_RETURN_NOT_OK(WriteFileHeader());
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed for " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status FileDiskManager::DoReadPage(page_id_t pid, char* out) {
  if (pid < 0 || pid >= next_page_id_) {
    return Status::IOError("read of unallocated page " + std::to_string(pid));
  }
  ChargeLatency();
  char slot[kSlotHeaderSize + kPageSize];
  ssize_t n = PreadFull(fd_, slot, sizeof(slot), SlotOffset(pid));
  if (n < 0) {
    return Status::IOError("pread failed for page " + std::to_string(pid) +
                           ": " + std::strerror(errno));
  }
  // Anything past EOF reads as zero (allocated-but-never-written tail).
  if (static_cast<size_t>(n) < sizeof(slot)) {
    std::memset(slot + n, 0, sizeof(slot) - static_cast<size_t>(n));
  }
  const char* payload = slot + kSlotHeaderSize;
  if (AllZero(slot, kSlotHeaderSize) && AllZero(payload, kPageSize)) {
    // File hole: a page that was allocated but never written back.
    std::memset(out, 0, kPageSize);
    return Status::OK();
  }
  uint32_t stored_crc = DecodeU32(slot);
  uint32_t stored_pid = DecodeU32(slot + 4);
  char crc_buf[4];
  EncodeU32(crc_buf, static_cast<uint32_t>(pid));
  uint32_t crc = Crc32(crc_buf, sizeof(crc_buf));
  crc ^= Crc32(payload, kPageSize);
  if (stored_pid != static_cast<uint32_t>(pid) || stored_crc != crc) {
    return Status::DataLoss("checksum mismatch on page " +
                            std::to_string(pid) + " of " + path_);
  }
  std::memcpy(out, payload, kPageSize);
  return Status::OK();
}

Status FileDiskManager::DoWritePage(page_id_t pid, const char* src) {
  if (pid < 0 || pid >= next_page_id_) {
    return Status::IOError("write of unallocated page " + std::to_string(pid));
  }
  ChargeLatency();
  char slot[kSlotHeaderSize + kPageSize] = {};
  char crc_buf[4];
  EncodeU32(crc_buf, static_cast<uint32_t>(pid));
  uint32_t crc = Crc32(crc_buf, sizeof(crc_buf)) ^ Crc32(src, kPageSize);
  EncodeU32(slot, crc);
  EncodeU32(slot + 4, static_cast<uint32_t>(pid));
  std::memcpy(slot + kSlotHeaderSize, src, kPageSize);
  if (!PwriteFull(fd_, slot, sizeof(slot), SlotOffset(pid))) {
    return Status::IOError("pwrite failed for page " + std::to_string(pid) +
                           ": " + std::strerror(errno));
  }
  return Status::OK();
}

Status FileDiskManager::TornWrite(page_id_t pid, const char* src,
                                  size_t valid_bytes) {
  if (pid < 0 || pid >= next_page_id_) {
    return Status::IOError("torn write of unallocated page " +
                           std::to_string(pid));
  }
  if (valid_bytes > kPageSize) valid_bytes = kPageSize;
  // Header carries the checksum of the FULL intended payload, but only the
  // first `valid_bytes` of it reach the file — the on-disk state a power
  // failure between sectors leaves behind.
  char crc_buf[4];
  EncodeU32(crc_buf, static_cast<uint32_t>(pid));
  uint32_t crc = Crc32(crc_buf, sizeof(crc_buf)) ^ Crc32(src, kPageSize);
  char header[kSlotHeaderSize] = {};
  EncodeU32(header, crc);
  EncodeU32(header + 4, static_cast<uint32_t>(pid));
  if (!PwriteFull(fd_, header, sizeof(header), SlotOffset(pid)) ||
      !PwriteFull(fd_, src, valid_bytes, SlotOffset(pid) + kSlotHeaderSize)) {
    return Status::IOError("torn write failed for page " +
                           std::to_string(pid));
  }
  // Clobber the tail with a recognisable pattern so the corruption is real
  // even if the slot previously held the same data.
  std::vector<char> junk(kPageSize - valid_bytes, '\xDE');
  if (!junk.empty() &&
      !PwriteFull(fd_, junk.data(), junk.size(),
                  SlotOffset(pid) + kSlotHeaderSize + valid_bytes)) {
    return Status::IOError("torn write failed for page " +
                           std::to_string(pid));
  }
  return Status::OK();
}

// --- FaultInjectingDiskManager -----------------------------------------------

double FaultInjectingDiskManager::NextRandom() {
  // xorshift64*: deterministic, seed-stable across platforms.
  uint64_t x = rng_state_;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  rng_state_ = x;
  return static_cast<double>((x * 0x2545F4914F6CDD1Dull) >> 11) /
         static_cast<double>(1ull << 53);
}

std::optional<FaultKind> FaultInjectingDiskManager::NextFault(
    std::map<uint64_t, FaultKind>* schedule, uint64_t attempt, double rate) {
  auto it = schedule->find(attempt);
  if (it != schedule->end()) {
    FaultKind kind = it->second;
    schedule->erase(it);
    return kind;
  }
  if (rate > 0 && NextRandom() < rate) return random_kind_;
  return std::nullopt;
}

Status FaultInjectingDiskManager::DoReadPage(page_id_t pid, char* out) {
  ++read_attempts_;
  auto fault = NextFault(&read_faults_, read_attempts_, read_rate_);
  if (fault.has_value()) {
    ++num_injected_;
    if (*fault == FaultKind::kTransient) {
      return Status::Unavailable("injected transient read fault (attempt " +
                                 std::to_string(read_attempts_) + ")");
    }
    return Status::IOError("injected permanent read fault (attempt " +
                           std::to_string(read_attempts_) + ")");
  }
  return inner_->ReadPage(pid, out);
}

Status FaultInjectingDiskManager::Sync() {
  ++sync_attempts_;
  auto it = sync_faults_.find(sync_attempts_);
  if (it != sync_faults_.end()) {
    FaultKind kind = it->second;
    sync_faults_.erase(it);
    ++num_injected_;
    if (kind == FaultKind::kTransient) {
      return Status::Unavailable("injected transient sync fault (attempt " +
                                 std::to_string(sync_attempts_) + ")");
    }
    // kTorn has no meaning for a barrier; treat as a hard failure. Nothing
    // written since the last successful Sync is guaranteed durable.
    return Status::IOError("injected sync fault (attempt " +
                           std::to_string(sync_attempts_) + ")");
  }
  return inner_->Sync();
}

Status FaultInjectingDiskManager::DoWritePage(page_id_t pid, const char* src) {
  ++write_attempts_;
  auto fault = NextFault(&write_faults_, write_attempts_, write_rate_);
  if (fault.has_value()) {
    ++num_injected_;
    switch (*fault) {
      case FaultKind::kTransient:
        return Status::Unavailable("injected transient write fault (attempt " +
                                   std::to_string(write_attempts_) + ")");
      case FaultKind::kPermanent:
        return Status::IOError("injected permanent write fault (attempt " +
                               std::to_string(write_attempts_) + ")");
      case FaultKind::kTorn: {
        // Half the payload reaches the device, then the write "fails".
        if (auto* file = dynamic_cast<FileDiskManager*>(inner_.get())) {
          (void)file->TornWrite(pid, src, kPageSize / 2);
        } else {
          // No checksum below us: emulate by persisting a corrupted image.
          std::vector<char> torn(src, src + kPageSize);
          std::memset(torn.data() + kPageSize / 2, '\xDE', kPageSize / 2);
          (void)inner_->WritePage(pid, torn.data());
        }
        return Status::IOError("injected torn write (attempt " +
                               std::to_string(write_attempts_) + ")");
      }
    }
  }
  return inner_->WritePage(pid, src);
}

}  // namespace recdb
