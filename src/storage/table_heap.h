// TableHeap: a linked list of slotted pages storing one table's tuples.
//
// Access pattern matches the paper's operators: sequential block-at-a-time
// scans through the buffer pool (one pin per page, see Iterator) and
// append-mostly inserts.
//
// With a LogManager attached (EnableLogging), every mutation appends a
// logical WAL record and stamps both the on-disk page_lsn (REDO idempotency
// watermark) and the in-memory Page lsn (buffer-pool WAL rule) while the
// page is still pinned, so an eviction can never write back an unstamped
// mutation. The Redo* entry points replay those records over a checkpoint
// image in LSN order.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/table_page.h"
#include "types/tuple.h"

namespace recdb {

class BoundExpr;
class LogManager;

/// Decoded payload of a tuple-level WAL record (kInsert/kDelete/kUpdate).
struct WalTupleRecord {
  std::string table;
  Rid rid{};
  std::vector<uint8_t> bytes;  // serialized tuple; empty for kDelete
};

/// Payload codec for tuple-level WAL records; `bytes` is null for kDelete.
std::vector<uint8_t> EncodeWalTupleRecord(const std::string& table,
                                          const Rid& rid,
                                          const std::vector<uint8_t>* bytes);
Result<WalTupleRecord> DecodeWalTupleRecord(
    const std::vector<uint8_t>& payload);

/// What a heap scan returns: the rows that satisfy `predicate` (every row
/// when null), carrying their columns, or zero-width when `emit_columns` is
/// false (a parent that reads no column, such as COUNT(*)).
struct ScanSpec {
  const BoundExpr* predicate = nullptr;
  bool emit_columns = true;
};

class TableHeap {
 public:
  /// Create a new heap file (allocates the first page).
  static Result<std::unique_ptr<TableHeap>> Create(BufferPool* pool);

  /// Re-attach to a heap whose pages already exist on disk (used when a
  /// file-backed database is reopened from its persisted catalog).
  static std::unique_ptr<TableHeap> Attach(BufferPool* pool,
                                           page_id_t first_page_id,
                                           page_id_t last_page_id,
                                           size_t num_tuples);

  /// Start WAL-logging mutations under `table_name` (the name REDO uses to
  /// route records back to this heap). Records are buffered; the caller
  /// owns commit timing.
  void EnableLogging(LogManager* log, std::string table_name) {
    log_ = log;
    table_name_ = std::move(table_name);
  }

  /// Insert a tuple, returning its record id.
  Result<Rid> Insert(const Tuple& tuple);

  /// Read the tuple at `rid` (`num_values` = column count of the schema).
  Result<Tuple> Get(const Rid& rid, size_t num_values) const;

  /// Delete the tuple at `rid`.
  Status Delete(const Rid& rid);

  /// Update in place when possible; otherwise delete + re-insert.
  /// Returns the (possibly new) rid.
  Result<Rid> Update(const Rid& rid, const Tuple& tuple);

  // REDO entry points: re-apply a recovered WAL record over the checkpoint
  // image. Must be called in LSN order. Page mutations are skipped when the
  // page's persisted page_lsn already covers the record, but the in-memory
  // tuple count always adjusts (catalog counts are checkpoint-time).
  Status RedoInsert(const Rid& rid, const std::vector<uint8_t>& bytes,
                    uint64_t lsn);
  Status RedoDelete(const Rid& rid, uint64_t lsn);
  Status RedoUpdate(const Rid& rid, const std::vector<uint8_t>& bytes,
                    uint64_t lsn);

  /// Clear a dangling next-page link on the tail page — left behind when a
  /// crashed run flushed the tail after chaining a fresh page whose insert
  /// never committed. Scans would otherwise walk into unformatted pages.
  Status RepairTail(bool* repaired);

  page_id_t first_page_id() const { return first_page_id_; }
  page_id_t last_page_id() const { return last_page_id_; }
  size_t num_tuples() const { return num_tuples_; }

  /// Forward iterator over the live tuples a ScanSpec selects, in (page,
  /// slot) order. Usage:
  ///   auto it = heap.Begin(ncols, spec);
  ///   while (true) {
  ///     auto next = it.Next();           // Result<optional<pair<Rid,Tuple>>>
  ///     if (!next.ok()) ...error...
  ///     if (!next.value()) break;        // exhausted
  ///   }
  /// Block at a time: when the scan first reaches a page, Next() pins it
  /// once, checks that every live slot decodes, copies the page, and
  /// unpins it. A scan therefore holds at most one pinned frame, and only
  /// inside Next(); a page with a read or decode error is served not at
  /// all, and calling Next() again retries it.
  ///
  /// Next() then walks the copied slots. With a predicate it decodes only
  /// the columns the predicate reads into a reused scratch row and calls
  /// BoundExpr::EvalPredicate on it, one row per step, so a predicate error
  /// surfaces at the row that raised it; only a row that passes becomes a
  /// Tuple. The rows, rids, order and Statuses are those of evaluating the
  /// predicate on every fully decoded row.
  class Iterator {
   public:
    Iterator(const TableHeap* heap, size_t num_values, ScanSpec spec);

    /// Next live tuple that passes, or nullopt at end.
    Result<std::optional<std::pair<Rid, Tuple>>> Next();

    /// Live slots examined so far, passing or not.
    uint64_t rows_examined() const { return rows_examined_; }

   private:
    /// Check every live slot of page `page_id_`, copy the page, and
    /// advance `page_id_` to its successor.
    Status LoadPage();

    struct Slot {
      uint16_t slot;
      uint16_t offset;  // into page_
      uint16_t len;
    };

    const TableHeap* heap_;
    ScanSpec spec_;
    std::vector<bool> pred_columns_;  // columns the predicate reads
    page_id_t page_id_;               // next page to load
    page_id_t loaded_page_ = kInvalidPageId;
    std::array<uint8_t, kPageSize> page_;  // copy of the loaded page
    std::vector<Slot> slots_;              // its live slots
    size_t pos_ = 0;  // next slot to examine
    Tuple scratch_;   // num_values wide; holds the predicate's columns
    uint64_t rows_examined_ = 0;
  };

  Iterator Begin(size_t num_values, ScanSpec spec = {}) const {
    return Iterator(this, num_values, spec);
  }

 private:
  explicit TableHeap(BufferPool* pool) : pool_(pool) {}

  BufferPool* pool_;
  LogManager* log_ = nullptr;
  std::string table_name_;
  page_id_t first_page_id_ = kInvalidPageId;
  page_id_t last_page_id_ = kInvalidPageId;
  size_t num_tuples_ = 0;
};

}  // namespace recdb
