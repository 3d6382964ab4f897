// RatingMatrix: the in-memory user/item ratings store a model is built
// from (paper input: users U, items I, ratings R).
//
// External ids are arbitrary int64 (as stored in the ratings table); they are
// mapped to dense indices. Both user-major and item-major orientations are
// kept so item-item and user-user algorithms each get their natural access
// pattern.
//
// Storage contract: each orientation is one RowStore — an immutable
// flat-CSR base plus copy-on-write live rows. Before the first Freeze()
// every row is live. Freeze() flattens both orientations into the base and
// drops the live rows; after that a write copies the row it touches out of
// the base on its first write since the last flatten and upserts it in
// place, so each write edits one row per orientation and logs one DeltaOp.
// The row view (UserCsrRow/ItemCsrRow) reads a live row when there is one
// and the base row otherwise, so kernels see exactly what a rebuilt CSR
// would hold, byte for byte. A background re-freeze (BuildMergedCsr +
// CommitRefreeze) flattens base plus live rows into a fresh base and drops
// the live rows; the Base*CsrRow views read the base alone.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace recdb {

/// Frozen flat-CSR form of one orientation: row r's entries live at
/// [offsets[r], offsets[r+1]) in the parallel `idx`/`rating` arrays, sorted
/// by idx. One contiguous allocation per array — batch scoring kernels walk
/// rows without chasing a pointer per row.
struct FlatCsr {
  std::vector<int64_t> offsets;  // size = rows + 1
  std::vector<int32_t> idx;
  std::vector<double> rating;

  size_t ApproxBytes() const {
    return sizeof(FlatCsr) + offsets.capacity() * sizeof(int64_t) +
           idx.capacity() * sizeof(int32_t) +
           rating.capacity() * sizeof(double);
  }
};

/// A view of one CSR row: `n` entries, idx-ascending, contiguous.
struct CsrRow {
  const int32_t* idx = nullptr;
  const double* rating = nullptr;
  size_t n = 0;
};

/// One orientation of the matrix: the flat-CSR base plus the live rows
/// written since the last flatten, each a sorted SoA copy reached through a
/// per-row slot (-1 = the row reads the base).
class RowStore {
 public:
  size_t num_rows() const { return slot_.size(); }
  size_t base_rows() const {
    return base_.offsets.empty() ? 0 : base_.offsets.size() - 1;
  }

  /// The merged row: its live copy if written since the last flatten, else
  /// its base row. Negative and unknown rows read as empty.
  CsrRow Row(int32_t r) const {
    if (r < 0 || static_cast<size_t>(r) >= slot_.size()) return {};
    const int32_t s = slot_[r];
    if (s < 0) return BaseRow(r);
    const LiveRow& row = live_[s];
    return {row.idx.data(), row.rating.data(), row.idx.size()};
  }
  /// The row as of the last flatten (empty for rows the base does not hold).
  CsrRow BaseRow(int32_t r) const {
    if (r < 0 || static_cast<size_t>(r) >= base_rows()) return {};
    const int64_t b = base_.offsets[r];
    return {base_.idx.data() + b, base_.rating.data() + b,
            static_cast<size_t>(base_.offsets[r + 1] - b)};
  }

  void AddRow() { slot_.push_back(-1); }
  /// Set row r's entry for `idx`; returns true when the entry is new.
  bool Upsert(int32_t r, int32_t idx, double rating);
  /// Erase row r's entry for `idx`; returns false when it was absent.
  bool Erase(int32_t r, int32_t idx);

  /// Base plus live rows, flattened into a fresh base.
  FlatCsr Flatten() const;
  /// Install a flattened base and drop every live row.
  void Reset(FlatCsr&& base);

  size_t ApproxBytes() const;

 private:
  struct LiveRow {
    std::vector<int32_t> idx;
    std::vector<double> rating;
  };
  /// Row r's live copy, copied out of the base on first use.
  LiveRow& Live(int32_t r);

  FlatCsr base_;
  std::vector<int32_t> slot_;
  std::vector<LiveRow> live_;
};

/// What Add() actually did — callers use this to keep maintenance pressure
/// and the paper's GlobalMean bookkeeping honest.
enum class RatingChange {
  kInserted,     // a new (user, item) pair
  kOverwritten,  // existing pair, different value
  kUnchanged,    // existing pair, same value: a complete no-op
};

/// One entry of the delta op log kept while the matrix is frozen. Indices
/// are dense (valid against the merged matrix); the log is what incremental
/// model maintenance scopes its touched-row sets from.
struct DeltaOp {
  enum class Kind : uint8_t { kAdd, kOverwrite, kRemove };
  Kind kind = Kind::kAdd;
  int32_t user_idx = 0;
  int32_t item_idx = 0;
};

class RatingMatrix {
 public:
  RatingMatrix() = default;

  /// Add one rating. A repeated (user, item) pair overwrites the old rating;
  /// overwriting with the *same* value is a complete no-op (no version bump,
  /// no delta op, no sum adjustment — see RatingChange). While frozen, the
  /// mutation lands in a live row instead of invalidating the base.
  RatingChange Add(int64_t user_id, int64_t item_id, double rating);

  /// Remove a rating; returns false if it was not present. Interned ids
  /// remain (a user/item with no ratings keeps an empty row).
  bool Remove(int64_t user_id, int64_t item_id);

  /// One op of a multi-row statement fed to ApplyBatch.
  struct BatchRatingOp {
    bool remove = false;
    int64_t user_id = 0;
    int64_t item_id = 0;
    double rating = 0;
  };

  /// Outcome of ApplyBatch: per-kind effective-op counts plus a flag per
  /// input op (1 when it changed the matrix), aligned with the input order.
  struct BatchResult {
    size_t inserted = 0;
    size_t overwritten = 0;
    size_t removed = 0;
    size_t noops = 0;
    std::vector<uint8_t> effective;

    size_t effective_ops() const { return inserted + overwritten + removed; }
  };

  /// Apply one statement's rating mutations as a single versioned delta
  /// batch: ops land in order (each still logs its own DeltaOp, so model
  /// maintenance sees every mutation) and the version counter bumps once —
  /// the batched path a multi-row INSERT/UPDATE/DELETE takes. Equivalent
  /// to the per-op loop in everything but the version count.
  BatchResult ApplyBatch(const std::vector<BatchRatingOp>& ops);

  size_t NumUsers() const { return user_ids_.size(); }
  size_t NumItems() const { return item_ids_.size(); }
  size_t NumRatings() const { return num_ratings_; }

  /// Dense index of an external id, if known.
  std::optional<int32_t> UserIndex(int64_t user_id) const;
  std::optional<int32_t> ItemIndex(int64_t item_id) const;

  int64_t UserIdAt(int32_t idx) const { return user_ids_[idx]; }
  int64_t ItemIdAt(int32_t idx) const { return item_ids_[idx]; }

  /// Append the indices in [begin, end) of the items a user has not rated,
  /// ascending — one merge against the user's index-sorted row.
  void UnseenItems(int32_t user_idx, size_t begin, size_t end,
                   std::vector<int32_t>* out) const;
  /// External ids of the items a user has not rated, in index order.
  std::vector<int64_t> UnseenItemIds(int32_t user_idx) const;

  /// Rating of (user, item) by dense index, if present.
  std::optional<double> GetByIndex(int32_t user_idx, int32_t item_idx) const;

  /// Rating of (user, item) by external id, if present.
  std::optional<double> Get(int64_t user_id, int64_t item_id) const;

  /// Mean of all ratings (0 when empty).
  double GlobalMean() const;

  /// Mean of one user's / item's ratings (0 when empty).
  double UserMean(int32_t user_idx) const;
  double ItemMean(int32_t item_idx) const;

  /// All external item ids (for operators that enumerate candidates).
  const std::vector<int64_t>& item_ids() const { return item_ids_; }
  const std::vector<int64_t>& user_ids() const { return user_ids_; }

  /// Flatten both orientations into the base. First call freezes the
  /// matrix; on an already-frozen matrix with a pending delta this merges
  /// the live rows into a fresh base, and with no delta it is a no-op.
  /// Model factories call this at build time so the base holds every row.
  void Freeze();
  bool frozen() const { return frozen_; }

  // --- delta since the last flatten ---------------------------------------

  /// True when mutations have landed since the last freeze.
  bool has_delta() const { return !delta_ops_.empty(); }
  /// Number of ops in the delta log since the last (re)freeze.
  size_t delta_size() const { return delta_ops_.size(); }
  /// The op log itself (model maintenance scopes touched rows from it).
  const std::vector<DeltaOp>& delta_ops() const { return delta_ops_; }

  /// Monotonic mutation counter: bumps on every effective Add/Remove (once
  /// per ApplyBatch). A re-freeze prepared against version V commits only
  /// if the matrix is still at V (optimistic two-phase refresh).
  uint64_t version() const { return version_; }

  /// A re-freeze candidate: both orientations flattened from base plus live
  /// rows, stamped with the matrix version it was built from. Const — safe
  /// to run under a shared lock while readers score through the row view.
  struct MergedCsr {
    FlatCsr user;
    FlatCsr item;
    uint64_t version = 0;
  };
  MergedCsr BuildMergedCsr() const;

  /// Swap a prepared MergedCsr in as the new base and drop the live rows
  /// and the delta log. Returns false (and changes nothing) if the matrix
  /// version moved since the candidate was built — the caller retries or
  /// falls back to an exclusive Freeze().
  bool CommitRefreeze(MergedCsr&& merged);

  /// Row views — the one way to read a row. A row written since the last
  /// flatten reads its live copy, any other row its base row; negative
  /// and unknown indices read as empty.
  CsrRow UserCsrRow(int32_t user_idx) const { return users_.Row(user_idx); }
  CsrRow ItemCsrRow(int32_t item_idx) const { return items_.Row(item_idx); }

  /// Base-only row views: the rows as of the last flatten. No scoring path
  /// reads them; they expose the copy-on-write contract (a write never
  /// edits the base) to inspection.
  CsrRow BaseUserCsrRow(int32_t user_idx) const {
    return users_.BaseRow(user_idx);
  }
  CsrRow BaseItemCsrRow(int32_t item_idx) const {
    return items_.BaseRow(item_idx);
  }

  /// Footprint of both orientations (base, live rows) plus the delta log —
  /// model ApproxBytes implementations add this so memory accounting sees
  /// the ratings.
  size_t CsrApproxBytes() const;

 private:
  int32_t InternUser(int64_t user_id);
  int32_t InternItem(int64_t item_id);
  /// Mutation cores shared by the per-row and batched paths: everything an
  /// Add/Remove does except the version bump, which the caller performs
  /// once (per op, or per batch).
  RatingChange DoAdd(int64_t user_id, int64_t item_id, double rating);
  bool DoRemove(int64_t user_id, int64_t item_id);

  std::vector<int64_t> user_ids_;
  std::vector<int64_t> item_ids_;
  std::unordered_map<int64_t, int32_t> user_index_;
  std::unordered_map<int64_t, int32_t> item_index_;
  RowStore users_;  // row u: (item idx, rating), item-ascending
  RowStore items_;  // row i: (user idx, rating), user-ascending
  size_t num_ratings_ = 0;
  double rating_sum_ = 0;
  bool frozen_ = false;
  std::vector<DeltaOp> delta_ops_;
  uint64_t version_ = 0;
};

}  // namespace recdb
