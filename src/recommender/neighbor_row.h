// NeighborRow: one row of a neighborhood table (paper Item/User
// Neighborhood Table), the one layout every CF model stores.
//
// A row is a list of runs of consecutive neighbor indices, {first, count},
// over one contiguous float array of similarity cells. A gap of at most
// kMaxBridge missing indices between two entries is bridged with 0.0f
// cells, because two zero cells cost no more than a new run header. A zero
// cell is never an entry (similarity builds drop sim == 0), so iteration
// and lookup skip it; scoring kernels may add it (DESIGN.md §10 shows the
// +0 terms leave every Eq. (2) sum's bits unchanged).
//
// The form is canonical: runs are the maximal groups of entries whose
// consecutive indices differ by at most kMaxBridge + 1, each spanning its
// first to its last entry. So two rows holding the same entries are equal
// byte for byte, however they were built or edited (DESIGN.md §12).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace recdb {

/// One neighbor in a similarity list: (neighbor dense index, SimScore).
struct Neighbor {
  int32_t idx = 0;
  float sim = 0;
};

class NeighborRow {
 public:
  /// Neighbors first .. first + count - 1, whose cells are consecutive in
  /// cells(), after the cells of every earlier run.
  struct Run {
    int32_t first = 0;
    int32_t count = 0;
    bool operator==(const Run&) const = default;
  };

  /// The longest gap of missing indices a run bridges with zero cells.
  static constexpr int32_t kMaxBridge = 2;

  /// Add an entry after the last one: `idx` above every stored index and
  /// `sim` nonzero. Building a row by appending its entries in ascending
  /// index yields the canonical form.
  void Append(int32_t idx, float sim);

  /// Drop growth slack: rows live as long as the model.
  void ShrinkToFit() {
    runs_.shrink_to_fit();
    cells_.shrink_to_fit();
  }

  /// Set this row's entry for each idx[k], ascending, to sims[k], 0 meaning
  /// no entry. A cell inside a run is written in place; an insert outside
  /// every run, or an erase, rebuilds the row, so the result is always the
  /// canonical row of the new entries.
  void SetEntries(std::span<const int32_t> idx, std::span<const float> sims);

  /// The similarity stored for `idx`, 0 when it is not an entry.
  float Find(int32_t idx) const;

  /// Entries (nonzero cells); a walk of the row.
  size_t NumEntries() const;
  size_t num_cells() const { return cells_.size(); }
  bool empty() const { return runs_.empty(); }
  std::span<const Run> runs() const { return runs_; }
  std::span<const float> cells() const { return cells_; }
  size_t ApproxBytes() const {
    return sizeof(NeighborRow) + runs_.capacity() * sizeof(Run) +
           cells_.capacity() * sizeof(float);
  }

  bool operator==(const NeighborRow&) const = default;

  /// fn(first, cells, count) for each run clipped to [lo, hi], in
  /// ascending index: cells[c] is the cell of neighbor first + c.
  template <typename Fn>
  void ForEachRunIn(int32_t lo, int32_t hi, Fn&& fn) const {
    const float* cell = cells_.data();
    for (const Run& run : runs_) {
      if (run.first > hi) break;
      const int32_t last = run.first + run.count - 1;
      if (last >= lo) {
        const int32_t a = std::max(run.first, lo);
        fn(a, cell + (a - run.first), std::min(last, hi) - a + 1);
      }
      cell += run.count;
    }
  }

  /// Forward iteration over the entries in ascending index, skipping zero
  /// cells; dereferences to a Neighbor by value.
  class Iterator {
   public:
    using value_type = Neighbor;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Neighbor operator*() const { return {run_->first + pos_, cell_[pos_]}; }
    Iterator& operator++() {
      ++pos_;
      Settle();
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const Iterator& o) const {
      return run_ == o.run_ && pos_ == o.pos_;
    }

   private:
    friend class NeighborRow;
    Iterator(const Run* run, const Run* end, const float* cell)
        : run_(run), end_(end), cell_(cell) {
      Settle();
    }
    /// Move to the next nonzero cell at or after the current position.
    void Settle() {
      while (run_ != end_) {
        if (pos_ == run_->count) {
          cell_ += run_->count;
          ++run_;
          pos_ = 0;
        } else if (cell_[pos_] == 0.0f) {
          ++pos_;
        } else {
          return;
        }
      }
    }

    const Run* run_ = nullptr;
    const Run* end_ = nullptr;
    const float* cell_ = nullptr;  // the current run's first cell
    int32_t pos_ = 0;
  };

  Iterator begin() const {
    return Iterator(runs_.data(), runs_.data() + runs_.size(), cells_.data());
  }
  Iterator end() const {
    const Run* end = runs_.data() + runs_.size();
    return Iterator(end, end, nullptr);
  }

 private:
  std::vector<Run> runs_;
  std::vector<float> cells_;
};

}  // namespace recdb
