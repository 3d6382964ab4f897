// TopKPruner: the threshold side of WAND-style Top-N pruning (DESIGN.md
// §13). A bounded top-k accumulator over (score desc, rank asc) — `rank`
// is the caller's tie-break key (an item's id position, folded with the
// user's position for a cross-user Top-k) — that exposes the running k-th
// score as a skip threshold.
//
// Exactness contract: CanSkip(bound) is true only when no item whose true
// score is <= bound can change the final top-k set. The comparison is
// strict (`bound < worst.score`): an item scoring exactly the current
// worst score could still displace it on the rank tie-break, so equality
// never skips. The floor models the plan's rPred (min_score) — scores
// below it are rejected outright, and a bound below it prunes even while
// the heap is not yet full.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace recdb {

class TopKPruner {
 public:
  struct Entry {
    double score = 0;
    int64_t rank = 0;    // tie-break key, ascending = better
    int64_t item_id = 0; // payload: external item id
  };

  explicit TopKPruner(size_t k,
                      double floor = -std::numeric_limits<double>::infinity())
      : k_(k), floor_(floor) {}

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// Would Offer(score, rank, ·) change the heap? Used by the zero-merge
  /// loop: offers arrive with equal score and ascending rank, so the first
  /// rejection ends the loop.
  bool WouldAccept(double score, int64_t rank) const {
    if (score < floor_) return false;
    if (heap_.size() < k_) return true;
    return Better(score, rank, heap_.front());
  }

  void Offer(double score, int64_t rank, int64_t item_id) {
    if (score < floor_) return;
    if (heap_.size() < k_) {
      heap_.push_back({score, rank, item_id});
      std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
      return;
    }
    if (!Better(score, rank, heap_.front())) return;
    std::pop_heap(heap_.begin(), heap_.end(), BetterEntry);
    heap_.back() = {score, rank, item_id};
    std::push_heap(heap_.begin(), heap_.end(), BetterEntry);
  }

  /// True when no item with true score <= bound can enter the top-k.
  bool CanSkip(double bound) const {
    if (bound < floor_) return true;
    return heap_.size() >= k_ && bound < heap_.front().score;
  }

  /// Running threshold: the k-th best score once full, else the floor.
  double Threshold() const {
    return heap_.size() >= k_ ? heap_.front().score : floor_;
  }

  /// Destructive drain, best-first: (score desc, rank asc).
  std::vector<Entry> DrainBestFirst() {
    std::vector<Entry> out = std::move(heap_);
    heap_.clear();
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.rank < b.rank;
    });
    return out;
  }

 private:
  /// (score, rank) strictly beats entry e.
  static bool Better(double score, int64_t rank, const Entry& e) {
    if (score != e.score) return score > e.score;
    return rank < e.rank;
  }
  /// Heap comparator: treat "better" as "less" so the front is the worst
  /// retained entry — the displacement target and the threshold source.
  static bool BetterEntry(const Entry& a, const Entry& b) {
    return Better(a.score, a.rank, b);
  }

  size_t k_;
  double floor_;
  std::vector<Entry> heap_;  // worst at front
};

}  // namespace recdb
