#include "recommender/neighbor_row.h"

#include "common/status.h"

namespace recdb {

void NeighborRow::Append(int32_t idx, float sim) {
  RECDB_DCHECK(sim != 0.0f);
  if (!runs_.empty()) {
    Run& last = runs_.back();
    const int32_t gap = idx - (last.first + last.count);
    RECDB_DCHECK(gap >= 0);
    if (gap <= kMaxBridge) {
      cells_.insert(cells_.end(), static_cast<size_t>(gap), 0.0f);
      cells_.push_back(sim);
      last.count += gap + 1;
      return;
    }
  }
  runs_.push_back(Run{idx, 1});
  cells_.push_back(sim);
}

void NeighborRow::Apply(std::span<const NeighborPatch> patches) {
  // One forward walk writes every set that lands inside a run. Sets are
  // idempotent, so a rebuild after a partial walk is still exact.
  bool in_place = true;
  size_t r = 0;
  float* cell = cells_.data();
  for (const NeighborPatch& p : patches) {
    while (r < runs_.size() && runs_[r].first + runs_[r].count <= p.idx) {
      cell += runs_[r].count;
      ++r;
    }
    if (p.erase || r == runs_.size() || p.idx < runs_[r].first) {
      in_place = false;
      break;
    }
    RECDB_DCHECK(p.sim != 0.0f);
    cell[p.idx - runs_[r].first] = p.sim;
  }
  if (in_place) return;

  // Merge the entries with the patches into a fresh canonical row.
  NeighborRow out;
  Iterator it = begin();
  const Iterator stop = end();
  size_t k = 0;
  while (it != stop || k < patches.size()) {
    if (k == patches.size() ||
        (it != stop && (*it).idx < patches[k].idx)) {
      const Neighbor nb = *it++;
      out.Append(nb.idx, nb.sim);
      continue;
    }
    const NeighborPatch& p = patches[k++];
    if (it != stop && (*it).idx == p.idx) ++it;
    if (!p.erase) out.Append(p.idx, p.sim);
  }
  out.ShrinkToFit();
  *this = std::move(out);
}

float NeighborRow::Find(int32_t idx) const {
  const float* cell = cells_.data();
  for (const Run& run : runs_) {
    if (idx < run.first) break;
    if (idx < run.first + run.count) return cell[idx - run.first];
    cell += run.count;
  }
  return 0.0f;
}

size_t NeighborRow::NumEntries() const {
  size_t n = 0;
  for (float c : cells_) n += c != 0.0f;
  return n;
}

}  // namespace recdb
