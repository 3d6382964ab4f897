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

void NeighborRow::SetEntries(std::span<const int32_t> idx,
                             std::span<const float> sims) {
  RECDB_DCHECK(idx.size() == sims.size());
  // One forward walk writes every cell that lies inside a run. Writes are
  // idempotent, so a rebuild after a partial walk is still exact.
  size_t r = 0, k = 0;
  float* cell = cells_.data();
  for (; k < idx.size(); ++k) {
    while (r < runs_.size() && runs_[r].first + runs_[r].count <= idx[k]) {
      cell += runs_[r].count;
      ++r;
    }
    if (r == runs_.size() || idx[k] < runs_[r].first) {
      if (sims[k] != 0.0f) break;  // an insert outside every run
      continue;
    }
    float& c = cell[idx[k] - runs_[r].first];
    if (sims[k] == 0.0f && c != 0.0f) break;  // an erase
    c = sims[k];
  }
  if (k == idx.size()) return;

  // Merge the entries with the new ones into a fresh canonical row.
  NeighborRow out;
  Iterator it = begin();
  const Iterator stop = end();
  k = 0;
  while (it != stop || k < idx.size()) {
    if (k == idx.size() || (it != stop && (*it).idx < idx[k])) {
      const Neighbor nb = *it++;
      out.Append(nb.idx, nb.sim);
      continue;
    }
    if (it != stop && (*it).idx == idx[k]) ++it;
    if (sims[k] != 0.0f) out.Append(idx[k], sims[k]);
    ++k;
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
