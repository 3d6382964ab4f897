// Online ratings ingest (PR 7): live-row golden equality, incremental
// model maintenance, background re-freeze, and the ingest metrics contract.
//
// The load-bearing invariant throughout: scoring through the row view
// (flat base + copy-on-write live rows) is *bit-identical* — EXPECT_EQ on
// doubles, no tolerance — to scoring over a matrix rebuilt from scratch with
// the same contents, and an incremental CF refresh produces neighborhood
// rows bit-identical to a full retrain.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/recdb.h"
#include "cache/cache_manager.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "index/rec_score_index.h"
#include "obs/metrics.h"
#include "recommender/rating_matrix.h"
#include "recommender/recommender.h"
#include "recommender/similarity.h"

namespace recdb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::MetricsRegistry;

// ------------------------------------------------------------ fixtures

struct Op {
  enum class Kind { kAdd, kRemove } kind = Kind::kAdd;
  int64_t user = 0;
  int64_t item = 0;
  double rating = 0;
};

// Deterministic base workload: 10 users x 8 items, ~60% density. Values are
// a fixed function of (u, i) so every test (and both sides of each golden
// comparison) feeds identical bytes in identical order.
std::vector<Op> BaseOps() {
  std::vector<Op> ops;
  for (int64_t u = 1; u <= 10; ++u) {
    for (int64_t i = 1; i <= 8; ++i) {
      if ((u * 7 + i * 3) % 5 < 3) {
        ops.push_back({Op::Kind::kAdd, u, i,
                       static_cast<double>(1 + (u * 3 + i * 5) % 5)});
      }
    }
  }
  return ops;
}

// The five ingest scenarios the tentpole must keep bit-identical:
// add (existing user+item, new pair), overwrite (different value), remove,
// new user, new item.
std::vector<Op> MutationOps() {
  return {
      {Op::Kind::kAdd, 1, 2, 4.0},      // new pair, both sides known
      {Op::Kind::kAdd, 1, 1, 2.0},      // overwrite (base value is 4)
      {Op::Kind::kRemove, 2, 1, 0},     // remove an existing pair
      {Op::Kind::kAdd, 99, 1, 5.0},     // new user...
      {Op::Kind::kAdd, 99, 3, 3.0},     // ...rating two known items
      {Op::Kind::kAdd, 1, 77, 4.0},     // new item...
      {Op::Kind::kAdd, 2, 77, 2.0},     // ...rated by two known users
  };
}

void ApplyToMatrix(RatingMatrix* m, const std::vector<Op>& ops) {
  for (const auto& op : ops) {
    if (op.kind == Op::Kind::kAdd) {
      m->Add(op.user, op.item, op.rating);
    } else {
      m->Remove(op.user, op.item);
    }
  }
}

void ApplyToRecommender(Recommender* rec, const std::vector<Op>& ops) {
  for (const auto& op : ops) {
    if (op.kind == Op::Kind::kAdd) {
      rec->AddRating(op.user, op.item, op.rating);
    } else {
      rec->RemoveRating(op.user, op.item);
    }
  }
}

RecommenderConfig MakeConfig(RecAlgorithm algo) {
  RecommenderConfig cfg;
  cfg.name = "r";
  cfg.algorithm = algo;
  cfg.svd_opts.num_epochs = 4;
  cfg.svd_opts.num_factors = 6;
  return cfg;
}

// Probe grid covering trained users/items, the new user (99) and the new
// item (77). Scores come through the same PredictBatch choke point RECOMMEND
// uses.
std::vector<double> ScoreGrid(const Recommender& rec) {
  std::vector<double> out;
  for (int64_t u : {1, 2, 3, 5, 8, 10, 99}) {
    for (int64_t i : {1, 2, 3, 4, 6, 8, 77}) {
      out.push_back(rec.model()->Predict(u, i));
    }
  }
  return out;
}

constexpr RecAlgorithm kCfAlgorithms[] = {
    RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
    RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF};

constexpr RecAlgorithm kAllAlgorithms[] = {
    RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
    RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF, RecAlgorithm::kSVD};

// ------------------------------------------------------------ matrix live rows

using RowCopy = std::vector<std::pair<int32_t, double>>;

RowCopy CopyRow(CsrRow row) {
  RowCopy out;
  for (size_t k = 0; k < row.n; ++k) out.emplace_back(row.idx[k], row.rating[k]);
  return out;
}

// A fresh matrix fed `history` unfrozen, then frozen: every row it holds
// comes straight from one flatten.
std::unique_ptr<RatingMatrix> FreshMatrix(const std::vector<Op>& history) {
  auto m = std::make_unique<RatingMatrix>();
  ApplyToMatrix(m.get(), history);
  m->Freeze();
  return m;
}

// Every merged row of `a` equals the same row of `b`, byte for byte.
void ExpectRowsEqual(const RatingMatrix& a, const RatingMatrix& b) {
  ASSERT_EQ(a.NumUsers(), b.NumUsers());
  ASSERT_EQ(a.NumItems(), b.NumItems());
  EXPECT_EQ(a.NumRatings(), b.NumRatings());
  for (size_t u = 0; u < a.NumUsers(); ++u) {
    const int32_t r = static_cast<int32_t>(u);
    EXPECT_EQ(CopyRow(a.UserCsrRow(r)), CopyRow(b.UserCsrRow(r)))
        << "user row " << u;
  }
  for (size_t i = 0; i < a.NumItems(); ++i) {
    const int32_t r = static_cast<int32_t>(i);
    EXPECT_EQ(CopyRow(a.ItemCsrRow(r)), CopyRow(b.ItemCsrRow(r)))
        << "item row " << i;
  }
}

struct BaseCopy {
  std::vector<RowCopy> users, items;
};

BaseCopy CopyBase(const RatingMatrix& m) {
  BaseCopy out;
  for (size_t u = 0; u < m.NumUsers(); ++u) {
    out.users.push_back(CopyRow(m.BaseUserCsrRow(static_cast<int32_t>(u))));
  }
  for (size_t i = 0; i < m.NumItems(); ++i) {
    out.items.push_back(CopyRow(m.BaseItemCsrRow(static_cast<int32_t>(i))));
  }
  return out;
}

// Every base row of `m` still reads as captured in `pre`; rows interned
// since the capture have no base row.
void ExpectBaseUnchanged(const RatingMatrix& m, const BaseCopy& pre) {
  for (size_t u = 0; u < m.NumUsers(); ++u) {
    const RowCopy want = u < pre.users.size() ? pre.users[u] : RowCopy{};
    EXPECT_EQ(CopyRow(m.BaseUserCsrRow(static_cast<int32_t>(u))), want)
        << "base user row " << u;
  }
  for (size_t i = 0; i < m.NumItems(); ++i) {
    const RowCopy want = i < pre.items.size() ? pre.items[i] : RowCopy{};
    EXPECT_EQ(CopyRow(m.BaseItemCsrRow(static_cast<int32_t>(i))), want)
        << "base item row " << i;
  }
}

void ApplyBatchToMatrix(RatingMatrix* m, const std::vector<Op>& ops) {
  std::vector<RatingMatrix::BatchRatingOp> batch;
  for (const auto& op : ops) {
    batch.push_back({op.kind == Op::Kind::kRemove, op.user, op.item,
                     op.rating});
  }
  m->ApplyBatch(batch);
}

TEST(DeltaOverlayTest, MergeViewRowsMatchRebuiltMatrixBitwise) {
  // Matrix A: freeze first, then mutate (ops land in copy-on-write live
  // rows). The reference: a fresh matrix fed the same history unfrozen,
  // then frozen. Every row-view row of A must equal the fresh row byte for
  // byte — this is what lets batch kernels consume base + live rows as if
  // the CSR had been rebuilt after every statement — while A's base rows
  // keep reading the pre-write base.
  RatingMatrix a;
  std::vector<Op> history = BaseOps();
  ApplyToMatrix(&a, history);
  a.Freeze();
  const BaseCopy pre = CopyBase(a);

  // Add, overwrite, remove, and a user and an item interned after the
  // freeze.
  const std::vector<Op> mutations = MutationOps();
  ApplyToMatrix(&a, mutations);
  history.insert(history.end(), mutations.begin(), mutations.end());
  // A removed pair that is re-added.
  const std::vector<Op> readd = {{Op::Kind::kRemove, 3, 2, 0},
                                 {Op::Kind::kAdd, 3, 2, 1.5}};
  ApplyToMatrix(&a, readd);
  history.insert(history.end(), readd.begin(), readd.end());
  // One batch that touches user row 4 and item row 6 twice each.
  const std::vector<Op> batch = {{Op::Kind::kAdd, 4, 6, 1.0},
                                 {Op::Kind::kAdd, 4, 6, 2.0},
                                 {Op::Kind::kAdd, 5, 6, 4.5},
                                 {Op::Kind::kRemove, 4, 1, 0},
                                 {Op::Kind::kAdd, 4, 77, 3.0}};
  ApplyBatchToMatrix(&a, batch);
  history.insert(history.end(), batch.begin(), batch.end());
  ASSERT_TRUE(a.frozen());
  ASSERT_TRUE(a.has_delta());
  ASSERT_TRUE(a.Get(3, 2).has_value());
  EXPECT_EQ(*a.Get(3, 2), 1.5);

  auto fresh = FreshMatrix(history);
  ExpectRowsEqual(a, *fresh);
  ExpectBaseUnchanged(a, pre);
  // Identical op sequences touch rating_sum_ with identical float ops.
  EXPECT_EQ(a.GlobalMean(), fresh->GlobalMean());

  // Refresh: the flattened base holds exactly the merged rows.
  ASSERT_TRUE(a.CommitRefreeze(a.BuildMergedCsr()));
  EXPECT_FALSE(a.has_delta());
  ExpectRowsEqual(a, *fresh);
  ExpectBaseUnchanged(a, CopyBase(*fresh));
  const BaseCopy refreshed = CopyBase(a);

  // Write again to rows written before the refresh.
  const std::vector<Op> again = {{Op::Kind::kAdd, 4, 6, 5.0},
                                 {Op::Kind::kRemove, 99, 1, 0},
                                 {Op::Kind::kAdd, 1, 2, 1.0},
                                 {Op::Kind::kAdd, 3, 77, 2.5}};
  ApplyToMatrix(&a, again);
  history.insert(history.end(), again.begin(), again.end());
  fresh = FreshMatrix(history);
  ExpectRowsEqual(a, *fresh);
  ExpectBaseUnchanged(a, refreshed);
  EXPECT_EQ(a.GlobalMean(), fresh->GlobalMean());

  // Re-freezing A merges the live rows; rows must still match.
  a.Freeze();
  EXPECT_FALSE(a.has_delta());
  ExpectRowsEqual(a, *fresh);
  ExpectBaseUnchanged(a, CopyBase(*fresh));
}

TEST(DeltaOverlayTest, SameValueOverwriteIsCompleteNoOp) {
  // Regression (PR 7 bugfix): re-inserting an identical rating used to
  // invalidate the frozen matrix and, worse, "adjust" rating_sum_ by
  // (new - old) == 0.0 — which in IEEE arithmetic can still drift the sum.
  // It must now be a complete no-op: no version bump, no delta op, no
  // frozen-state change, GlobalMean bit-identical.
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  const double mean_before = m.GlobalMean();
  const uint64_t version_before = m.version();

  EXPECT_EQ(m.Add(1, 1, 4.0), RatingChange::kUnchanged);  // base value is 4
  EXPECT_TRUE(m.frozen());
  EXPECT_FALSE(m.has_delta());
  EXPECT_EQ(m.version(), version_before);
  EXPECT_EQ(m.GlobalMean(), mean_before);  // exact, not NEAR

  // A real overwrite does adjust the sum (by new - old, not by re-adding).
  EXPECT_EQ(m.Add(1, 1, 2.0), RatingChange::kOverwritten);
  EXPECT_TRUE(m.frozen());
  EXPECT_TRUE(m.has_delta());
  EXPECT_EQ(m.version(), version_before + 1);
  EXPECT_EQ(*m.Get(1, 1), 2.0);
  EXPECT_EQ(m.NumRatings(), BaseOps().size());
}

TEST(DeltaOverlayTest, TombstoneRemovesAndReAddRevives) {
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  const int32_t u = *m.UserIndex(1);
  const int32_t i = *m.ItemIndex(1);

  ASSERT_TRUE(m.Remove(1, 1));
  EXPECT_TRUE(m.frozen());
  EXPECT_FALSE(m.Get(1, 1).has_value());
  // The row view must not serve the removed entry.
  CsrRow row = m.UserCsrRow(u);
  for (size_t k = 0; k < row.n; ++k) EXPECT_NE(row.idx[k], i);

  // Re-adding the pair revives it in place.
  m.Add(1, 1, 3.5);
  EXPECT_EQ(*m.Get(1, 1), 3.5);
  row = m.UserCsrRow(u);
  bool found = false;
  for (size_t k = 0; k < row.n; ++k) {
    if (row.idx[k] == i) {
      found = true;
      EXPECT_EQ(row.rating[k], 3.5);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DeltaOverlayTest, CommitRefreezeDetectsVersionConflict) {
  RatingMatrix m;
  ApplyToMatrix(&m, BaseOps());
  m.Freeze();
  m.Add(1, 2, 4.0);
  auto merged = m.BuildMergedCsr();
  // A write lands between prepare and commit: the stale candidate must be
  // rejected without touching the matrix.
  m.Add(3, 2, 2.0);
  EXPECT_FALSE(m.CommitRefreeze(std::move(merged)));
  EXPECT_TRUE(m.has_delta());
  EXPECT_TRUE(m.frozen());

  auto merged2 = m.BuildMergedCsr();
  EXPECT_TRUE(m.CommitRefreeze(std::move(merged2)));
  EXPECT_FALSE(m.has_delta());
  EXPECT_TRUE(m.frozen());
  EXPECT_EQ(*m.Get(1, 2), 4.0);
  EXPECT_EQ(*m.Get(3, 2), 2.0);
}

// ------------------------------------------------------------ golden scoring

TEST(IngestGoldenTest, DeltaScoringMatchesRebuiltMatrixAllAlgorithms) {
  // Fixed model, mutated matrix: scores read through the live rows must be
  // bit-identical to scores after they are flattened into a fresh base.
  // This is the RECOMMEND-visible form of the merge-view contract, for all
  // three algorithm families.
  for (RecAlgorithm algo : kAllAlgorithms) {
    SCOPED_TRACE(RecAlgorithmToString(algo));
    Recommender rec(MakeConfig(algo));
    ApplyToRecommender(&rec, BaseOps());
    ASSERT_TRUE(rec.Build().ok());
    ApplyToRecommender(&rec, MutationOps());
    ASSERT_TRUE(rec.live().has_delta());

    std::vector<double> with_delta = ScoreGrid(rec);
    rec.mutable_matrix()->Freeze();  // flatten the live rows, model untouched
    ASSERT_FALSE(rec.live().has_delta());
    std::vector<double> rebuilt = ScoreGrid(rec);

    ASSERT_EQ(with_delta.size(), rebuilt.size());
    for (size_t k = 0; k < with_delta.size(); ++k) {
      EXPECT_EQ(with_delta[k], rebuilt[k]) << "probe " << k;
    }
  }
}

TEST(IngestGoldenTest, IncrementalCfRefreshMatchesFullRetrainBitwise) {
  // Incremental maintenance: after Refresh(), a CF recommender must be
  // indistinguishable — bit for bit — from one built from scratch over the
  // same final ratings in the same ingest order.
  for (RecAlgorithm algo : kCfAlgorithms) {
    SCOPED_TRACE(RecAlgorithmToString(algo));
    Recommender incremental(MakeConfig(algo));
    ApplyToRecommender(&incremental, BaseOps());
    ASSERT_TRUE(incremental.Build().ok());
    ApplyToRecommender(&incremental, MutationOps());
    auto refreshed = incremental.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    ASSERT_FALSE(incremental.live().has_delta());

    Recommender scratch(MakeConfig(algo));
    ApplyToRecommender(&scratch, BaseOps());
    ApplyToRecommender(&scratch, MutationOps());
    ASSERT_TRUE(scratch.Build().ok());

    std::vector<double> a = ScoreGrid(incremental);
    std::vector<double> b = ScoreGrid(scratch);
    ASSERT_EQ(a.size(), b.size());
    for (size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k], b[k]) << "probe " << k;
    }
  }
}

TEST(IngestGoldenTest, CfRefreshPerScenarioMatchesFullRetrain) {
  // Each ingest scenario in isolation (not just the combined batch), so a
  // regression in one touched-row computation cannot hide behind another.
  const std::vector<std::vector<Op>> scenarios = {
      {{Op::Kind::kAdd, 1, 2, 4.0}},                                // add
      {{Op::Kind::kAdd, 1, 1, 2.0}},                                // overwrite
      {{Op::Kind::kRemove, 2, 1, 0}},                               // remove
      {{Op::Kind::kAdd, 99, 1, 5.0}, {Op::Kind::kAdd, 99, 3, 3.0}}, // new user
      {{Op::Kind::kAdd, 1, 77, 4.0}, {Op::Kind::kAdd, 2, 77, 2.0}}, // new item
  };
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF}) {
    for (size_t s = 0; s < scenarios.size(); ++s) {
      SCOPED_TRACE(std::string(RecAlgorithmToString(algo)) + " scenario " +
                   std::to_string(s));
      Recommender incremental(MakeConfig(algo));
      ApplyToRecommender(&incremental, BaseOps());
      ASSERT_TRUE(incremental.Build().ok());
      ApplyToRecommender(&incremental, scenarios[s]);
      auto refreshed = incremental.Refresh();
      ASSERT_TRUE(refreshed.ok());
      ASSERT_TRUE(refreshed.value());

      Recommender scratch(MakeConfig(algo));
      ApplyToRecommender(&scratch, BaseOps());
      ApplyToRecommender(&scratch, scenarios[s]);
      ASSERT_TRUE(scratch.Build().ok());

      std::vector<double> a = ScoreGrid(incremental);
      std::vector<double> b = ScoreGrid(scratch);
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k], b[k]) << "probe " << k;
      }
    }
  }
}

// ------------------------------------------------------------ row oracle

/// A CF recommender's neighborhood row for entity p of its side.
const NeighborRow& ModelRow(const Recommender& rec, int32_t p) {
  const RecModel* model = rec.model();
  return IsItemBased(rec.algorithm())
             ? static_cast<const ItemCFModel*>(model)->NeighborhoodAt(p)
             : static_cast<const UserCFModel*>(model)->NeighborhoodAt(p);
}

/// The same table built from scratch over the recommender's current matrix.
std::vector<NeighborRow> ScratchTable(const Recommender& rec) {
  SimilarityOptions opts = rec.config().sim_opts;
  opts.centered = rec.algorithm() == RecAlgorithm::kItemPearCF ||
                  rec.algorithm() == RecAlgorithm::kUserPearCF;
  return IsItemBased(rec.algorithm())
             ? BuildNeighborTable(rec.live(), CfSide::kItem, opts)
             : BuildNeighborTable(rec.live(), CfSide::kUser, opts);
}

/// A neighborhood table as (neighbor, sim) pairs, one row per entity.
std::vector<std::vector<std::pair<int32_t, float>>> Pairs(
    size_t n, const std::function<const NeighborRow&(int32_t)>& row_at) {
  std::vector<std::vector<std::pair<int32_t, float>>> table(n);
  for (size_t p = 0; p < n; ++p) {
    for (const Neighbor nb : row_at(static_cast<int32_t>(p))) {
      table[p].emplace_back(nb.idx, nb.sim);
    }
  }
  return table;
}

std::vector<std::vector<std::pair<int32_t, float>>> TableRows(
    const Recommender& rec) {
  const size_t n = IsItemBased(rec.algorithm()) ? rec.live().NumItems()
                                                : rec.live().NumUsers();
  return Pairs(n, [&](int32_t p) -> const NeighborRow& {
    return ModelRow(rec, p);
  });
}

std::vector<std::vector<std::pair<int32_t, float>>> ScratchRows(
    const Recommender& rec) {
  const std::vector<NeighborRow> built = ScratchTable(rec);
  return Pairs(built.size(),
               [&](int32_t p) -> const NeighborRow& { return built[p]; });
}

/// Every row index-ascending and equal, bit for bit, to a from-scratch
/// build, and byte-identical to it as a NeighborRow (patched rows keep the
/// canonical run form); untruncated, every (p, q, sim) has its mirror
/// (q, p, sim).
void ExpectTableMatchesScratchBuild(const Recommender& rec) {
  const auto table = TableRows(rec);
  const auto scratch = ScratchRows(rec);
  ASSERT_EQ(table.size(), scratch.size());
  const std::vector<NeighborRow> built = ScratchTable(rec);
  for (size_t p = 0; p < built.size(); ++p) {
    EXPECT_TRUE(ModelRow(rec, static_cast<int32_t>(p)) == built[p])
        << "row " << p << " is not in canonical run form";
  }
  for (size_t p = 0; p < table.size(); ++p) {
    const auto& row = table[p];
    for (size_t k = 1; k < row.size(); ++k) {
      EXPECT_LT(row[k - 1].first, row[k].first) << "row " << p << " pos " << k;
    }
    EXPECT_EQ(row, scratch[p]) << "row " << p;
    if (rec.config().sim_opts.top_k != 0) continue;
    for (const auto& [q, sim] : row) {
      const auto& mirror = table[q];
      const std::pair<int32_t, float> key{static_cast<int32_t>(p), -INFINITY};
      auto it = std::lower_bound(mirror.begin(), mirror.end(), key);
      ASSERT_TRUE(it != mirror.end() && it->first == static_cast<int32_t>(p))
          << "(" << p << ", " << q << ") has no mirror";
      EXPECT_EQ(it->second, sim) << "(" << p << ", " << q << ")";
    }
  }
}

TEST(IngestGoldenTest, RefreshedRowsMatchScratchBuildRowByRow) {
  // The score grid above probes 7 x 7 pairs, so a stale patched entry can
  // hide outside it; this compares whole neighborhood rows. The base adds
  // user 3's lone rating of item 88, so user 3 is the only co-rater of
  // item 88 with each of items 2, 3, 5, 7 and 8, and users 1 and 5 share
  // only item 5. The last scenario deletes both: every pair they formed
  // loses its last co-rating and must leave both rows.
  std::vector<Op> base = BaseOps();
  base.push_back({Op::Kind::kAdd, 3, 88, 2.0});
  const std::vector<std::vector<Op>> scenarios = {
      {{Op::Kind::kAdd, 1, 2, 4.0}},                                // add
      {{Op::Kind::kAdd, 1, 1, 2.0}},                                // overwrite
      {{Op::Kind::kRemove, 2, 1, 0}},                               // remove
      {{Op::Kind::kAdd, 99, 1, 5.0}, {Op::Kind::kAdd, 99, 3, 3.0}}, // new user
      {{Op::Kind::kAdd, 1, 77, 4.0}, {Op::Kind::kAdd, 2, 77, 2.0}}, // new item
      {{Op::Kind::kRemove, 3, 88, 0}, {Op::Kind::kRemove, 1, 5, 0}},
  };
  for (RecAlgorithm algo : kCfAlgorithms) {
    for (int32_t top_k : {0, 3}) {
      for (size_t s = 0; s < scenarios.size(); ++s) {
        SCOPED_TRACE(std::string(RecAlgorithmToString(algo)) + " top_k " +
                     std::to_string(top_k) + " scenario " + std::to_string(s));
        RecommenderConfig cfg = MakeConfig(algo);
        cfg.sim_opts.top_k = top_k;
        Recommender rec(cfg);
        ApplyToRecommender(&rec, base);
        ASSERT_TRUE(rec.Build().ok());
        ExpectTableMatchesScratchBuild(rec);

        ApplyToRecommender(&rec, scenarios[s]);
        MetricsRegistry::Global().ResetForTest();
        auto refreshed = rec.Refresh();
        ASSERT_TRUE(refreshed.ok());
        ASSERT_TRUE(refreshed.value());
        ExpectTableMatchesScratchBuild(rec);
        if (top_k != 0) continue;
        // Untruncated, only the op entities' rows are recomputed; every
        // other row is patched in place.
        std::vector<int64_t> op_rows;
        for (const Op& op : scenarios[s]) {
          op_rows.push_back(IsItemBased(algo) ? op.item : op.user);
        }
        std::sort(op_rows.begin(), op_rows.end());
        op_rows.erase(std::unique(op_rows.begin(), op_rows.end()),
                      op_rows.end());
        auto snap = MetricsRegistry::Global().Snapshot();
        EXPECT_EQ(
            snap.counters[static_cast<size_t>(Counter::kIngestRowUpdates)],
            op_rows.size());
      }
    }
  }
}

bool InSomeRun(const NeighborRow& row, int32_t idx) {
  for (const NeighborRow::Run& run : row.runs()) {
    if (idx >= run.first && idx < run.first + run.count) return true;
  }
  return false;
}

TEST(IngestGoldenTest, MirroredRowsRebuildOnInsertOutsideRunsAndErase) {
  // A sparse chain: user u rates items u and u + 1, so each row's only
  // neighbors are the entities either side of it. One refresh then hands
  // mirrored rows the edits an in-place write cannot take: an entry whose
  // index lies outside every run of the row (a brand-new co-rated pair,
  // one of them through an item interned in the same delta) and an erase
  // (the only shared rater of a pair is deleted). Each such row must be
  // rebuilt into the canonical row of a scratch build.
  std::vector<Op> base;
  for (int64_t u = 1; u <= 10; ++u) {
    for (int64_t i : {u, u + 1}) {
      base.push_back({Op::Kind::kAdd, u, i,
                      static_cast<double>(1 + (u * 3 + i * 5) % 5)});
    }
  }
  const std::vector<Op> delta = {
      {Op::Kind::kAdd, 1, 9, 4.0},   // items 1, 2 meet 9; users 8, 9 meet 1
      {Op::Kind::kRemove, 5, 6, 0},  // items 5, 6 and users 5, 6 part
      {Op::Kind::kAdd, 3, 50, 2.0},  // new item 50 meets items 3, 4
  };
  struct Edit {
    int64_t row;
    int64_t neighbor;
    bool erase;
  };
  const std::vector<std::pair<RecAlgorithm, std::vector<Edit>>> cases = {
      {RecAlgorithm::kItemCosCF,
       {{2, 9, false}, {3, 50, false}, {5, 6, true}}},
      {RecAlgorithm::kUserCosCF, {{8, 1, false}, {6, 5, true}}},
  };
  for (const auto& [algo, edits] : cases) {
    SCOPED_TRACE(RecAlgorithmToString(algo));
    Recommender rec(MakeConfig(algo));
    ApplyToRecommender(&rec, base);
    ASSERT_TRUE(rec.Build().ok());
    ApplyToRecommender(&rec, delta);
    auto index_of = [&](int64_t id) {
      return *(IsItemBased(algo) ? rec.live().ItemIndex(id)
                                 : rec.live().UserIndex(id));
    };
    for (const Edit& e : edits) {
      const NeighborRow& row = ModelRow(rec, index_of(e.row));
      const int32_t q = index_of(e.neighbor);
      if (e.erase) {
        ASSERT_NE(row.Find(q), 0.0f) << e.row << " lacks " << e.neighbor;
      } else {
        ASSERT_FALSE(InSomeRun(row, q)) << e.row << " covers " << e.neighbor;
      }
    }

    auto refreshed = rec.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    ExpectTableMatchesScratchBuild(rec);
    for (const Edit& e : edits) {
      const float sim =
          ModelRow(rec, index_of(e.row)).Find(index_of(e.neighbor));
      EXPECT_EQ(sim == 0.0f, e.erase) << e.row << ", " << e.neighbor;
    }
  }
}

TEST(IngestGoldenTest, SvdFoldInIsDeterministicAndKeepsTrainedRowsFixed) {
  // SVD maintenance is fold-in, not retrain: trained factor rows must not
  // move (predictions over trained pairs stay bit-identical), new entities
  // get deterministic folded rows (two identical runs agree exactly), and
  // before the refresh a new entity scores 0 through the guard.
  auto run = [](std::vector<double>* before, std::vector<double>* after) {
    Recommender rec(MakeConfig(RecAlgorithm::kSVD));
    ApplyToRecommender(&rec, BaseOps());
    ASSERT_TRUE(rec.Build().ok());
    *before = ScoreGrid(rec);
    ApplyToRecommender(&rec, MutationOps());
    // New entities have no factor rows yet: the scoring guard yields 0
    // instead of reading out of bounds.
    EXPECT_EQ(rec.model()->Predict(99, 1), 0.0);
    EXPECT_EQ(rec.model()->Predict(1, 77), 0.0);
    auto refreshed = rec.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    *after = ScoreGrid(rec);
  };
  std::vector<double> before1, after1, before2, after2;
  run(&before1, &after1);
  run(&before2, &after2);

  // Determinism: independent runs agree bitwise.
  ASSERT_EQ(after1.size(), after2.size());
  for (size_t k = 0; k < after1.size(); ++k) {
    EXPECT_EQ(after1[k], after2[k]) << "probe " << k;
  }
  // Trained pairs (users 1..10 x items 1..8, first 6x6 of the grid rows
  // excluding the 99/77 probes) are untouched by the fold-in.
  // Grid layout: 7 users x 7 items; last row is user 99, last column 77.
  for (size_t r = 0; r + 1 < 7; ++r) {
    for (size_t c = 0; c + 1 < 7; ++c) {
      EXPECT_EQ(after1[r * 7 + c], before1[r * 7 + c])
          << "trained pair moved at (" << r << "," << c << ")";
    }
  }
  // The folded new user now scores nonzero somewhere.
  bool folded_user_scores = false;
  for (size_t c = 0; c < 7; ++c) {
    if (after1[6 * 7 + c] != 0.0) folded_user_scores = true;
  }
  EXPECT_TRUE(folded_user_scores);
}

// ------------------------------------------------------------ policy & metrics

TEST(IngestPolicyTest, NeedsRefreshHonorsThresholds) {
  RecommenderConfig cfg = MakeConfig(RecAlgorithm::kItemCosCF);
  cfg.rebuild_threshold = 0.5;  // 0.5 * 48 base ratings: trips at 24 ops
  Recommender rec(cfg);
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  ASSERT_EQ(rec.base_size(), 48u);
  const size_t trigger = 24;
  EXPECT_FALSE(rec.NeedsRefresh());
  size_t ops = 0;
  for (int64_t u = 1; u <= 10 && ops < trigger; ++u) {
    for (int64_t i = 1; i <= 8 && ops < trigger; ++i) {
      if ((u * 7 + i * 3) % 5 >= 3) {  // unrated pairs only
        EXPECT_FALSE(rec.NeedsRefresh()) << "tripped early at " << ops;
        rec.AddRating(u, i, 3.0);
        ++ops;
      }
    }
  }
  ASSERT_EQ(ops, trigger);
  EXPECT_TRUE(rec.NeedsRefresh());
  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec.NeedsRefresh());
  EXPECT_EQ(rec.live().delta_size(), 0u);
}

TEST(IngestPolicyTest, MaintainIfNeededRefreshesInsteadOfRetraining) {
  MetricsRegistry::Global().ResetForTest();
  RecommenderConfig cfg = MakeConfig(RecAlgorithm::kItemCosCF);
  cfg.rebuild_threshold = 0.01;  // any op trips the paper's N% policy
  Recommender rec(cfg);
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  auto snap0 = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(snap0.counters[static_cast<size_t>(Counter::kModelBuilds)], 1u);

  rec.AddRating(1, 2, 4.0);
  ASSERT_TRUE(rec.NeedsRefresh());
  auto maintained = rec.MaintainIfNeeded();
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(maintained.value());

  auto snap = MetricsRegistry::Global().Snapshot();
  // No statement-triggered full retrain: model builds stay at 1, the work
  // went through the refresh path.
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kModelBuilds)], 1u);
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestRefreshes)], 1u);
}

TEST(IngestPolicyTest, SetMaintenanceRoundTripsAndRejectsRetiredNames) {
  RecDB db;
  EXPECT_EQ(db.options().maintenance, MaintenanceMode::kManual);
  const std::pair<const char*, MaintenanceMode> modes[] = {
      {"inline", MaintenanceMode::kInline},
      {"background", MaintenanceMode::kBackground},
      {"manual", MaintenanceMode::kManual}};
  for (const auto& [name, mode] : modes) {
    auto rs = db.Execute(std::string("SET maintenance = ") + name);
    ASSERT_TRUE(rs.ok()) << rs.status();
    EXPECT_EQ(db.options().maintenance, mode) << name;
  }
  auto bogus = db.Execute("SET maintenance = sometimes");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.options().maintenance, MaintenanceMode::kManual);

  auto retired = db.Execute("SET background_refresh = on");
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(retired.status().message().find("maintenance"), std::string::npos)
      << retired.status();
}

TEST(IngestPolicyTest, InlineMaintenanceRefreshesInTheWritingStatement) {
  RecDBOptions options;
  options.rebuild_threshold = 0.2;  // 0.2 * 20 base ratings: trips at 4 ops
  RecDB db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE R (u INT, i INT, v DOUBLE)").ok());
  for (int64_t u = 1; u <= 4; ++u) {
    for (int64_t i = 1; i <= 5; ++i) {
      ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(u) +
                             ", " + std::to_string(i) + ", 3.0)")
                      .ok());
    }
  }
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER InRec ON R USERS FROM u ITEMS "
                         "FROM i RATINGS FROM v USING ItemCosCF; "
                         "SET maintenance = inline")
                  .ok());
  auto* rec = db.registry()->Get("InRec").value();
  ASSERT_EQ(rec->base_size(), 20u);
  for (int64_t k = 1; k <= 4; ++k) {
    ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(10 + k) +
                           ", 1, 4.0)")
                    .ok());
    // Below the trigger the delta waits; the 4th write merges it inline.
    EXPECT_EQ(rec->live().delta_size(), k < 4 ? static_cast<size_t>(k) : 0u);
  }
  EXPECT_EQ(rec->base_size(), 24u);
}

TEST(IngestMetricsTest, DeltaCountersAndPendingGaugeTrackOps) {
  Recommender rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  // Reset after Build: ingest counters also track unfrozen inserts, and
  // this test asserts the post-freeze delta traffic alone.
  MetricsRegistry::Global().ResetForTest();

  rec.AddRating(1, 2, 4.0);   // add
  rec.AddRating(1, 1, 2.0);   // overwrite
  rec.AddRating(1, 1, 2.0);   // same-value: must count nowhere
  rec.RemoveRating(2, 1);     // remove
  rec.RemoveRating(2, 1);     // absent: must count nowhere

  auto snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestDeltaAdds)], 1u);
  EXPECT_EQ(
      snap.counters[static_cast<size_t>(Counter::kIngestDeltaOverwrites)], 1u);
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestDeltaRemoves)],
            1u);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kIngestDeltaPending)], 3);

  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  ASSERT_TRUE(refreshed.value());
  snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kIngestRefreshes)], 1u);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kIngestDeltaPending)], 0);
  // The CF refresh recomputed at least the touched neighborhood rows.
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kIngestRowUpdates)], 0u);
}

// ------------------------------------------------------------ invalidation

TEST(IngestInvalidationTest, ItemCfEvictsUserRowUserCfEvictsItemColumn) {
  // ItemCF: a mutation by user u stales all of u's cached predictions.
  Recommender item_rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&item_rec, BaseOps());
  ASSERT_TRUE(item_rec.Build().ok());
  item_rec.score_index()->Put(1, 2, 0.5);
  item_rec.score_index()->Put(1, 4, 0.6);
  item_rec.score_index()->Put(3, 2, 0.7);
  item_rec.AddRating(1, 7, 3.0);
  EXPECT_FALSE(item_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_FALSE(item_rec.score_index()->GetScore(1, 4).has_value());
  EXPECT_TRUE(item_rec.score_index()->GetScore(3, 2).has_value());

  // UserCF: a mutation on item i stales every user's prediction for i.
  Recommender user_rec(MakeConfig(RecAlgorithm::kUserCosCF));
  ApplyToRecommender(&user_rec, BaseOps());
  ASSERT_TRUE(user_rec.Build().ok());
  user_rec.score_index()->Put(1, 2, 0.5);
  user_rec.score_index()->Put(3, 2, 0.7);
  user_rec.score_index()->Put(3, 4, 0.8);
  user_rec.AddRating(5, 2, 3.0);
  EXPECT_FALSE(user_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_FALSE(user_rec.score_index()->GetScore(3, 2).has_value());
  EXPECT_TRUE(user_rec.score_index()->GetScore(3, 4).has_value());

  // SVD: factors only move at refresh; only the written pair is evicted.
  Recommender svd_rec(MakeConfig(RecAlgorithm::kSVD));
  ApplyToRecommender(&svd_rec, BaseOps());
  ASSERT_TRUE(svd_rec.Build().ok());
  svd_rec.score_index()->Put(1, 2, 0.5);
  svd_rec.score_index()->Put(1, 4, 0.6);
  svd_rec.AddRating(1, 2, 3.0);
  EXPECT_FALSE(svd_rec.score_index()->GetScore(1, 2).has_value());
  EXPECT_TRUE(svd_rec.score_index()->GetScore(1, 4).has_value());
}

TEST(IngestInvalidationTest, ListenerReceivesEvictedPairsAndManagerQueues) {
  Recommender rec(MakeConfig(RecAlgorithm::kItemCosCF));
  ApplyToRecommender(&rec, BaseOps());
  ASSERT_TRUE(rec.Build().ok());
  ManualClock clock;
  CacheManager cm(&rec, &clock, /*hotness_threshold=*/0.5);
  rec.SetInvalidationListener(
      [&cm](const Recommender::InvalidatedPairs& pairs) {
        cm.NotifyInvalidated(pairs);
      });
  rec.score_index()->Put(1, 2, 0.5);
  rec.score_index()->Put(1, 4, 0.6);
  rec.AddRating(1, 7, 3.0);
  EXPECT_EQ(cm.pending_invalidated(), 2u);

  // The next Run() consumes the queue; still-hot pairs re-materialize via
  // the hotness pass, cold ones stay evicted.
  clock.Advance(1.0);
  cm.RecordQuery(1);
  cm.RecordUpdate(2);
  clock.Advance(1.0);
  auto decision = cm.Run();
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(cm.pending_invalidated(), 0u);
  EXPECT_TRUE(rec.score_index()->GetScore(1, 2).has_value());
}

// ------------------------------------------------------------ background lane

TEST(BackgroundLaneTest, SubmitRunsJobsInOrderAndDrainWaits) {
  TaskScheduler sched(2);
  std::vector<int> order;
  std::atomic<int> done{0};
  sched.Submit([&] {
    order.push_back(1);
    done.fetch_add(1);
  });
  sched.Submit([&] {
    order.push_back(2);
    done.fetch_add(1);
  });
  sched.DrainBackground();
  EXPECT_EQ(done.load(), 2);
  ASSERT_EQ(order.size(), 2u);  // one worker, submission order
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(sched.background_pending(), 0u);
}

TEST(BackgroundLaneTest, BackgroundJobMayIssueParallelFor) {
  TaskScheduler sched(3);
  std::atomic<uint64_t> sum{0};
  sched.Submit([&] {
    sched.ParallelFor(100, 8, [&](size_t begin, size_t end) {
      for (size_t k = begin; k < end; ++k) sum.fetch_add(k);
    });
  });
  sched.DrainBackground();
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(BackgroundLaneTest, RecDbBackgroundRefreshMergesDelta) {
  RecDBOptions options;
  options.maintenance = MaintenanceMode::kBackground;
  options.rebuild_threshold = 0.2;  // 0.2 * 20 base ratings: trips at 4 ops
  RecDB db(options);
  ASSERT_TRUE(db.Execute("CREATE TABLE R (u INT, i INT, v DOUBLE)").ok());
  for (int64_t u = 1; u <= 6; ++u) {
    for (int64_t i = 1; i <= 5; ++i) {
      if ((u + i) % 3 != 0) {
        ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(u) +
                               ", " + std::to_string(i) + ", 3.0)")
                        .ok());
      }
    }
  }
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER BgRec ON R USERS FROM u ITEMS "
                         "FROM i RATINGS FROM v USING ItemCosCF")
                  .ok());
  // Bring the delta exactly to the trigger: the last write schedules the
  // refresh, so every write lands before the job takes its snapshot. (A
  // write after the snapshot would stay below the next trigger, and
  // legitimately stay pending, however the threads interleave.)
  auto* rec = db.registry()->Get("BgRec").value();
  for (int64_t k = 0; k < 4; ++k) {
    EXPECT_FALSE(rec->NeedsRefresh()) << k;
    ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(1 + k) +
                           ", " + std::to_string(((k * 2) % 5) + 1) + ", 4.0)")
                    .ok());
  }
  // Readers score through the rows a background commit patches in place (a
  // race TSan would flag).
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(db.Execute("SELECT R.u, R.i, R.v FROM R RECOMMEND R.i TO R.u "
                           "ON R.v USING ItemCosCF")
                    .ok());
  }
  db.DrainBackgroundWork();
  EXPECT_FALSE(rec->live().has_delta());

  // SET maintenance = manual stops scheduling; delta accumulates.
  ASSERT_TRUE(db.Execute("SET maintenance = manual").ok());
  for (int64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(db.Execute("INSERT INTO R VALUES (" + std::to_string(1 + k) +
                           ", " + std::to_string(((k * 3) % 5) + 1) + ", 2.0)")
                    .ok());
  }
  db.DrainBackgroundWork();
  EXPECT_TRUE(rec->live().has_delta());
  // Manual refresh still works.
  auto refreshed = db.RefreshRecommender("BgRec");
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec->live().has_delta());
}

}  // namespace
}  // namespace recdb
