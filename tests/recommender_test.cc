// Recommendation-model tests: similarity math against hand-computed Eq. (1)
// fixtures, Eq. (2) prediction, Pearson centering, SVD training behaviour,
// and the maintenance (rebuild-threshold) policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "api/recdb.h"
#include "common/rng.h"
#include "datagen/datagen.h"
#include "recommender/cf_kernel.h"
#include "recommender/cf_model.h"
#include "recommender/recommender.h"
#include "recommender/similarity.h"
#include "recommender/svd_kernel.h"
#include "recommender/svd_model.h"

namespace recdb {
namespace {

// The paper's Figure 1 running example ratings (uid, iid, ratingval).
std::shared_ptr<RatingMatrix> Figure1Ratings() {
  auto m = std::make_shared<RatingMatrix>();
  m->Add(1, 1, 1.5);
  m->Add(2, 2, 3.5);
  m->Add(2, 1, 4.5);
  m->Add(2, 3, 2.0);
  m->Add(3, 2, 1.0);
  m->Add(3, 1, 2.0);
  m->Add(4, 2, 1.0);
  return m;
}

TEST(RatingMatrixTest, BasicAccounting) {
  auto m = Figure1Ratings();
  EXPECT_EQ(m->NumUsers(), 4u);
  EXPECT_EQ(m->NumItems(), 3u);
  EXPECT_EQ(m->NumRatings(), 7u);
  EXPECT_DOUBLE_EQ(m->Get(2, 1).value(), 4.5);
  EXPECT_FALSE(m->Get(1, 2).has_value());
  EXPECT_FALSE(m->Get(99, 1).has_value());
  EXPECT_NEAR(m->GlobalMean(), (1.5 + 3.5 + 4.5 + 2.0 + 1.0 + 2.0 + 1.0) / 7,
              1e-12);
}

TEST(RatingMatrixTest, OverwriteDoesNotDuplicate) {
  RatingMatrix m;
  m.Add(1, 10, 3.0);
  m.Add(1, 10, 5.0);
  EXPECT_EQ(m.NumRatings(), 1u);
  EXPECT_DOUBLE_EQ(m.Get(1, 10).value(), 5.0);
  EXPECT_DOUBLE_EQ(m.GlobalMean(), 5.0);
}

TEST(RatingMatrixTest, VectorsAreSortedByDenseIndex) {
  RatingMatrix m;
  m.Add(5, 30, 1);
  m.Add(5, 10, 2);
  m.Add(5, 20, 3);
  auto u = m.UserIndex(5).value();
  const CsrRow row = m.UserCsrRow(u);
  ASSERT_EQ(row.n, 3u);
  EXPECT_LT(row.idx[0], row.idx[1]);
  EXPECT_LT(row.idx[1], row.idx[2]);
}

TEST(RatingMatrixTest, FreezeBuildsCsrAndMutationInvalidates) {
  auto m = Figure1Ratings();
  EXPECT_FALSE(m->frozen());
  EXPECT_GT(m->CsrApproxBytes(), 0u);  // every row is live before a freeze
  // Copy every row as the live rows hold it before the freeze.
  using Row = std::vector<std::pair<int32_t, double>>;
  auto copy = [](CsrRow row) {
    Row out;
    for (size_t k = 0; k < row.n; ++k) out.emplace_back(row.idx[k], row.rating[k]);
    return out;
  };
  std::vector<Row> user_rows, item_rows;
  for (size_t u = 0; u < m->NumUsers(); ++u) {
    user_rows.push_back(copy(m->UserCsrRow(static_cast<int32_t>(u))));
  }
  for (size_t i = 0; i < m->NumItems(); ++i) {
    item_rows.push_back(copy(m->ItemCsrRow(static_cast<int32_t>(i))));
  }
  m->Freeze();
  ASSERT_TRUE(m->frozen());
  EXPECT_GT(m->CsrApproxBytes(), 0u);
  // Every flattened base row must mirror the live row it came from exactly.
  for (size_t u = 0; u < m->NumUsers(); ++u) {
    EXPECT_EQ(copy(m->BaseUserCsrRow(static_cast<int32_t>(u))), user_rows[u])
        << "user row " << u;
  }
  for (size_t i = 0; i < m->NumItems(); ++i) {
    EXPECT_EQ(copy(m->BaseItemCsrRow(static_cast<int32_t>(i))), item_rows[i])
        << "item row " << i;
  }
  // Freeze is idempotent; mutations while frozen land in live rows instead
  // of invalidating the base (PR 7), and re-freezing flattens them back
  // into a clean CSR.
  m->Freeze();
  EXPECT_TRUE(m->frozen());
  m->Add(9, 9, 2.0);
  EXPECT_TRUE(m->frozen());
  EXPECT_TRUE(m->has_delta());
  m->Freeze();
  EXPECT_TRUE(m->frozen());
  EXPECT_FALSE(m->has_delta());
  m->Remove(9, 9);
  EXPECT_TRUE(m->frozen());
  EXPECT_TRUE(m->has_delta());
}

TEST(RatingMatrixTest, FailedRemoveKeepsMatrixFrozen) {
  // Regression: Remove used to un-freeze before checking existence, so a
  // Remove of an absent pair (which mutates nothing) invalidated the CSR
  // snapshot that models were still reading. With copy-on-write live rows
  // the equivalent bug would be logging a delta op for a no-op remove.
  auto m = Figure1Ratings();
  m->Freeze();
  ASSERT_TRUE(m->frozen());

  EXPECT_FALSE(m->Remove(99, 1));    // unknown user
  EXPECT_FALSE(m->has_delta());
  EXPECT_FALSE(m->Remove(1, 99));    // unknown item
  EXPECT_FALSE(m->has_delta());
  EXPECT_FALSE(m->Remove(1, 2));     // both known, pair not rated
  EXPECT_FALSE(m->has_delta());
  EXPECT_TRUE(m->frozen());
  EXPECT_EQ(m->NumRatings(), 7u);

  // A successful Remove keeps the matrix frozen but records a delta op.
  EXPECT_TRUE(m->Remove(1, 1));
  EXPECT_TRUE(m->frozen());
  EXPECT_TRUE(m->has_delta());
  EXPECT_EQ(m->NumRatings(), 6u);
}

TEST(RatingMatrixTest, IdsInternedAfterTheFreezeTakeTheirPlaceInIdOrder) {
  RatingMatrix m;
  for (int64_t id : {50, 10, 40, 20, 30}) m.Add(1, id, 3.0);
  m.Freeze();
  // A new lowest, middle and highest id, then a re-flatten that must keep
  // the order it maintained.
  m.Add(2, 5, 1.0);
  m.Add(2, 35, 1.0);
  m.Add(3, 60, 1.0);
  const std::vector<int64_t> want_items = {5, 10, 20, 30, 35, 40, 50, 60};
  for (bool refrozen : {false, true}) {
    SCOPED_TRACE(refrozen ? "after re-freeze" : "live");
    if (refrozen) m.Freeze();
    ASSERT_EQ(m.ItemsById().size(), want_items.size());
    for (size_t p = 0; p < want_items.size(); ++p) {
      const int32_t idx = m.ItemsById()[p];
      EXPECT_EQ(m.ItemIdAt(idx), want_items[p]) << p;
      EXPECT_EQ(m.ItemIdPos(idx), static_cast<int32_t>(p)) << p;
    }
  }
  m.Add(0, 10, 2.0);  // a user id below every interned user
  std::vector<int64_t> users;
  for (int32_t u : m.UsersById()) users.push_back(m.UserIdAt(u));
  EXPECT_EQ(users, (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST(RatingMatrixTest, UnfrozenCsrAccessorsReturnEmptyRows) {
  // Before the first freeze every row is live, so the row view reads its
  // contents; the bounds guard is a real runtime check (not a debug-only
  // assertion): negative and unknown indices read as empty, never as
  // out-of-bounds pointers — also in release builds.
  RatingMatrix m;
  m.Add(1, 10, 3.0);
  CsrRow row = m.UserCsrRow(0);
  ASSERT_EQ(row.n, 1u);
  EXPECT_EQ(row.idx[0], 0);
  EXPECT_EQ(row.rating[0], 3.0);
  row = m.ItemCsrRow(0);
  ASSERT_EQ(row.n, 1u);
  EXPECT_EQ(row.rating[0], 3.0);
  EXPECT_EQ(m.UserCsrRow(5).n, 0u);
  EXPECT_EQ(m.UserCsrRow(5).idx, nullptr);
  EXPECT_EQ(m.UserCsrRow(-1).n, 0u);
  EXPECT_EQ(m.ItemCsrRow(-1).n, 0u);
  EXPECT_EQ(m.BaseUserCsrRow(0).n, 0u);  // no base before the first freeze

  m.Freeze();
  EXPECT_EQ(m.UserCsrRow(0).n, 1u);
  // Unknown rows (and negative indices) still read as empty.
  EXPECT_EQ(m.UserCsrRow(5).n, 0u);
  EXPECT_EQ(m.UserCsrRow(-1).n, 0u);

  m.Add(2, 20, 4.0);  // frozen: lands in a live row, row 0 keeps serving
  EXPECT_TRUE(m.frozen());
  EXPECT_EQ(m.UserCsrRow(0).n, 1u);
  EXPECT_EQ(m.UserCsrRow(1).n, 1u);  // new user's row is a live row
}

TEST(CFModelTest, PredictionsIdenticalFrozenAndUnfrozen) {
  // Scoring reads the merge view; an add-then-remove leaves the merged
  // contents identical to the original matrix, so predictions must be
  // bit-identical, not merely close.
  auto frozen = Figure1Ratings();
  auto item_model = ItemCFModel::Build(frozen, /*centered=*/false);
  auto user_model = UserCFModel::Build(frozen, /*centered=*/false);
  ASSERT_TRUE(frozen->frozen());

  std::vector<std::pair<int64_t, int64_t>> probes = {
      {1, 1}, {1, 2}, {1, 3}, {2, 2}, {3, 3}, {4, 1}, {4, 3}};
  std::vector<double> item_expected, user_expected;
  for (auto [u, i] : probes) {
    item_expected.push_back(item_model->Predict(u, i));
    user_expected.push_back(user_model->Predict(u, i));
  }

  // Mutate without changing contents: add then remove a fresh rating. The
  // matrix stays frozen and the live rows read as before.
  frozen->Add(9, 9, 2.0);
  ASSERT_TRUE(frozen->Remove(9, 9));
  ASSERT_TRUE(frozen->frozen());

  for (size_t k = 0; k < probes.size(); ++k) {
    auto [u, i] = probes[k];
    EXPECT_EQ(item_model->Predict(u, i), item_expected[k])
        << "ItemCF (" << u << "," << i << ")";
    EXPECT_EQ(user_model->Predict(u, i), user_expected[k])
        << "UserCF (" << u << "," << i << ")";
  }
}

TEST(SimilarityTest, PairwiseCosineMatchesHandComputation) {
  // a = (1, 2, 0), b = (2, 0, 3) over dims {0,1,2}: dot = 2,
  // |a| = sqrt(5), |b| = sqrt(13).
  const int32_t a_idx[] = {0, 1}, b_idx[] = {0, 2};
  const double a_val[] = {1, 2}, b_val[] = {2, 3};
  EXPECT_NEAR(PairwiseCosine({a_idx, a_val, 2}, {b_idx, b_val, 2}), 2.0 / (std::sqrt(5.0) * std::sqrt(13.0)),
              1e-12);
}

TEST(SimilarityTest, DisjointVectorsHaveZeroSimilarity) {
  const int32_t a_idx[] = {0, 1}, b_idx[] = {2, 3};
  const double a_val[] = {1, 2}, b_val[] = {2, 3};
  EXPECT_DOUBLE_EQ(PairwiseCosine({a_idx, a_val, 2}, {b_idx, b_val, 2}), 0.0);
}

// ------------------------------------------------------------ NeighborRow

/// The canonical row of a reference entry map, built by appending.
NeighborRow RowOf(const std::map<int32_t, float>& entries) {
  NeighborRow row;
  for (const auto& [idx, sim] : entries) row.Append(idx, sim);
  row.ShrinkToFit();
  return row;
}

/// Iteration, lookup, entry count and the run invariants against the map:
/// every run starts and ends on an entry, no zero stretch inside a run is
/// longer than kMaxBridge, and consecutive runs are more than kMaxBridge
/// indices apart.
void ExpectRowMatchesMap(const NeighborRow& row,
                         const std::map<int32_t, float>& entries,
                         int32_t max_idx) {
  std::vector<std::pair<int32_t, float>> got;
  for (const Neighbor nb : row) got.emplace_back(nb.idx, nb.sim);
  const std::vector<std::pair<int32_t, float>> want(entries.begin(),
                                                    entries.end());
  EXPECT_EQ(got, want);
  EXPECT_EQ(row.NumEntries(), entries.size());
  EXPECT_EQ(row.empty(), entries.empty());
  for (int32_t idx = -2; idx <= max_idx + 2; ++idx) {
    auto it = entries.find(idx);
    EXPECT_EQ(row.Find(idx), it == entries.end() ? 0.0f : it->second)
        << "idx " << idx;
  }
  const std::span<const float> cells = row.cells();
  size_t at = 0;
  int32_t prev_last = -1 - NeighborRow::kMaxBridge - 1;
  for (const NeighborRow::Run& run : row.runs()) {
    ASSERT_GT(run.count, 0);
    EXPECT_GT(run.first - prev_last - 1, NeighborRow::kMaxBridge);
    EXPECT_NE(cells[at], 0.0f);
    EXPECT_NE(cells[at + run.count - 1], 0.0f);
    int32_t zeros = 0;
    for (int32_t c = 0; c < run.count; ++c) {
      zeros = cells[at + c] == 0.0f ? zeros + 1 : 0;
      EXPECT_LE(zeros, NeighborRow::kMaxBridge);
    }
    at += run.count;
    prev_last = run.first + run.count - 1;
  }
  EXPECT_EQ(at, cells.size());
}

TEST(NeighborRowTest, PatchedRowsAreByteIdenticalToFreshRows) {
  // Random entry sets of varying density, then random batches of set,
  // insert and erase edits (ascending, one per index, an erase written as
  // 0) through SetEntries that land on entries, on bridged zero cells,
  // between runs, before the first run and past the last. After every
  // batch the row must equal, byte for byte, the row freshly built from the
  // reference map's entries.
  Rng rng(2024);
  constexpr int32_t kSpan = 120;
  for (int trial = 0; trial < 200; ++trial) {
    const double density = rng.UniformDouble(0.02, 1.0);
    std::map<int32_t, float> entries;
    for (int32_t idx = 0; idx < kSpan; ++idx) {
      if (rng.UniformDouble(0, 1) < density) {
        entries[idx] = static_cast<float>(rng.UniformDouble(-1, 1)) + 2.0f;
      }
    }
    NeighborRow row = RowOf(entries);
    ExpectRowMatchesMap(row, entries, kSpan);
    for (int batch = 0; batch < 12; ++batch) {
      std::map<int32_t, float> picked;
      const int n = static_cast<int>(rng.UniformInt(1, 12));
      for (int k = 0; k < n; ++k) {
        const auto idx = static_cast<int32_t>(rng.UniformInt(0, kSpan + 10));
        const bool erase = rng.UniformInt(0, 2) == 0;
        const float sim = static_cast<float>(rng.UniformDouble(0.1, 1.0)) *
                          (rng.UniformInt(0, 1) == 0 ? -1.0f : 1.0f);
        picked[idx] = erase ? 0.0f : sim;
      }
      std::vector<int32_t> idx;
      std::vector<float> sims;
      for (const auto& [i, sim] : picked) {
        idx.push_back(i);
        sims.push_back(sim);
        if (sim == 0.0f) {
          entries.erase(i);
        } else {
          entries[i] = sim;
        }
      }
      row.SetEntries(idx, sims);
      EXPECT_TRUE(row == RowOf(entries)) << "trial " << trial << " batch "
                                         << batch;
      ExpectRowMatchesMap(row, entries, kSpan + 10);
    }
  }
}

TEST(NeighborRowTest, BridgesGapsOfAtMostTwoCells) {
  NeighborRow row;
  row.Append(3, 0.5f);
  row.Append(4, 0.25f);   // adjacent: same run
  row.Append(7, -1.0f);   // two missing (5, 6): bridged
  row.Append(11, 2.0f);   // three missing (8..10): new run
  ASSERT_EQ(row.runs().size(), 2u);
  EXPECT_EQ(row.runs()[0], (NeighborRow::Run{3, 5}));
  EXPECT_EQ(row.runs()[1], (NeighborRow::Run{11, 1}));
  const std::vector<float> cells(row.cells().begin(), row.cells().end());
  EXPECT_EQ(cells, (std::vector<float>{0.5f, 0.25f, 0, 0, -1.0f, 2.0f}));
  EXPECT_EQ(row.NumEntries(), 4u);
  EXPECT_EQ(row.Find(5), 0.0f);

  // Erasing 7 leaves a trailing zero stretch: the run shrinks to [3, 4].
  auto set = [&](int32_t idx, float sim) {
    row.SetEntries(std::span<const int32_t>(&idx, 1),
                   std::span<const float>(&sim, 1));
  };
  set(7, 0.0f);
  ASSERT_EQ(row.runs().size(), 2u);
  EXPECT_EQ(row.runs()[0], (NeighborRow::Run{3, 2}));
  // Setting 8: three cells (5..7) lie between it and the first run, two
  // (9, 10) between it and the run at 11, so it joins only the latter.
  set(8, 0.75f);
  ASSERT_EQ(row.runs().size(), 2u);
  EXPECT_EQ(row.runs()[1], (NeighborRow::Run{8, 4}));
  // Setting 6 now bridges 5 and 7 on both sides: one run [3, 11].
  set(6, 0.125f);
  ASSERT_EQ(row.runs().size(), 1u);
  EXPECT_EQ(row.runs()[0], (NeighborRow::Run{3, 9}));
}

// ------------------------------------------------------------ CF kernel

/// The per-row walk the fused kernel replaces: each rated row below the
/// table's end, in ascending order, adds one term per cell of its runs
/// clipped to [lo, hi].
void PerRowWalk(std::span<const NeighborRow> table, const CsrRow& rated,
                int32_t lo, int32_t hi, double* num, double* den) {
  for (size_t k = 0; k < rated.n; ++k) {
    if (rated.idx[k] >= static_cast<int32_t>(table.size())) continue;
    const double r = rated.rating[k];
    table[rated.idx[k]].ForEachRunIn(
        lo, hi, [&](int32_t first, const float* cells, int32_t count) {
          for (int32_t c = 0; c < count; ++c) {
            const double sim = cells[c];
            num[first - lo + c] += sim * r;
            den[first - lo + c] += std::fabs(sim);
          }
        });
  }
}

/// Every kernel variant this host runs, called directly, against the
/// per-row walk and against the baseline variant: num and den byte for
/// byte.
::testing::AssertionResult VariantsMatchPerRowWalk(
    std::span<const NeighborRow> table, const CsrRow& rated, int32_t lo,
    int32_t hi) {
  const size_t width = static_cast<size_t>(hi - lo) + 1;
  const size_t bytes = width * sizeof(double);
  std::vector<double> want_num(width, 0.0), want_den(width, 0.0);
  PerRowWalk(table, rated, lo, hi, want_num.data(), want_den.data());
  std::vector<double> base_num, base_den;
  for (KernelVariant kernel : SupportedKernelVariants()) {
    std::vector<double> num(width, 0.0), den(width, 0.0);
    AccumulateRatedRows(kernel, table, rated, lo, hi, num.data(), den.data());
    const std::string where = std::string(KernelVariantName(kernel)) + ", " +
                              std::to_string(rated.n) + " rated rows, [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]";
    if (std::memcmp(num.data(), want_num.data(), bytes) != 0 ||
        std::memcmp(den.data(), want_den.data(), bytes) != 0) {
      return ::testing::AssertionFailure()
             << where << ": differs from the per-row walk";
    }
    if (kernel == KernelVariant::kBaseline) {
      base_num = num;
      base_den = den;
    } else if (std::memcmp(num.data(), base_num.data(), bytes) != 0 ||
               std::memcmp(den.data(), base_den.data(), bytes) != 0) {
      return ::testing::AssertionFailure()
             << where << ": differs from the baseline variant";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CfKernelTest, VariantsMatchPerRowWalkOnMovieLensItemCosCF) {
  ASSERT_FALSE(SupportedKernelVariants().empty());
  EXPECT_EQ(SupportedKernelVariants().front(), KernelVariant::kBaseline);
  for (KernelVariant kernel : SupportedKernelVariants()) {
    RecordProperty(std::string("variant_") + KernelVariantName(kernel), "run");
  }
  RecDB db;
  auto ds = datagen::LoadDataset(&db, datagen::DatasetSpec::MovieLens100K());
  ASSERT_TRUE(ds.ok()) << ds.status();
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER ml ON " +
                         ds.value().ratings_table +
                         " USERS FROM uid ITEMS FROM iid RATINGS FROM "
                         "ratingval USING ItemCosCF")
                  .ok());
  const auto* model = dynamic_cast<const ItemCFModel*>(
      db.GetRecommender("ml").value()->model());
  ASSERT_NE(model, nullptr);
  const std::span<const NeighborRow> table = model->neighborhoods();
  const auto rows = static_cast<int32_t>(table.size());
  Rng rng(28);
  for (size_t u = 0; u < model->ratings().NumUsers(); u += 5) {
    const CsrRow rated = model->ratings().UserCsrRow(static_cast<int32_t>(u));
    // The whole catalog, a range cutting through runs, and the user's
    // first 1-7 rated rows (a remainder with no group, or one group and a
    // remainder of 1-3).
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, rated, 0, rows - 1))
        << "user " << u;
    const auto lo = static_cast<int32_t>(rng.UniformInt(1, rows / 2));
    const auto hi = static_cast<int32_t>(rng.UniformInt(lo, rows - 2));
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, rated, lo, hi)) << "user " << u;
    CsrRow head = rated;
    head.n = std::min<size_t>(rated.n, 1 + u % 7);
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, head, 0, rows - 1))
        << "user " << u;
    // Integer ratings times float similarities are exact in double, and
    // so are most of their sums: any order would give these bits. Ratings
    // of r / 3 + 0.1 make the sums round, so only the per-row walk's order
    // does.
    std::vector<double> inexact(rated.rating, rated.rating + rated.n);
    for (double& r : inexact) r = r / 3 + 0.1;
    const CsrRow rounding{rated.idx, inexact.data(), rated.n};
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, rounding, 0, rows - 1))
        << "user " << u;
  }
}

TEST(CfKernelTest, VariantsMatchPerRowWalkOnMultiRunRows) {
  // Rows edited by SetEntries erases: a long erase splits a run (a gap
  // longer than kMaxBridge), a short one leaves bridged zero cells inside
  // it. Similarities of both signs; ratings include 0.0, whose term with a
  // negative similarity is -0.0 (DESIGN.md §10), and values whose products
  // round. Rated rows run past the table's end.
  constexpr int32_t kRows = 96;
  Rng rng(2028);
  std::vector<NeighborRow> table(kRows);
  size_t multi_run = 0, bridged = 0;
  for (NeighborRow& row : table) {
    const double density = rng.UniformDouble(0.3, 1.0);
    std::map<int32_t, float> entries;
    for (int32_t idx = 0; idx < kRows; ++idx) {
      if (rng.UniformDouble(0, 1) >= density) continue;
      const float sim = static_cast<float>(rng.UniformDouble(0.05, 1.0));
      entries[idx] = rng.UniformInt(0, 3) == 0 ? -sim : sim;
    }
    row = RowOf(entries);
    std::vector<int32_t> idx;
    const auto start = static_cast<int32_t>(rng.UniformInt(0, kRows - 8));
    const auto len = static_cast<int32_t>(rng.UniformInt(1, 6));
    for (int32_t i = start; i < start + len; ++i) idx.push_back(i);
    row.SetEntries(idx, std::vector<float>(idx.size(), 0.0f));
    multi_run += row.runs().size() > 1;
    bridged += row.num_cells() > row.NumEntries();
  }
  ASSERT_GT(multi_run, kRows / 4u);
  ASSERT_GT(bridged, kRows / 4u);

  const double kRatings[] = {0.0, 1.0, 0.1, 4.0, 1.0 / 3, 0.0, 2.718281828};
  for (int trial = 0; trial < 400; ++trial) {
    // 1-11 rated rows: 1-3 alone, then one or two groups of four and a
    // remainder of 0-3.
    const auto n = static_cast<size_t>(trial % 11 + 1);
    std::map<int32_t, double> picked;
    while (picked.size() < n) {
      picked[static_cast<int32_t>(rng.UniformInt(0, kRows + 4))] =
          kRatings[rng.UniformInt(0, 6)];
    }
    std::vector<int32_t> idx;
    std::vector<double> ratings;
    for (const auto& [i, r] : picked) {
      idx.push_back(i);
      ratings.push_back(r);
    }
    const CsrRow rated{idx.data(), ratings.data(), idx.size()};
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, rated, 0, kRows - 1))
        << "trial " << trial;
    const auto lo = static_cast<int32_t>(rng.UniformInt(0, kRows - 1));
    const auto hi = static_cast<int32_t>(rng.UniformInt(lo, kRows - 1));
    ASSERT_TRUE(VariantsMatchPerRowWalk(table, rated, lo, hi))
        << "trial " << trial;
  }

  // A negative cell times a 0.0 rating is -0.0; num starts at +0.0 and
  // stays +0.0 in every variant.
  std::vector<NeighborRow> one(4);
  for (NeighborRow& row : one) row.Append(0, -0.5f);
  const int32_t idx[] = {0, 1, 2, 3};
  const double zeros[] = {0.0, 0.0, 0.0, 0.0};
  for (KernelVariant kernel : SupportedKernelVariants()) {
    double num = 0.0, den = 0.0;
    AccumulateRatedRows(kernel, one, CsrRow{idx, zeros, 4}, 0, 0, &num, &den);
    EXPECT_FALSE(std::signbit(num)) << KernelVariantName(kernel);
    EXPECT_EQ(den, 2.0) << KernelVariantName(kernel);
  }
}

/// One SVD score in the model's order, test-side: eight float lanes, lane
/// j summing the k ≡ j (mod 8) terms in ascending k, reduced as
/// (s01 + s23) + (s45 + s67), widened to double and added to the base.
double ReferenceSvdScore(const float* pu, double user_base,
                         const ItemFactorRows& rows, int32_t i) {
  if (i < 0 || static_cast<size_t>(i) >= rows.num_rows) return 0.0;
  const int32_t n = rows.num_factors;
  const float* q = rows.factors + static_cast<size_t>(i) * n;
  float acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int32_t k = 0;
  for (; k + 8 <= n; k += 8) {
    for (int32_t j = 0; j < 8; ++j) acc[j] += pu[k + j] * q[k + j];
  }
  for (; k < n; ++k) acc[k & 7] += pu[k] * q[k];
  const float dot =
      ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
      ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  const double base = rows.bias != nullptr ? user_base + rows.bias[i] : 0.0;
  return base + static_cast<double>(dot);
}

/// Every SVD kernel variant this host runs, called directly, against the
/// reference: each score byte for byte.
::testing::AssertionResult SvdVariantsMatchReference(
    const float* pu, double user_base, const ItemFactorRows& rows,
    std::span<const int32_t> items) {
  std::vector<double> want(items.size());
  for (size_t c = 0; c < items.size(); ++c) {
    want[c] = ReferenceSvdScore(pu, user_base, rows, items[c]);
  }
  for (KernelVariant variant : SupportedKernelVariants()) {
    std::vector<double> out(items.size(), -1.0);
    ScoreItemRows(variant, pu, user_base, rows, items, out);
    for (size_t c = 0; c < items.size(); ++c) {
      if (std::memcmp(&out[c], &want[c], sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << KernelVariantName(variant) << ", f = " << rows.num_factors
               << ", biases " << (rows.bias != nullptr) << ", batch of "
               << items.size() << ": candidate " << c << " (item "
               << items[c] << ") scored " << out[c] << ", want " << want[c];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(SvdKernelTest, VariantsMatchDotRowsBitForBit) {
  ASSERT_EQ(SupportedKernelVariants().front(), KernelVariant::kBaseline);
  for (KernelVariant variant : SupportedKernelVariants()) {
    RecordProperty(std::string("variant_") + KernelVariantName(variant),
                   "run");
  }
  constexpr int32_t kRows = 301;
  Rng rng(29);
  std::vector<int32_t> catalog(kRows);
  for (int32_t i = 0; i < kRows; ++i) catalog[i] = i;
  for (int32_t f : {1, 7, 8, 16, 32, 33}) {
    // Non-integer factors of both signs, so lane sums round and a change
    // of summation order shows.
    std::vector<float> factors(static_cast<size_t>(kRows) * f);
    for (float& v : factors) v = static_cast<float>(rng.Gaussian(0, 0.7));
    std::vector<float> bias(kRows);
    for (float& b : bias) b = static_cast<float>(rng.UniformDouble(-0.4, 0.4));
    std::vector<float> user(f), zero_user(f, 0.0f);
    for (float& v : user) v = static_cast<float>(rng.Gaussian(0, 0.7));
    for (bool biases : {false, true}) {
      const ItemFactorRows rows{factors.data(),
                                biases ? bias.data() : nullptr, kRows, f};
      const double user_base = biases ? 3.52986 + 0.0731 : 0.0;
      for (const float* pu : {user.data(), zero_user.data()}) {
        ASSERT_TRUE(SvdVariantsMatchReference(pu, user_base, rows, catalog));
        // Batches of 0-9 (no group of four, one or two groups and a
        // remainder), with negative, past-the-end and duplicate indices
        // interleaved among known ones.
        for (size_t n = 0; n <= 9; ++n) {
          for (int trial = 0; trial < 25; ++trial) {
            std::vector<int32_t> items(n);
            for (size_t c = 0; c < n; ++c) {
              switch (rng.UniformInt(0, 5)) {
                case 0:
                  items[c] = -1 - static_cast<int32_t>(rng.UniformInt(0, 2));
                  break;
                case 1:
                  items[c] = kRows + static_cast<int32_t>(rng.UniformInt(0, 2));
                  break;
                case 2:
                  items[c] = c > 0 ? items[c - 1] : kRows - 1;
                  break;
                default:
                  items[c] = static_cast<int32_t>(rng.UniformInt(0, kRows - 1));
              }
            }
            ASSERT_TRUE(SvdVariantsMatchReference(pu, user_base, rows, items))
                << "trial " << trial;
          }
        }
      }
    }
  }
}

TEST(SvdKernelTest, TrainedModelScoresInTheReferenceOrder) {
  // The model's batch path over the whole catalog and three past-the-end
  // indices (no factor row), biases on and off.
  auto m = std::make_shared<RatingMatrix>();
  Rng rng(2029);
  for (int u = 1; u <= 50; ++u) {
    for (int k = 0; k < 12; ++k) {
      m->Add(u, rng.UniformInt(1, 80), rng.UniformDouble(0.5, 5.0));
    }
  }
  for (bool biases : {false, true}) {
    SvdOptions opts;
    opts.use_biases = biases;
    opts.num_epochs = 5;
    std::unique_ptr<SvdModel> model = SvdModel::Build(m, opts);
    std::vector<int32_t> items;
    for (int32_t i = 0; i < static_cast<int32_t>(m->NumItems()) + 3; ++i) {
      items.push_back(i);
    }
    std::vector<double> out(items.size());
    for (int32_t u = 0; u < static_cast<int32_t>(m->NumUsers()); ++u) {
      model->PredictBatchByIndex(u, items, out);
      for (size_t c = 0; c < items.size(); ++c) {
        const double want = ReferenceSvdScore(model->UserFactors(u).data(),
                                              model->UserBase(u),
                                              model->ItemRows(), items[c]);
        ASSERT_EQ(std::memcmp(&out[c], &want, sizeof(double)), 0)
            << "biases " << biases << ", user " << u << ", item " << c;
      }
    }
  }
}

TEST(SimilarityTest, ItemNeighborhoodsMatchPairwiseOracle) {
  auto m = Figure1Ratings();
  auto nb = BuildNeighborTable(*m, CfSide::kItem, SimilarityOptions{});
  ASSERT_EQ(nb.size(), m->NumItems());
  for (size_t p = 0; p < m->NumItems(); ++p) {
    int32_t prev = -1;
    for (const auto& n : nb[p]) {
      double oracle = PairwiseCosine(m->ItemCsrRow(static_cast<int32_t>(p)),
                                     m->ItemCsrRow(n.idx));
      EXPECT_NEAR(n.sim, oracle, 1e-6);
      EXPECT_NE(n.idx, static_cast<int32_t>(p)) << "self-similarity stored";
      // Ascending neighbor index.
      EXPECT_LT(prev, n.idx);
      prev = n.idx;
    }
  }
}

TEST(SimilarityTest, SymmetricSimilarity) {
  auto m = Figure1Ratings();
  auto model = ItemCFModel::Build(m, /*centered=*/false);
  EXPECT_NEAR(model->Similarity(1, 2), model->Similarity(2, 1), 1e-9);
  EXPECT_NEAR(model->Similarity(1, 3), model->Similarity(3, 1), 1e-9);
}

TEST(SimilarityTest, LookupMatchesLinearScanOracle) {
  // Similarity() looks up the one stored neighborhood row, which iterates
  // in ascending index with or without top-k truncation. Every pair must agree
  // with a brute-force linear scan of the stored row, including absent
  // pairs (0.0) and ids unknown to the matrix.
  RatingMatrix m;
  Rng rng(17);
  for (int u = 0; u < 30; ++u) {
    for (int k = 0; k < 9; ++k) {
      m.Add(u, rng.UniformInt(0, 24), rng.UniformDouble(1, 5));
    }
  }
  for (int32_t top_k : {0, 4}) {
    SimilarityOptions opts;
    opts.top_k = top_k;
    auto mp = std::make_shared<RatingMatrix>(m);
    auto model = ItemCFModel::Build(mp, /*centered=*/false, opts);
    for (size_t a = 0; a < mp->NumItems(); ++a) {
      const auto& row = model->NeighborhoodAt(static_cast<int32_t>(a));
      for (size_t b = 0; b < mp->NumItems(); ++b) {
        double oracle = 0;
        for (const auto& n : row) {
          if (n.idx == static_cast<int32_t>(b)) {
            oracle = n.sim;
            break;
          }
        }
        EXPECT_EQ(model->Similarity(mp->ItemIdAt(static_cast<int32_t>(a)),
                                    mp->ItemIdAt(static_cast<int32_t>(b))),
                  oracle)
            << "items " << a << "," << b << " top_k=" << top_k;
      }
    }
    EXPECT_EQ(model->Similarity(0, 424242), 0.0);
    EXPECT_EQ(model->Similarity(424242, 0), 0.0);
  }
}

TEST(SimilarityTest, CosineRangeIsBounded) {
  RatingMatrix m;
  Rng rng(99);
  for (int u = 0; u < 40; ++u) {
    for (int k = 0; k < 12; ++k) {
      m.Add(u, rng.UniformInt(0, 30), rng.UniformDouble(1, 5));
    }
  }
  auto nb = BuildNeighborTable(m, CfSide::kItem, SimilarityOptions{});
  for (const auto& row : nb) {
    for (const auto& n : row) {
      EXPECT_LE(n.sim, 1.0 + 1e-5);
      EXPECT_GE(n.sim, -1.0 - 1e-5);
    }
  }
}

TEST(SimilarityTest, TopKTruncationKeepsStrongest) {
  RatingMatrix m;
  Rng rng(7);
  for (int u = 0; u < 30; ++u) {
    for (int k = 0; k < 10; ++k) {
      m.Add(u, rng.UniformInt(0, 20), rng.UniformDouble(1, 5));
    }
  }
  SimilarityOptions full, truncated;
  truncated.top_k = 3;
  auto nb_full = BuildNeighborTable(m, CfSide::kItem, full);
  auto nb_k = BuildNeighborTable(m, CfSide::kItem, truncated);
  for (size_t i = 0; i < nb_k.size(); ++i) {
    EXPECT_LE(nb_k[i].NumEntries(), 3u);
    if (nb_full[i].NumEntries() >= 3) {
      // The strongest |sim| in the full list must appear in the truncated.
      float best = 0;
      for (const auto& n : nb_full[i]) best = std::max(best, std::fabs(n.sim));
      bool found = false;
      for (const auto& n : nb_k[i]) {
        if (std::fabs(std::fabs(n.sim) - best) < 1e-7) found = true;
      }
      EXPECT_TRUE(found) << "item " << i;
    }
  }
}

TEST(SimilarityTest, MinOverlapFiltersThinPairs) {
  // Items 0,1 share two raters; items 0,2 share one.
  RatingMatrix m;
  m.Add(1, 0, 4);
  m.Add(1, 1, 3);
  m.Add(2, 0, 5);
  m.Add(2, 1, 4);
  m.Add(3, 0, 2);
  m.Add(3, 2, 2);
  SimilarityOptions opts;
  opts.min_overlap = 2;
  auto nb = BuildNeighborTable(m, CfSide::kItem, opts);
  auto i0 = m.ItemIndex(0).value();
  auto i2 = m.ItemIndex(2).value();
  for (const auto& n : nb[i0]) EXPECT_NE(n.idx, i2);
}

// ------------------------------------------------------ neighborhood oracle

/// Ratings r/3 + 0.1 on a 0.5-step scale: unlike integer or half-step
/// ratings, their products do not sum exactly in float, so a builder that
/// changed a pair's summation order would change bits. Items 30-35 copy
/// items 0-5 and users 40-45 copy users 0-5, so many rows hold equal |sim|
/// for different neighbors: the top-k cut lands on ties.
std::shared_ptr<RatingMatrix> OddRatingsWithTwins() {
  constexpr int kUsers = 40, kItems = 30, kTwins = 6;
  std::vector<std::vector<double>> r(kUsers + kTwins,
                                     std::vector<double>(kItems + kTwins, 0));
  Rng rng(2024);
  for (int u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kItems; ++i) {
      if (rng.UniformInt(0, 99) < 45) {
        r[u][i] = (1.0 + 0.5 * static_cast<double>(rng.UniformInt(0, 8))) / 3 +
                  0.1;
      }
    }
    for (int k = 0; k < kTwins; ++k) r[u][kItems + k] = r[u][k];
  }
  for (int k = 0; k < kTwins; ++k) r[kUsers + k] = r[k];
  auto m = std::make_shared<RatingMatrix>();
  for (size_t u = 0; u < r.size(); ++u) {
    for (size_t i = 0; i < r[u].size(); ++i) {
      if (r[u][i] != 0) m->Add(100 + u, 500 + i, r[u][i]);
    }
  }
  return m;
}

/// A test-side reference for row p, written from the definition: for every
/// q != p, walk the two vectors' shared dimensions in ascending order,
/// accumulate float(v_p * v_q) in a float, and divide by the norms (each
/// sqrt of Σ v² in ascending dimension order, in double). Pearson centers
/// each vector by its own mean. top_k keeps the k largest |sim|, the lower
/// index first on a tie; `*cut_tie` records a tie across the cut.
std::vector<std::pair<int32_t, float>> OracleRow(const RatingMatrix& m,
                                                 CfSide side,
                                                 const SimilarityOptions& opts,
                                                 int32_t p, bool* cut_tie) {
  const SideView view(m, side);
  auto value = [&](int32_t e, double rating) {
    return rating - (opts.centered ? view.Mean(e) : 0.0);
  };
  auto norm = [&](int32_t e) {
    const CsrRow v = view.Vector(e);
    double sum = 0;
    for (size_t k = 0; k < v.n; ++k) {
      const double c = value(e, v.rating[k]);
      sum += c * c;
    }
    return std::sqrt(sum);
  };
  const CsrRow a = view.Vector(p);
  std::vector<std::pair<int32_t, float>> row;
  for (int32_t q = 0; q < static_cast<int32_t>(view.num_rows()); ++q) {
    if (q == p) continue;
    const CsrRow b = view.Vector(q);
    float dot = 0;
    int32_t shared = 0;
    for (size_t i = 0, j = 0; i < a.n && j < b.n;) {
      if (a.idx[i] < b.idx[j]) {
        ++i;
      } else if (a.idx[i] > b.idx[j]) {
        ++j;
      } else {
        dot += static_cast<float>(value(p, a.rating[i++]) *
                                  value(q, b.rating[j++]));
        ++shared;
      }
    }
    const double denom = norm(p) * norm(q);
    if (dot == 0 || shared < opts.min_overlap || denom <= 0) continue;
    const float sim = static_cast<float>(dot / denom);
    if (sim != 0) row.emplace_back(q, sim);
  }
  const size_t k = static_cast<size_t>(opts.top_k);
  if (k > 0 && row.size() > k) {
    std::stable_sort(row.begin(), row.end(), [](const auto& x, const auto& y) {
      return std::fabs(x.second) > std::fabs(y.second);
    });
    *cut_tie |= std::fabs(row[k - 1].second) == std::fabs(row[k].second);
    row.resize(k);
    std::sort(row.begin(), row.end());
  }
  return row;
}

/// Every row of `model` holds exactly the oracle's neighbors, each sim the
/// same float bits, in the canonical run form a fresh Append gives.
void ExpectRowsMatchOracle(const NeighborhoodModel& model,
                           const RatingMatrix& m, CfSide side,
                           const SimilarityOptions& opts,
                           const std::string& what, bool* cut_tie) {
  const size_t n = SideView(m, side).num_rows();
  ASSERT_EQ(model.neighborhoods().size(), n) << what;
  for (size_t p = 0; p < n; ++p) {
    const int32_t row_idx = static_cast<int32_t>(p);
    const auto want = OracleRow(m, side, opts, row_idx, cut_tie);
    const NeighborRow& row = model.NeighborhoodAt(row_idx);
    std::vector<std::pair<int32_t, float>> got;
    NeighborRow canonical;
    for (const Neighbor nb : row) got.emplace_back(nb.idx, nb.sim);
    for (const auto& [q, sim] : want) canonical.Append(q, sim);
    ASSERT_EQ(got.size(), want.size()) << what << ", row " << p;
    for (size_t c = 0; c < got.size(); ++c) {
      EXPECT_EQ(got[c].first, want[c].first) << what << ", row " << p;
      EXPECT_EQ(std::memcmp(&got[c].second, &want[c].second, sizeof(float)), 0)
          << what << ", row " << p << ", neighbor " << got[c].first << ": "
          << got[c].second << " vs oracle " << want[c].second;
    }
    EXPECT_TRUE(row == canonical) << what << ", row " << p;
  }
}

TEST(SimilarityTest, EveryCfRowMatchesTheOracleBitForBit) {
  std::vector<SimilarityOptions> variants(4);
  variants[1].min_overlap = 3;
  variants[2].top_k = 3;
  variants[3].top_k = 5;
  variants[3].min_overlap = 2;
  const RecAlgorithm algos[] = {RecAlgorithm::kItemCosCF,
                                RecAlgorithm::kItemPearCF,
                                RecAlgorithm::kUserCosCF,
                                RecAlgorithm::kUserPearCF};
  bool cut_tie = false;
  for (RecAlgorithm algo : algos) {
    const CfSide side = IsItemBased(algo) ? CfSide::kItem : CfSide::kUser;
    for (const SimilarityOptions& variant : variants) {
      const std::string what =
          std::string(RecAlgorithmToString(algo)) + " top_k " +
          std::to_string(variant.top_k) + " min_overlap " +
          std::to_string(variant.min_overlap);
      // Full build.
      auto m = OddRatingsWithTwins();
      SimilarityOptions opts = variant;
      opts.centered = algo == RecAlgorithm::kItemPearCF ||
                      algo == RecAlgorithm::kUserPearCF;
      auto model = BuildRecModel(algo, m, variant, SvdOptions{});
      ExpectRowsMatchOracle(static_cast<const NeighborhoodModel&>(*model), *m,
                            side, opts, what, &cut_tie);

      // Refresh: writes that add a rating, overwrite one, remove one and
      // intern a new user and item, then the rows the refresh installs.
      RecommenderConfig cfg;
      cfg.name = "oracle";
      cfg.algorithm = algo;
      cfg.sim_opts = variant;
      Recommender rec(cfg);
      rec.SeedMatrix(OddRatingsWithTwins());
      ASSERT_TRUE(rec.Build().ok());
      rec.AddRating(103, 507, 4.5 / 3 + 0.1);
      rec.AddRating(100, 500, 1.0 / 3 + 0.1);
      rec.RemoveRating(110, 510);
      rec.AddRating(190, 590, 2.5 / 3 + 0.1);
      rec.AddRating(104, 590, 3.5 / 3 + 0.1);
      ASSERT_TRUE(rec.Refresh().ok());
      ExpectRowsMatchOracle(
          static_cast<const NeighborhoodModel&>(*rec.model()), rec.live(),
          side, opts, what + " after refresh", &cut_tie);
    }
  }
  EXPECT_TRUE(cut_tie) << "no top-k cut fell on a |sim| tie";
}

TEST(ItemCFTest, PredictionMatchesEquation2ByHand) {
  // Two items, one target. User 10 rated item 1 (4.0) and item 2 (2.0);
  // sims to item 3 computed from the co-rating structure below.
  RatingMatrix m;
  // Users 20, 21 create co-ratings between items so sims are nonzero.
  m.Add(20, 1, 3);
  m.Add(20, 2, 3);
  m.Add(20, 3, 3);
  m.Add(21, 1, 5);
  m.Add(21, 3, 4);
  m.Add(10, 1, 4);
  m.Add(10, 2, 2);
  auto mp = std::make_shared<RatingMatrix>(m);
  auto model = ItemCFModel::Build(mp, /*centered=*/false);
  double s13 = model->Similarity(1, 3);
  double s23 = model->Similarity(2, 3);
  ASSERT_NE(s13, 0);
  ASSERT_NE(s23, 0);
  double expected =
      (s13 * 4.0 + s23 * 2.0) / (std::fabs(s13) + std::fabs(s23));
  EXPECT_NEAR(model->Predict(10, 3), expected, 1e-9);
}

TEST(ItemCFTest, NoOverlapPredictsZero) {
  RatingMatrix m;
  m.Add(1, 1, 5);  // user 1 rated only item 1
  m.Add(2, 2, 4);  // item 2 rated only by user 2 -> no co-rating with item 1
  auto mp = std::make_shared<RatingMatrix>(m);
  auto model = ItemCFModel::Build(mp, false);
  EXPECT_DOUBLE_EQ(model->Predict(1, 2), 0.0);  // Algorithm 1 line 14
}

TEST(ItemCFTest, UnknownUserOrItemPredictsZero) {
  auto m = Figure1Ratings();
  auto model = ItemCFModel::Build(m, false);
  EXPECT_DOUBLE_EQ(model->Predict(999, 1), 0.0);
  EXPECT_DOUBLE_EQ(model->Predict(1, 999), 0.0);
}

TEST(ItemCFTest, PredictionsBoundedByUserRatingRange) {
  // Eq. (2) with all-positive sims is a convex combination of the user's own
  // ratings, hence bounded by the user's min/max rating.
  RatingMatrix m;
  Rng rng(5);
  for (int u = 0; u < 50; ++u) {
    for (int k = 0; k < 15; ++k) {
      m.Add(u, rng.UniformInt(0, 40), rng.UniformInt(1, 5));
    }
  }
  auto mp = std::make_shared<RatingMatrix>(m);
  auto model = ItemCFModel::Build(mp, /*centered=*/false);  // sims >= 0
  for (int u = 0; u < 50; ++u) {
    auto uidx = mp->UserIndex(u);
    if (!uidx) continue;
    double lo = 1e9, hi = -1e9;
    const CsrRow rated = mp->UserCsrRow(*uidx);
    for (size_t k = 0; k < rated.n; ++k) {
      lo = std::min(lo, rated.rating[k]);
      hi = std::max(hi, rated.rating[k]);
    }
    for (int i = 0; i < 40; ++i) {
      if (mp->Get(u, i).has_value()) continue;
      double p = model->Predict(u, i);
      if (p == 0) continue;  // no-overlap sentinel
      EXPECT_GE(p, lo - 1e-9);
      EXPECT_LE(p, hi + 1e-9);
    }
  }
}

TEST(UserCFTest, SymmetricToItemCFOnTransposedData) {
  // UserCF on (u, i) must equal ItemCF on the transposed matrix (i, u).
  RatingMatrix m, mt;
  Rng rng(11);
  for (int k = 0; k < 200; ++k) {
    int64_t u = rng.UniformInt(0, 19);
    int64_t i = rng.UniformInt(0, 24);
    double r = rng.UniformInt(1, 5);
    m.Add(u, i, r);
    mt.Add(i, u, r);
  }
  auto usercf = UserCFModel::Build(std::make_shared<RatingMatrix>(m), false);
  auto itemcf = ItemCFModel::Build(std::make_shared<RatingMatrix>(mt), false);
  for (int u = 0; u < 20; ++u) {
    for (int i = 0; i < 25; ++i) {
      EXPECT_NEAR(usercf->Predict(u, i), itemcf->Predict(i, u), 1e-6)
          << "u=" << u << " i=" << i;
    }
  }
}

TEST(PearsonTest, CenteringChangesSimilaritySign) {
  // Two items with anti-correlated ratings around their means: raw cosine is
  // positive (all ratings positive), Pearson must be negative.
  RatingMatrix m;
  m.Add(1, 1, 5);
  m.Add(1, 2, 1);
  m.Add(2, 1, 1);
  m.Add(2, 2, 5);
  m.Add(3, 1, 3);
  m.Add(3, 2, 3);
  auto mp = std::make_shared<RatingMatrix>(m);
  auto cos_model = ItemCFModel::Build(mp, /*centered=*/false);
  auto pear_model = ItemCFModel::Build(mp, /*centered=*/true);
  EXPECT_GT(cos_model->Similarity(1, 2), 0);
  EXPECT_LT(pear_model->Similarity(1, 2), 0);
}

TEST(SvdTest, TrainingRmseDecreases) {
  RatingMatrix m;
  Rng rng(3);
  for (int u = 0; u < 60; ++u) {
    for (int k = 0; k < 20; ++k) {
      m.Add(u, rng.UniformInt(0, 50), rng.UniformInt(1, 5));
    }
  }
  SvdOptions opts;
  opts.num_epochs = 15;
  auto model = SvdModel::Build(std::make_shared<RatingMatrix>(m), opts);
  const auto& rmse = model->epoch_rmse();
  ASSERT_EQ(rmse.size(), 15u);
  EXPECT_LT(rmse.back(), rmse.front());
  // Loose monotonicity: each epoch no worse than 5% above the previous.
  for (size_t e = 1; e < rmse.size(); ++e) {
    EXPECT_LT(rmse[e], rmse[e - 1] * 1.05) << "epoch " << e;
  }
}

TEST(SvdTest, FitsStructuredDataBetterThanGlobalMean) {
  // Planted low-rank structure: r(u,i) = clamp(3 + sign pattern).
  RatingMatrix m;
  Rng rng(17);
  std::vector<double> ufac(80), ifac(60);
  for (auto& v : ufac) v = rng.Gaussian(0, 1);
  for (auto& v : ifac) v = rng.Gaussian(0, 1);
  for (int u = 0; u < 80; ++u) {
    for (int k = 0; k < 25; ++k) {
      int i = static_cast<int>(rng.UniformInt(0, 59));
      double r = std::clamp(3.0 + ufac[u] * ifac[i], 1.0, 5.0);
      m.Add(u, i, r);
    }
  }
  SvdOptions opts;
  opts.num_factors = 8;
  opts.num_epochs = 40;
  opts.use_biases = true;
  auto mp = std::make_shared<RatingMatrix>(m);
  auto model = SvdModel::BuildWithHoldout(mp, opts, /*holdout_mod=*/10);
  // Global-mean baseline RMSE on the same holdout.
  double mean = mp->GlobalMean();
  double se = 0;
  size_t n = 0;
  // Recompute holdout via the same hash the model used is internal, so use
  // total RMSE on all ratings as a conservative baseline comparison.
  for (size_t u = 0; u < mp->NumUsers(); ++u) {
    const CsrRow row = mp->UserCsrRow(static_cast<int32_t>(u));
    for (size_t k = 0; k < row.n; ++k) {
      se += (row.rating[k] - mean) * (row.rating[k] - mean);
      ++n;
    }
  }
  double baseline_rmse = std::sqrt(se / n);
  EXPECT_GT(model->holdout_rmse(), 0);
  EXPECT_LT(model->holdout_rmse(), baseline_rmse);
}

TEST(SvdTest, DeterministicWithSameSeed) {
  auto m = Figure1Ratings();
  SvdOptions opts;
  opts.num_epochs = 5;
  auto a = SvdModel::Build(m, opts);
  auto b = SvdModel::Build(m, opts);
  EXPECT_DOUBLE_EQ(a->Predict(1, 2), b->Predict(1, 2));
  EXPECT_DOUBLE_EQ(a->Predict(4, 1), b->Predict(4, 1));
}

TEST(RecommenderTest, BuildSelectsConfiguredAlgorithm) {
  for (auto algo :
       {RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
        RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF,
        RecAlgorithm::kSVD}) {
    RecommenderConfig cfg;
    cfg.name = "r";
    cfg.algorithm = algo;
    cfg.svd_opts.num_epochs = 2;
    Recommender rec(cfg);
    rec.AddRating(1, 1, 3);
    rec.AddRating(1, 2, 4);
    rec.AddRating(2, 1, 2);
    auto t = rec.Build();
    ASSERT_TRUE(t.ok());
    ASSERT_NE(rec.model(), nullptr);
    EXPECT_EQ(rec.model()->algorithm(), algo);
  }
}

TEST(RecommenderTest, MaintenanceThresholdPolicy) {
  RecommenderConfig cfg;
  cfg.name = "r";
  cfg.rebuild_threshold = 0.10;  // refresh at 10% new ratings
  Recommender rec(cfg);
  for (int u = 0; u < 4; ++u) {
    for (int i = 0; i < 5; ++i) rec.AddRating(u, i, 3.0);
  }
  EXPECT_FALSE(rec.NeedsRefresh());  // no model yet: nothing to refresh
  auto built = rec.MaintainIfNeeded();  // ...but maintenance builds one
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built.value());
  EXPECT_EQ(rec.base_size(), 20u);
  EXPECT_EQ(rec.live().delta_size(), 0u);
  EXPECT_FALSE(rec.NeedsRefresh());

  rec.AddRating(9, 9, 2.0);  // 1 new < 10% of 20
  EXPECT_FALSE(rec.NeedsRefresh());
  auto r1 = rec.MaintainIfNeeded();
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value());

  rec.AddRating(9, 8, 2.0);  // 2 new == 10% of 20 -> refresh
  EXPECT_TRUE(rec.NeedsRefresh());
  auto r2 = rec.MaintainIfNeeded();
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.value());
  EXPECT_EQ(rec.base_size(), 22u);
  EXPECT_EQ(rec.live().delta_size(), 0u);
  EXPECT_FALSE(rec.NeedsRefresh());
}

TEST(RecommenderTest, SnapshotServesNewRatingsThroughOverlay) {
  // PR 7: the historical live/snapshot split collapsed into one matrix.
  // New ratings land in live rows, so scoring sees them immediately while
  // the base CSR stays intact underneath.
  RecommenderConfig cfg;
  cfg.name = "r";
  Recommender rec(cfg);
  rec.AddRating(1, 1, 5);
  rec.AddRating(2, 1, 4);
  rec.AddRating(2, 2, 3);
  ASSERT_TRUE(rec.Build().ok());
  size_t snap_n = rec.live().NumRatings();
  rec.AddRating(3, 2, 1);
  EXPECT_EQ(rec.live().NumRatings(), snap_n + 1);
  EXPECT_TRUE(rec.live().frozen());
  EXPECT_TRUE(rec.live().has_delta());
  EXPECT_EQ(rec.live().NumRatings(), snap_n + 1);
  EXPECT_EQ(rec.live().delta_size(), 1u);
}

}  // namespace
}  // namespace recdb
