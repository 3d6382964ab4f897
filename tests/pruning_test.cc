// Bounded Top-k: TopKPruner unit contract, golden equivalence of the
// pruned path (dense selection for CF, the bound sweep for SVD) against the
// exact scan, CandidateIndex coherence across the freeze -> ingest ->
// refresh lifecycle, the batched-ingest DML path, and the planner's
// structural choice of the bounded Top-k plan.
//
// The load-bearing invariant: a pruned Top-N query returns the *identical*
// result set — same rows, same scores (EXPECT_EQ on the rendered values,
// no tolerance), same tie-break order — as the exhaustive exact plan, for
// every algorithm family, any parallelism level, and with or without a
// pending delta.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "api/recdb.h"
#include "common/task_scheduler.h"
#include "datagen/datagen.h"
#include "execution/executor.h"
#include "execution/recommend_executors.h"
#include "execution/topk_pruner.h"
#include "index/candidate_index.h"
#include "obs/metrics.h"
#include "recommender/model.h"
#include "recommender/rating_matrix.h"
#include "recommender/recommender.h"
#include "recommender/svd_model.h"

namespace recdb {
namespace {

using obs::Counter;
using obs::MetricsRegistry;

/// Restore serial execution when a test body returns.
struct ParallelismGuard {
  ~ParallelismGuard() { TaskScheduler::SetGlobalParallelism(1); }
};

uint64_t CounterValue(Counter c) {
  auto snap = MetricsRegistry::Global().Snapshot();
  return snap.counters[static_cast<size_t>(c)];
}

// ---------------------------------------------------------------- TopKPruner

TEST(TopKPrunerTest, DrainsBestFirstWithArrivalOrderTieBreak) {
  TopKPruner pruner(3);
  // Two entries tie at 5.0; the lower rank (earlier arrival) must win the
  // earlier output slot — the same rule basic_executors' TopN applies.
  pruner.Offer(5.0, /*rank=*/7, /*item_id=*/107);
  pruner.Offer(2.0, 1, 101);
  pruner.Offer(5.0, 3, 103);
  pruner.Offer(4.0, 9, 109);  // evicts the 2.0 entry
  auto out = pruner.DrainBestFirst();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].item_id, 103);  // 5.0, rank 3
  EXPECT_EQ(out[1].item_id, 107);  // 5.0, rank 7
  EXPECT_EQ(out[2].item_id, 109);  // 4.0
}

TEST(TopKPrunerTest, CanSkipOnlyWhenFullAndStrictlyBelowThreshold) {
  TopKPruner pruner(2);
  EXPECT_FALSE(pruner.CanSkip(-1e30));  // heap not full: nothing skippable
  pruner.Offer(3.0, 0, 1);
  EXPECT_FALSE(pruner.CanSkip(0.0));
  pruner.Offer(1.0, 1, 2);  // full; threshold = 1.0
  EXPECT_EQ(pruner.Threshold(), 1.0);
  EXPECT_TRUE(pruner.CanSkip(0.5));
  // A bound exactly at the threshold could still displace the worst entry
  // on tie-break (earlier rank wins), so equality must NOT skip.
  EXPECT_FALSE(pruner.CanSkip(1.0));
  EXPECT_FALSE(pruner.CanSkip(2.0));
}

TEST(TopKPrunerTest, FloorRejectsBelowMinScoreAndWouldAcceptIsMonotone) {
  TopKPruner pruner(8, /*floor=*/2.0);
  EXPECT_FALSE(pruner.WouldAccept(1.9, 0));
  EXPECT_TRUE(pruner.CanSkip(1.9));  // below the floor even when not full
  EXPECT_TRUE(pruner.WouldAccept(2.0, 0));
  pruner.Offer(1.0, 0, 1);  // silently rejected by the floor
  EXPECT_EQ(pruner.DrainBestFirst().size(), 0u);

  TopKPruner small(2);
  small.Offer(0.0, 10, 1);
  small.Offer(0.0, 11, 2);
  // Full of rank-10/11 zeros: a later-rank zero loses every tie-break, so
  // the zero-merge loop may stop at the first WouldAccept == false.
  EXPECT_FALSE(small.WouldAccept(0.0, 12));
  EXPECT_TRUE(small.WouldAccept(0.0, 5));
}

// --------------------------------------------------------- golden equivalence

// Sparse deterministic workload: 60 users x 200 items, 8 ratings per user
// (4% density), with a long zero-score tail for the CF families.
void LoadSparseRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 60; ++u) {
    for (int k = 0; k < 8; ++k) {
      int item = (u * 37 + k * 61) % 200 + 1;
      rows.push_back({Value::Int(u), Value::Int(item),
                      Value::Double((u * 3 + k * 7) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Ratings", rows).ok());
}

std::string RowsToString(const ResultSet& rs) {
  std::string out;
  for (const auto& row : rs.rows) {
    for (const auto& v : row.values()) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

constexpr const char* kAlgoNames[] = {"ItemCosCF", "ItemPearCF", "UserCosCF",
                                      "UserPearCF", "SVD"};

/// CF models publish no bound table: their bounded Top-k selects densely,
/// scoring every unseen item once.
bool IsCF(const std::string& algo) { return algo != "SVD"; }

// The delta scenarios the bounded Top-k must stay coherent with: new pair,
// overwrite, remove, new user rating known items, new items rated by known
// users — one (995) whose id sorts last, as its index does, and one (0)
// whose id sorts below every base item although it is interned last —
// issued as SQL statements so they travel the batched DML path.
void ApplyDeltaStatements(RecDB* db) {
  ASSERT_TRUE(db->Execute("INSERT INTO Ratings VALUES (1, 199, 5.0), "
                          "(1, 2, 4.0), (77, 1, 5.0), (77, 38, 3.0), "
                          "(2, 995, 4.0), (3, 995, 2.0), (2, 0, 3.0), "
                          "(77, 0, 1.0)")
                  .ok());
  ASSERT_TRUE(db->Execute("DELETE FROM Ratings WHERE uid = 2 AND iid = 74")
                  .ok());
  ASSERT_TRUE(db->Execute("UPDATE Ratings SET ratingval = 1.0 "
                          "WHERE uid = 3 AND iid = 111")
                  .ok());
}

TEST(PrunedEquivalenceTest, AllAlgorithmsAllParallelismsWithAndWithoutDelta) {
  ParallelismGuard guard;
  for (const char* algo : kAlgoNames) {
    RecDB db;
    LoadSparseRatings(&db);
    ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER r ON Ratings "
                                       "USERS FROM uid ITEMS FROM iid "
                                       "RATINGS FROM ratingval USING ") +
                           algo)
                    .ok());
    ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
    Recommender* r = db.GetRecommender("r").value();
    // The Recommend cases keep the Recommend plan; the IndexRecommend cases
    // below turn the rewrite on themselves.
    db.mutable_planner_options()->enable_index_recommend = false;
    const std::string rec =
        std::string("SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
                    "RECOMMEND R.iid TO R.uid ON R.ratingval USING ") +
        algo;
    const std::string query = rec + " ORDER BY R.ratingval DESC LIMIT 25";
    // Besides all users: three users, fewer than the 8 workers, so each
    // user's catalog is cut into item-index slices, one bounded walk per
    // slice. Users 1-3 carry every delta shape (new pair, overwrite,
    // removal, the new items 995 and 0); LIMIT 200 runs into the 0.0 ties.
    const std::string few = rec + " WHERE R.uid IN (3, 1, 2) ORDER BY "
                                  "R.ratingval DESC LIMIT ";
    const std::pair<std::string, size_t> cases[] = {
        {query, 25}, {few + "5", 5}, {few + "200", 200}};

    for (bool with_delta : {false, true}) {
      if (with_delta) ApplyDeltaStatements(&db);
      for (const auto& [sql, limit] : cases) {
        SCOPED_TRACE(sql);
        db.mutable_planner_options()->enable_pruned_topn = false;
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
        auto exact = db.Execute(sql);
        ASSERT_TRUE(exact.ok()) << algo;
        ASSERT_EQ(exact.value().NumRows(), limit) << algo;
        EXPECT_EQ(exact.value().stats.candidates_generated, 0u) << algo;
        const std::string expected = RowsToString(exact.value());

        db.mutable_planner_options()->enable_pruned_topn = true;
        auto explained = db.Explain(sql);
        ASSERT_TRUE(explained.ok()) << algo;
        EXPECT_NE(explained.value().find("mode=pruned"), std::string::npos)
            << algo << ": wrong plan\n"
            << explained.value();
        for (int threads : {1, 2, 8}) {
          ASSERT_TRUE(
              db.Execute("SET parallelism = " + std::to_string(threads))
                  .ok());
          uint64_t topk_before =
              CounterValue(obs::Counter::kPruneTopkQueries);
          auto pruned = db.Execute(sql);
          ASSERT_TRUE(pruned.ok()) << algo;
          EXPECT_EQ(RowsToString(pruned.value()), expected)
              << algo << " diverged at parallelism " << threads
              << (with_delta ? " with delta" : " without delta");
          // A pruned plan must actually have run pruned, not silently
          // fallen back to the exact scan: every user goes through a
          // threshold loop. CF selects densely, scoring each unseen item
          // exactly once, as the exact plan does. (The SVD catalog sweep
          // may legitimately skip nothing when its norm-product bounds
          // never drop below the k-th score on tiny data.) No path
          // generates candidates. Every case is past 256 (user, item)
          // pairs, so it fans out whenever there are workers.
          EXPECT_GT(CounterValue(obs::Counter::kPruneTopkQueries),
                    topk_before)
              << algo;
          if (IsCF(algo)) {
            EXPECT_EQ(pruned.value().stats.predictions,
                      exact.value().stats.predictions)
                << algo << " at parallelism " << threads;
          }
          EXPECT_EQ(pruned.value().stats.candidates_generated, 0u) << algo;
          EXPECT_EQ(pruned.value().stats.tasks_spawned > 0, threads > 1)
              << algo << " at parallelism " << threads;
        }
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
        if (sql == query) continue;

        // The same users through IndexRecommend: users 1 and 2, scored
        // into the index just now, are hits (and give the cost pass the
        // coverage to keep the rewrite); user 3, who carries every delta
        // shape, is the cache miss. The index and both fallbacks, exact and
        // bounded, rank each user's items by score, then id, as Recommend
        // does, so every mode returns the exact Recommend rows.
        ASSERT_TRUE(r->MaterializeUser(1).ok());
        ASSERT_TRUE(r->MaterializeUser(2).ok());
        db.mutable_planner_options()->enable_index_recommend = true;
        for (bool prune : {false, true}) {
          db.mutable_planner_options()->enable_pruned_topn = prune;
          auto explained = db.Explain(sql);
          ASSERT_TRUE(explained.ok()) << algo;
          EXPECT_NE(explained.value().find("IndexRecommend"), std::string::npos)
              << algo << "\n" << explained.value();
          EXPECT_EQ(explained.value().find("fallback=pruned") !=
                        std::string::npos,
                    prune)
              << algo << "\n" << explained.value();
          for (int threads : {1, 2, 8}) {
            ASSERT_TRUE(
                db.Execute("SET parallelism = " + std::to_string(threads))
                    .ok());
            auto miss = db.Execute(sql);
            ASSERT_TRUE(miss.ok()) << algo;
            EXPECT_EQ(miss.value().stats.index_hits, 2u) << algo;
            EXPECT_EQ(miss.value().stats.index_misses, 1u) << algo;
            EXPECT_EQ(RowsToString(miss.value()), expected)
                << algo << " IndexRecommend with the "
                << (prune ? "bounded" : "exact")
                << " fallback diverged at parallelism " << threads
                << (with_delta ? " with delta" : " without delta");
          }
        }
        db.mutable_planner_options()->enable_index_recommend = false;
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
      }
    }

    // Flatten the live rows into a fresh base (rebuilds the CandidateIndex) and
    // re-check: post-refresh pruned results must equal post-refresh exact.
    auto refreshed = db.RefreshRecommender("r");
    ASSERT_TRUE(refreshed.ok()) << algo;
    EXPECT_TRUE(refreshed.value()) << algo;
    db.mutable_planner_options()->enable_pruned_topn = false;
    auto exact = db.Execute(query);
    ASSERT_TRUE(exact.ok()) << algo;
    db.mutable_planner_options()->enable_pruned_topn = true;
    auto pruned = db.Execute(query);
    ASSERT_TRUE(pruned.ok()) << algo;
    EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()))
        << algo << " diverged after CommitRefresh";
  }
}

TEST(PrunedEquivalenceTest, PerUserFilterRecommendMatchesExact) {
  ParallelismGuard guard;
  for (const std::string algo : {"ItemCosCF", "UserCosCF"}) {
    SCOPED_TRACE(algo);
    RecDB db;
    LoadSparseRatings(&db);
    ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                           "ITEMS FROM iid RATINGS FROM ratingval USING " +
                           algo)
                    .ok());
    ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
    const std::string query =
        "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
        "RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
        algo +
        " WHERE R.uid IN (1, 7, 13, 42, 60) "
        "ORDER BY R.ratingval DESC LIMIT 10";
    db.mutable_planner_options()->enable_pruned_topn = false;
    auto exact = db.Execute(query);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(exact.value().NumRows(), 10u);
    db.mutable_planner_options()->enable_pruned_topn = true;
    auto pruned = db.Execute(query);
    ASSERT_TRUE(pruned.ok());
    EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()));
    // Dense selection scores each unseen item of the five users once, as
    // the exact plan does, and generates no candidates.
    EXPECT_EQ(pruned.value().stats.candidates_generated, 0u);
    EXPECT_EQ(pruned.value().stats.predictions,
              exact.value().stats.predictions);
  }
}

// ----------------------------------------------------------- dense selection

const std::string kRecommendAll =
    "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
    "RECOMMEND R.iid TO R.uid ON R.ratingval USING ";


// 200 items in twin pairs (t, t + 100): every rater rates both twins alike,
// so each user's score for t equals its score for t + 100, bit for bit,
// under both CF families. Twins sit 100 item indices apart, in different
// item slices whenever a user's catalog is cut. Ratings are in thirds, off
// the half-star grid, so a change of summation order would show. A seed
// user interns the items in descending id order, so item index order and
// id order disagree. Users 2 and 3 rate items 74 and 111, which
// ApplyDeltaStatements deletes and overwrites.
void LoadTwinRatings(RecDB* db) {
  ASSERT_TRUE(
      db->Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int i = 200; i >= 1; --i) {
    rows.push_back({Value::Int(1000), Value::Int(i),
                    Value::Double(((i - 1) % 100 % 7 + 1) / 3.0)});
  }
  for (int u = 1; u <= 60; ++u) {
    std::map<int, double> twins;  // base item t in [1, 100] -> rating
    for (int k = 0; k < 6; ++k) {
      twins[(u * 37 + k * 61) % 100 + 1] = ((u * 3 + k * 7) % 11 + 1) / 3.0;
    }
    if (u == 2) twins[74] = 5.0 / 3.0;
    if (u == 3) twins[11] = 4.0 / 3.0;
    for (const auto& [t, r] : twins) {
      rows.push_back({Value::Int(u), Value::Int(t), Value::Double(r)});
      rows.push_back({Value::Int(u), Value::Int(t + 100), Value::Double(r)});
    }
  }
  ASSERT_TRUE(db->BulkInsert("Ratings", rows).ok());
}

/// Unseen (user, item) pairs of `users` (every user when empty) in the
/// recommender's matrix: what dense selection scores, once each.
uint64_t UnseenPairs(RecDB* db, const std::vector<int64_t>& users) {
  const RatingMatrix& m = db->GetRecommender("r").value()->live();
  uint64_t n = 0;
  auto add = [&](int32_t u) { n += m.NumItems() - m.UserCsrRow(u).n; };
  if (users.empty()) {
    for (size_t u = 0; u < m.NumUsers(); ++u) add(static_cast<int32_t>(u));
  }
  for (int64_t id : users) add(*m.UserIndex(id));
  return n;
}

/// A LIMIT that cuts a score-desc result inside a tie group of nonzero
/// score, right after the group's first row (the middle such group), so
/// the k-th score is tied by the next row; 0 when there is none.
size_t TieCut(const ResultSet& rs) {
  std::vector<size_t> cuts;
  for (size_t r = 1; r < rs.NumRows(); ++r) {
    const double score = rs.At(r, 2).AsDouble();
    const bool starts_group =
        r < 2 || rs.At(r - 2, 2).AsDouble() != rs.At(r - 1, 2).AsDouble();
    if (score != 0.0 && score == rs.At(r - 1, 2).AsDouble() && starts_group) {
      cuts.push_back(r);
    }
  }
  return cuts.empty() ? 0 : cuts[cuts.size() / 2];
}

TEST(DenseTopKTest, ScoresEachUnseenItemOnceAndMatchesExact) {
  ParallelismGuard guard;
  for (const std::string algo : {"ItemCosCF", "UserPearCF"}) {
    SCOPED_TRACE(algo);
    RecDB db;
    LoadTwinRatings(&db);
    ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                           "ITEMS FROM iid RATINGS FROM ratingval USING " +
                           algo)
                    .ok());
    const std::string rec = kRecommendAll + algo;
    // One user (its catalog cut into 8 item slices at parallelism 8), three
    // users (3 slices each) and every user. Users 1-3 carry every delta
    // shape: a new pair, an overwrite, a removed rating and item 995,
    // interned after the build.
    const std::pair<std::string, std::vector<int64_t>> shapes[] = {
        {" WHERE R.uid = 3", {3}},
        {" WHERE R.uid IN (1, 2, 3)", {1, 2, 3}},
        {"", {}}};
    for (bool with_delta : {false, true}) {
      SCOPED_TRACE(with_delta ? "with delta" : "without delta");
      if (with_delta) ApplyDeltaStatements(&db);
      size_t one_user_cut = 0;
      for (const auto& [where, users] : shapes) {
        db.mutable_planner_options()->enable_pruned_topn = false;
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
        auto full =
            db.Execute(rec + where + " ORDER BY R.ratingval DESC LIMIT 100000");
        ASSERT_TRUE(full.ok());
        const size_t k = TieCut(full.value());
        ASSERT_GT(k, 0u) << where << ": no tie at a nonzero score";
        if (users.size() == 1) one_user_cut = k;
        const std::string sql = rec + where +
                                " ORDER BY R.ratingval DESC LIMIT " +
                                std::to_string(k);
        auto exact = db.Execute(sql);
        ASSERT_TRUE(exact.ok());
        ASSERT_EQ(exact.value().NumRows(), k);
        db.mutable_planner_options()->enable_pruned_topn = true;
        const uint64_t unseen = UnseenPairs(&db, users);
        for (int threads : {1, 2, 8}) {
          SCOPED_TRACE("parallelism " + std::to_string(threads));
          ASSERT_TRUE(
              db.Execute("SET parallelism = " + std::to_string(threads)).ok());
          auto pruned = db.Execute(sql);
          ASSERT_TRUE(pruned.ok());
          EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()))
              << sql;
          EXPECT_EQ(pruned.value().stats.predictions, unseen) << sql;
          // Only the <= k survivors leave the Recommend operator.
          auto analyzed = db.Execute("EXPLAIN ANALYZE " + sql);
          ASSERT_TRUE(analyzed.ok());
          const std::string plan = RowsToString(analyzed.value());
          const size_t line = plan.find("Recommend r using");
          ASSERT_NE(line, std::string::npos) << plan;
          EXPECT_NE(plan.find("mode=pruned(k=" + std::to_string(k) + ")", line),
                    std::string::npos)
              << plan;
          const size_t act = plan.find("act=", line);
          ASSERT_NE(act, std::string::npos) << plan;
          EXPECT_LE(std::stoull(plan.substr(act + 4)), k) << plan;
        }
        ASSERT_TRUE(db.Execute("SET parallelism = 1").ok());
      }

      // IndexRecommend cache miss for user 3. The bounded fallback must
      // return the exact ranking in its own (score desc, id asc) order,
      // which here differs from item index order.
      db.mutable_planner_options()->enable_pruned_topn = false;
      auto all = db.Execute(rec + " WHERE R.uid = 3 ORDER BY R.ratingval "
                                  "DESC LIMIT 100000");
      ASSERT_TRUE(all.ok());
      std::vector<std::pair<double, int64_t>> by_id;
      for (size_t r = 0; r < all.value().NumRows(); ++r) {
        by_id.emplace_back(all.value().At(r, 2).AsDouble(),
                           all.value().At(r, 1).AsInt());
      }
      std::sort(by_id.begin(), by_id.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
      });
      // The operator itself, at the cut inside a tie group.
      Recommender* r = db.GetRecommender("r").value();
      IndexRecommendPlan ix;
      ix.rec = r;
      ix.alias = "R";
      ix.schema = ExecSchema({{"R", "uid", TypeId::kInt64},
                              {"R", "iid", TypeId::kInt64},
                              {"R", "ratingval", TypeId::kDouble}});
      ix.user_col_idx = 0;
      ix.item_col_idx = 1;
      ix.rating_col_idx = 2;
      ix.user_ids = {3};
      ix.per_user_limit = one_user_cut;
      ix.prune = true;
      ExecContext ctx;
      auto exec = CreateExecutor(ix, &ctx);
      ASSERT_TRUE(exec.ok());
      ASSERT_TRUE(exec.value()->Init().ok());
      for (size_t row = 0;; ++row) {
        auto next = exec.value()->Next();
        ASSERT_TRUE(next.ok());
        if (!next.value().has_value()) {
          EXPECT_EQ(row, one_user_cut);
          break;
        }
        ASSERT_LT(row, one_user_cut);
        EXPECT_EQ(next.value()->At(1).AsInt(), by_id[row].second) << row;
        EXPECT_EQ(next.value()->At(2).AsDouble(), by_id[row].first) << row;
      }
      EXPECT_EQ(ctx.stats.index_misses, 1u);
      EXPECT_EQ(ctx.stats.predictions, UnseenPairs(&db, {3}));

      // Through SQL: with user 60 materialized the index covers half of
      // users (3, 60), so the cost pass keeps IndexRecommend, and the
      // planner bounds its fallback. It must match the exact fallback, and
      // user 3's rows must be a prefix of the id-ordered ranking.
      ASSERT_TRUE(r->MaterializeUser(60).ok());
      const std::string sql =
          rec + " WHERE R.uid IN (3, 60) ORDER BY R.ratingval DESC LIMIT " +
          std::to_string(2 * one_user_cut);
      auto exact = db.Execute(sql);
      ASSERT_TRUE(exact.ok());
      db.mutable_planner_options()->enable_pruned_topn = true;
      auto explained = db.Explain(sql);
      ASSERT_TRUE(explained.ok());
      EXPECT_NE(explained.value().find("IndexRecommend"), std::string::npos)
          << explained.value();
      EXPECT_NE(explained.value().find("fallback=pruned"), std::string::npos)
          << explained.value();
      auto miss = db.Execute(sql);
      ASSERT_TRUE(miss.ok());
      EXPECT_EQ(miss.value().stats.index_misses, 1u);
      EXPECT_EQ(RowsToString(miss.value()), RowsToString(exact.value()));
      size_t seen = 0;
      for (size_t row = 0; row < miss.value().NumRows(); ++row) {
        if (miss.value().At(row, 0).AsInt() != 3) continue;
        EXPECT_EQ(miss.value().At(row, 1).AsInt(), by_id[seen].second);
        EXPECT_EQ(miss.value().At(row, 2).AsDouble(), by_id[seen].first);
        ++seen;
      }
      EXPECT_GT(seen, 0u);
    }
  }
}

// ------------------------------------------------ one cross-user threshold

/// Pruned == exact for `query` at parallelism 1, 2 and 8, with the pruned
/// plan actually chosen. Returns the exact result (at parallelism 1).
ResultSet ExpectPrunedMatchesExactEverywhere(RecDB* db,
                                             const std::string& query) {
  ParallelismGuard guard;
  db->mutable_planner_options()->enable_pruned_topn = false;
  EXPECT_TRUE(db->Execute("SET parallelism = 1").ok());
  auto exact = db->Execute(query);
  EXPECT_TRUE(exact.ok()) << query;
  if (!exact.ok()) return ResultSet{};
  db->mutable_planner_options()->enable_pruned_topn = true;
  auto explained = db->Explain(query);
  EXPECT_TRUE(explained.ok());
  EXPECT_NE(explained.value().find("mode=pruned"), std::string::npos)
      << explained.value();
  for (int threads : {1, 2, 8}) {
    EXPECT_TRUE(
        db->Execute("SET parallelism = " + std::to_string(threads)).ok());
    auto pruned = db->Execute(query);
    EXPECT_TRUE(pruned.ok()) << query;
    if (!pruned.ok()) continue;
    EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()))
        << query << "\ndiverged at parallelism " << threads;
  }
  return std::move(exact).value();
}

/// Rows of `rs` whose score column (the last one) is nonzero.
size_t NonzeroScores(const ResultSet& rs) {
  size_t n = 0;
  for (const auto& row : rs.rows) {
    if (row.values().back().AsDouble() != 0.0) ++n;
  }
  return n;
}

TEST(GlobalThresholdTest, CrossUserTiesAtTheKthScoreMatchExact) {
  // Users come in six groups with identical rating rows (overlapping item
  // windows, so unseen items score nonzero), and every score a user gets
  // is shared by the other users of its group: ties across users at the
  // k-th score, broken by user position and then item position.
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 60; ++u) {
    const int g = u % 6;
    for (int k = 0; k < 8; ++k) {
      rows.push_back({Value::Int(u), Value::Int((g * 5 + k) % 40 + 1),
                      Value::Double((g * 3 + k * 7) % 5 + 1)});
    }
  }
  // A sparse background population spreads the catalog to 200 items.
  for (int u = 61; u <= 120; ++u) {
    for (int k = 0; k < 4; ++k) {
      rows.push_back({Value::Int(u), Value::Int((u * 37 + k * 61) % 200 + 1),
                      Value::Double((u * 3 + k * 7) % 5 + 1)});
    }
  }
  ASSERT_TRUE(db.BulkInsert("Ratings", rows).ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING UserCosCF")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
  const std::string ranked =
      kRecommendAll + "UserCosCF ORDER BY R.ratingval DESC LIMIT ";
  // Cut right after the first row of each score group that spans users:
  // the k-th score is then tied by later rows of other users.
  db.mutable_planner_options()->enable_pruned_topn = false;
  auto full = db.Execute(ranked + "100000");
  ASSERT_TRUE(full.ok());
  const ResultSet& all = full.value();
  std::vector<size_t> cuts;
  for (size_t start = 0; start < all.NumRows() && cuts.size() < 4;) {
    size_t end = start;
    bool other_user = false;
    while (end < all.NumRows() &&
           all.At(end, 2).AsDouble() == all.At(start, 2).AsDouble()) {
      other_user |= all.At(end, 0).AsInt() != all.At(start, 0).AsInt();
      ++end;
    }
    if (other_user) cuts.push_back(start + 1);
    start = end;
  }
  ASSERT_EQ(cuts.size(), 4u);
  for (size_t k : cuts) {
    ResultSet exact =
        ExpectPrunedMatchesExactEverywhere(&db, ranked + std::to_string(k));
    ASSERT_EQ(exact.NumRows(), k);
  }
}

TEST(GlobalThresholdTest, LateTieInAnEarlierMorselKeepsItsPlace) {
  // Interning order is user position. Of 256 users, positions 0..30 are
  // low scorers (40 shared items, all rated 1.0, so nothing unseen scores),
  // position 31 is T1 and positions 32..47 are T1's twins (its exact row).
  // Position 48 is a mentor who rated T1's items plus item 2009 (5.0), so
  // T1 and every twin score item 2009 with the same bits, the top score;
  // the rest are a sparse background on other items rated <= 2.0. At
  // parallelism 2 (morsels of 32 users) and 8 (morsels of 8) T1 ends a
  // morsel that starts with low scorers, while the next morsels start with
  // twins, which can raise the shared floor to the top score before T1 is
  // scored. T1's tied item must still win on user position: a floor that
  // dropped ties would lose it. The race is not forced, so the query
  // repeats.
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 256; ++u) {
    if (u <= 31) {
      for (int i = 3001; i <= 3040; ++i) {
        rows.push_back({Value::Int(u), Value::Int(i), Value::Double(1.0)});
      }
    } else if (u <= 49) {
      for (int i = 1; i <= 8; ++i) {
        rows.push_back(
            {Value::Int(u), Value::Int(2000 + i), Value::Double(i % 5 + 1)});
      }
      if (u == 49) {
        rows.push_back({Value::Int(u), Value::Int(2009), Value::Double(5.0)});
      }
    } else {
      for (int k = 0; k < 4; ++k) {
        rows.push_back({Value::Int(u), Value::Int((u * 37 + k * 61) % 2000 + 1),
                        Value::Double(k % 2 + 1)});
      }
    }
  }
  ASSERT_TRUE(db.BulkInsert("Ratings", rows).ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING UserCosCF")
                  .ok());
  ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
  for (int rep = 0; rep < 20; ++rep) {
    ResultSet exact = ExpectPrunedMatchesExactEverywhere(
        &db, kRecommendAll + "UserCosCF ORDER BY R.ratingval DESC LIMIT 1");
    ASSERT_EQ(exact.NumRows(), 1u);
    EXPECT_EQ(exact.At(0, 0).AsInt(), 32);
    EXPECT_EQ(exact.At(0, 1).AsInt(), 2009);
  }
}

TEST(GlobalThresholdTest, TiesAtZeroAcrossUsersMatchExact) {
  // Past the nonzero scores every unseen item ties at 0.0: the k-th score
  // is 0.0 and the cut falls inside the zero tail, across users. (SVD
  // scores are almost never exactly 0.0, so only the CF families have a
  // zero tail.)
  for (const char* algo : {"ItemCosCF", "ItemPearCF", "UserCosCF",
                           "UserPearCF"}) {
    RecDB db;
    LoadSparseRatings(&db);
    ASSERT_TRUE(db.Execute(std::string("CREATE RECOMMENDER r ON Ratings "
                                       "USERS FROM uid ITEMS FROM iid "
                                       "RATINGS FROM ratingval USING ") +
                           algo)
                    .ok());
    ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
    const std::string users = " WHERE R.uid IN (3, 17, 29, 41, 58)";
    db.mutable_planner_options()->enable_pruned_topn = false;
    auto all = db.Execute(kRecommendAll + algo + users +
                          " ORDER BY R.ratingval DESC LIMIT 100000");
    ASSERT_TRUE(all.ok()) << algo;
    const size_t nonzero = NonzeroScores(all.value());
    ASSERT_LT(nonzero + 7, all.value().NumRows()) << algo << ": no zero tail";
    ResultSet exact = ExpectPrunedMatchesExactEverywhere(
        &db,
        kRecommendAll + algo + users + " ORDER BY R.ratingval DESC LIMIT " +
            std::to_string(nonzero + 7));
    ASSERT_EQ(exact.NumRows(), nonzero + 7) << algo;
    EXPECT_EQ(exact.At(nonzero + 6, 2).AsDouble(), 0.0) << algo;
  }
}

TEST(SvdSweepTest, ScoreEqualToTheThresholdIsOfferedAndWinsOnIdPosition) {
  // A seed user interns items 60..1 in descending id order, so a lower
  // index is a higher id. Items X = 40 (index 20) and Y = 30 (index 30) get
  // the same factor row, 8·p_T for the target user T, so they tie exactly
  // for T; Z1 = 50 (index 10) and Z2 = 20 (index 40) get 16·p_T and score
  // above them. Equal bounds sweep by index, so X is offered before Y. With
  // k = 1 over indices [11, 40), which leave Z1 and Z2 out, and k = 3 over
  // the whole catalog, X holds the k-th place when Y arrives scoring
  // exactly the threshold; Y must still be offered, and it wins on its
  // lower id position.
  auto m = std::make_shared<RatingMatrix>();
  for (int i = 60; i >= 1; --i) m->Add(1000, i, (i % 7 + 1) / 3.0);
  for (int u = 1; u <= 40; ++u) {
    for (int k = 0; k < 6; ++k) {
      m->Add(u, (u * 13 + k * 17) % 60 + 1, ((u + k) % 9 + 1) / 2.0);
    }
  }
  constexpr int64_t kTarget = 1001;
  for (int i : {3, 7, 11, 52}) m->Add(kTarget, i, 4.0);
  std::unique_ptr<SvdModel> model = SvdModel::Build(m);
  const int32_t t = *m->UserIndex(kTarget);
  const std::span<const float> pt = model->UserFactors(t);
  auto scaled = [&](float c) {
    std::vector<float> row(pt.begin(), pt.end());
    for (float& v : row) v *= c;
    return row;
  };
  ModelUpdate update;
  update.num_users = model->NumUserRows();
  update.num_items = model->NumItemRows();
  for (int64_t id : {40, 30}) {
    update.item_rows.emplace_back(*m->ItemIndex(id), scaled(8.0f));
  }
  for (int64_t id : {50, 20}) {
    update.item_rows.emplace_back(*m->ItemIndex(id), scaled(16.0f));
  }
  model->ApplyDeltaUpdate(std::move(update));
  ASSERT_LT(*m->ItemIndex(40), *m->ItemIndex(30));
  const std::shared_ptr<CandidateIndex> bounds = CandidateIndex::Build(*model);
  ASSERT_NE(bounds, nullptr);

  // Exact: every unseen item with index in [begin, end) scored, ranked by
  // (score desc, id position), the first k kept.
  auto exact = [&](size_t k, int32_t begin, int32_t end) {
    std::vector<int32_t> unseen;
    for (int32_t i = begin; i < end; ++i) {
      if (!m->Get(kTarget, m->ItemIdAt(i)).has_value()) unseen.push_back(i);
    }
    std::vector<double> scores(unseen.size());
    model->PredictBatchByIndex(t, unseen, scores);
    std::vector<TopKPruner::Entry> all;
    for (size_t c = 0; c < unseen.size(); ++c) {
      all.push_back({scores[c], m->ItemIdPos(unseen[c]),
                     m->ItemIdAt(unseen[c])});
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.rank < b.rank;
    });
    all.resize(std::min(k, all.size()));
    return all;
  };
  const auto num_items = static_cast<int32_t>(m->NumItems());
  for (const auto& [k, begin, end] :
       {std::tuple<size_t, int32_t, int32_t>{1, 11, 40},
        std::tuple<size_t, int32_t, int32_t>{3, 0, num_items}}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    const std::vector<TopKPruner::Entry> next = exact(k + 1, begin, end);
    ASSERT_EQ(next.size(), k + 1);
    ASSERT_EQ(next[k - 1].item_id, 30);
    ASSERT_EQ(next[k].item_id, 40);
    ASSERT_EQ(next[k - 1].score, next[k].score);
    if (k > 1) {
      ASSERT_GT(next[k - 2].score, next[k - 1].score);
    }

    const std::vector<TopKPruner::Entry> want = exact(k, begin, end);
    PruneEngine engine(model.get(), *m, bounds.get());
    const std::vector<TopKPruner::Entry> got = engine.UserTopK(
        kTarget, k, -std::numeric_limits<double>::infinity(),
        static_cast<size_t>(begin), static_cast<size_t>(end));
    ASSERT_EQ(got.size(), want.size());
    for (size_t r = 0; r < want.size(); ++r) {
      EXPECT_EQ(got[r].item_id, want[r].item_id) << "rank " << r;
      EXPECT_EQ(got[r].score, want[r].score) << "rank " << r;
      EXPECT_EQ(got[r].rank, want[r].rank) << "rank " << r;
    }
  }
}

TEST(GlobalThresholdTest, AllUsersQueryEmitsAtMostK) {
  for (const char* algo : kAlgoNames) {
    // CF runs on the sparse fixture. SVD's norm-product bounds only bite on
    // data with real latent structure, so it runs on a shrunken
    // MovieLens-shaped dataset.
    const bool svd = std::string(algo) == "SVD";
    RecDB db;
    std::string table = "Ratings";
    if (svd) {
      auto ds = datagen::LoadDataset(
          &db, datagen::DatasetSpec::MovieLens100K().Scaled(0.1));
      ASSERT_TRUE(ds.ok());
      table = ds.value().ratings_table;
    } else {
      LoadSparseRatings(&db);
    }
    ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON " + table +
                           " USERS FROM uid ITEMS FROM iid "
                           "RATINGS FROM ratingval USING " + algo)
                    .ok());
    ASSERT_TRUE(db.Execute("ANALYZE " + table).ok());
    const std::string query =
        "SELECT R.uid, R.iid, R.ratingval FROM " + table +
        " AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING " + algo +
        " ORDER BY R.ratingval DESC LIMIT 10";
    db.mutable_planner_options()->enable_pruned_topn = false;
    auto exact = db.Execute(query);
    ASSERT_TRUE(exact.ok()) << algo;
    db.mutable_planner_options()->enable_pruned_topn = true;
    auto pruned = db.Execute(query);
    ASSERT_TRUE(pruned.ok()) << algo;
    EXPECT_EQ(RowsToString(pruned.value()), RowsToString(exact.value()));
    auto analyzed = db.Execute("EXPLAIN ANALYZE " + query);
    ASSERT_TRUE(analyzed.ok()) << algo;
    const std::string plan = RowsToString(analyzed.value());
    const size_t line = plan.find("Recommend r using");
    ASSERT_NE(line, std::string::npos) << plan;
    if (IsCF(algo)) {
      // Dense selection: every unseen (user, item) pair is scored once.
      EXPECT_EQ(pruned.value().stats.predictions,
                exact.value().stats.predictions)
          << algo;
    } else {
      // The global threshold bites: fewer model calls than scoring every
      // unseen (user, item) pair.
      EXPECT_LT(pruned.value().stats.predictions,
                exact.value().stats.predictions)
          << algo;
    }

    // Only the global survivors leave the Recommend operator.
    ASSERT_NE(plan.find("mode=pruned(k=10)", line), std::string::npos)
        << plan;
    const size_t act = plan.find("act=", line);
    ASSERT_NE(act, std::string::npos) << plan;
    EXPECT_LE(std::stoull(plan.substr(act + 4)), 10u) << algo << "\n" << plan;
  }
}

// ------------------------------------------------------------ plan choice

TEST(PrunedPlanChoiceTest, PrunedWithoutAnalyzeAndHonorsToggle) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING UserCosCF")
                  .ok());
  const std::string explain =
      "EXPLAIN SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING UserCosCF "
      "ORDER BY R.ratingval DESC LIMIT 10";

  // The bounded Top-k is a structural choice: statistics do not gate it,
  // so the plan is the same before and after ANALYZE.
  for (bool analyzed : {false, true}) {
    if (analyzed) {
      ASSERT_TRUE(db.Execute("ANALYZE Ratings").ok());
    }
    uint64_t chosen0 = CounterValue(Counter::kPrunePlanChosen);
    auto rs = db.Execute(explain);
    ASSERT_TRUE(rs.ok());
    std::string plan = RowsToString(rs.value());
    EXPECT_NE(plan.find("mode=pruned(k=10)"), std::string::npos)
        << (analyzed ? "after" : "before") << " ANALYZE\n" << plan;
    EXPECT_NE(plan.find("pruned_topn=on"), std::string::npos) << plan;
    EXPECT_GT(CounterValue(Counter::kPrunePlanChosen), chosen0);
  }

  db.mutable_planner_options()->enable_pruned_topn = false;
  auto off = db.Execute(explain);
  ASSERT_TRUE(off.ok());
  std::string off_plan = RowsToString(off.value());
  EXPECT_EQ(off_plan.find("mode=pruned"), std::string::npos) << off_plan;
  EXPECT_NE(off_plan.find("pruned_topn=off"), std::string::npos) << off_plan;
}

TEST(PrunedPlanChoiceTest, DenseMatrixPrunedMatchesExactWithoutAnalyze) {
  // 10 users x 8 items at ~60% density: only ~3 unseen items per user
  // remain. The bounded Top-k
  // still runs (no cost model declines it, no ANALYZE is needed) and must
  // return exactly the exact plan's rows at every parallelism.
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  std::vector<std::vector<Value>> rows;
  for (int u = 1; u <= 10; ++u) {
    for (int i = 1; i <= 8; ++i) {
      if ((u * 7 + i * 3) % 5 < 3) {
        rows.push_back({Value::Int(u), Value::Int(i),
                        Value::Double((u * 3 + i * 5) % 5 + 1)});
      }
    }
  }
  ASSERT_TRUE(db.BulkInsert("Ratings", rows).ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING UserCosCF")
                  .ok());
  ResultSet exact = ExpectPrunedMatchesExactEverywhere(
      &db, kRecommendAll + "UserCosCF ORDER BY R.ratingval DESC LIMIT 3");
  EXPECT_EQ(exact.NumRows(), 3u);
}

// -------------------------------------------------- CandidateIndex coherence

TEST(CandidateIndexTest, BoundIndexSurvivesIngestUntilRefresh) {
  // CF models publish no bound table and get no index.
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF,
                            RecAlgorithm::kSVD}) {
    RecommenderConfig cfg;
    cfg.name = "r";
    cfg.algorithm = algo;
    Recommender rec(cfg);
    for (int64_t u = 1; u <= 12; ++u) {
      for (int64_t k = 0; k < 5; ++k) {
        rec.AddRating(u, (u * 3 + k * 7) % 15 + 1, (u + k) % 5 + 1);
      }
    }
    ASSERT_TRUE(rec.Build().ok());
    auto index = rec.candidate_index();
    if (algo != RecAlgorithm::kSVD) {
      EXPECT_EQ(index, nullptr) << RecAlgorithmToString(algo);
      continue;
    }
    ASSERT_NE(index, nullptr);
    const RatingMatrix& m = rec.live();
    const size_t built_items = m.NumItems();
    EXPECT_EQ(index->bound_table_size(), built_items);
    const std::vector<int32_t> built_order = index->order();
    const size_t built_blocks = index->blocks().size();

    // Ingest lands in live rows and interns two items, one sorting below
    // every built item; the published index is kept as built (items past
    // its bound table score exactly 0.0 until the next refresh).
    rec.AddRating(1, 999, 5.0);
    rec.AddRating(2, 0, 3.0);
    EXPECT_EQ(rec.candidate_index(), index);
    EXPECT_EQ(index->bound_table_size(), built_items);
    EXPECT_EQ(index->order(), built_order);
    EXPECT_EQ(index->blocks().size(), built_blocks);
    EXPECT_EQ(m.NumItems(), built_items + 2);

    // Refresh rebuilds it over the new items; the old shared_ptr stays
    // valid, unchanged, for its holders.
    auto refreshed = rec.Refresh();
    ASSERT_TRUE(refreshed.ok());
    ASSERT_TRUE(refreshed.value());
    auto fresh = rec.candidate_index();
    ASSERT_NE(fresh, nullptr);
    EXPECT_NE(fresh.get(), index.get());
    EXPECT_EQ(fresh->bound_table_size(), m.NumItems());
    EXPECT_EQ(fresh->order().size(), m.NumItems());
    EXPECT_EQ(index->bound_table_size(), built_items);
    EXPECT_EQ(index->order(), built_order);
  }
}

// ---------------------------------------------------------- batched ingest

TEST(BatchIngestTest, MultiRowStatementIsOneVersionedDeltaBatch) {
  RecDB db;
  LoadSparseRatings(&db);
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval "
                         "USING ItemCosCF")
                  .ok());
  Recommender* rec = db.GetRecommender("r").value();
  const uint64_t v0 = rec->live().version();
  const size_t delta0 = rec->live().delta_size();
  const uint64_t batches0 = CounterValue(Counter::kIngestBatches);
  const uint64_t ops0 = CounterValue(Counter::kIngestBatchOps);

  // Five effective rows through one INSERT: one version bump, one batch.
  ASSERT_TRUE(db.Execute("INSERT INTO Ratings VALUES (1, 190, 5.0), "
                         "(1, 191, 4.0), (2, 190, 3.0), (2, 191, 2.0), "
                         "(3, 190, 1.0)")
                  .ok());
  EXPECT_EQ(rec->live().version(), v0 + 1);
  EXPECT_EQ(rec->live().delta_size(), delta0 + 5);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 1);
  EXPECT_EQ(CounterValue(Counter::kIngestBatchOps), ops0 + 5);

  // Multi-row DELETE: also a single batch / single version bump.
  ASSERT_TRUE(db.Execute("DELETE FROM Ratings WHERE iid = 190").ok());
  EXPECT_EQ(rec->live().version(), v0 + 2);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 2);

  // UPDATE (delete+insert per row, still one statement = one batch).
  ASSERT_TRUE(
      db.Execute("UPDATE Ratings SET ratingval = 5.0 WHERE iid = 191").ok());
  EXPECT_EQ(rec->live().version(), v0 + 3);
  EXPECT_EQ(CounterValue(Counter::kIngestBatches), batches0 + 3);

  // The batched path feeds the same delta the per-op path would: scoring
  // reflects the statements immediately.
  EXPECT_EQ(*rec->live().Get(1, 191), 5.0);
  EXPECT_FALSE(rec->live().Get(1, 190).has_value());
}

// ------------------------------------------------- non-incremental fallback

// Stub without an incremental form: predicts a constant for known pairs.
// Exercises the RecModel base-class maintenance contract.
class StubModel : public RecModel {
 public:
  explicit StubModel(std::shared_ptr<const RatingMatrix> ratings)
      : RecModel(std::move(ratings)) {}
  RecAlgorithm algorithm() const override { return RecAlgorithm::kItemCosCF; }
  size_t ApproxBytes() const override { return 0; }

 protected:
  void DoPredictBatch(int32_t user_idx, std::span<const int32_t> items,
                      std::span<double> out) const override {
    (void)user_idx;
    for (size_t k = 0; k < items.size(); ++k) out[k] = 1.0;
  }
};

TEST(NonIncrementalModelTest, FirstWriteTriggersRefreshAndFullRebuild) {
  // Regression: the base PrepareDeltaUpdate used to return an *empty*
  // update, so a model without incremental support silently served stale
  // scores until a full retrain happened to run. It must now (a) request a
  // full rebuild and (b) make NeedsRefresh trip on the very first op.
  {
    auto m = std::make_shared<RatingMatrix>();
    m->Add(1, 1, 4.0);
    m->Freeze();
    StubModel stub(m);
    auto update = stub.PrepareDeltaUpdate(
        {DeltaOp{DeltaOp::Kind::kAdd, /*user_idx=*/0, /*item_idx=*/0}});
    ASSERT_TRUE(update.ok());
    EXPECT_TRUE(update.value().full_rebuild);
    EXPECT_FALSE(update.value().empty());
    EXPECT_TRUE(stub.PrepareDeltaUpdate({}).value().empty());
  }

  RecommenderConfig cfg;
  cfg.name = "r";
  cfg.algorithm = RecAlgorithm::kItemCosCF;
  Recommender rec(cfg);
  auto matrix = std::make_shared<RatingMatrix>();
  for (int64_t u = 1; u <= 6; ++u) {
    for (int64_t i = 1; i <= 4; ++i) matrix->Add(u, i, (u + i) % 5 + 1);
  }
  rec.SeedMatrix(matrix);
  rec.AdoptModelForTest(std::make_unique<StubModel>(matrix));
  ASSERT_FALSE(rec.NeedsRefresh());

  // One write: refresh pressure must be immediate, not threshold-gated.
  rec.AddRating(1, 9, 5.0);
  EXPECT_TRUE(rec.NeedsRefresh());

  auto refreshed = rec.Refresh();
  ASSERT_TRUE(refreshed.ok());
  EXPECT_TRUE(refreshed.value());
  EXPECT_FALSE(rec.live().has_delta());
  // The commit rebuilt a real model over the merged matrix — predictions
  // reflect the write instead of the stub's constant.
  ASSERT_NE(rec.model(), nullptr);
  EXPECT_EQ(rec.model()->algorithm(), RecAlgorithm::kItemCosCF);
  EXPECT_NE(rec.model()->Predict(1, 2), 1.0);
  EXPECT_GT(rec.model()->Predict(1, 9), 0.0);
}

}  // namespace
}  // namespace recdb
