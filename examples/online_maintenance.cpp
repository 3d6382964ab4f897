// Online maintenance: the paper's Section III-A N% maintenance policy and
// Section IV-D caching in action.
//
// Streams new ratings into a live recommender and shows (a) the N%-threshold
// incremental model refresh firing, and (b) the cache manager's hotness-based
// admission/eviction reacting to a skewed query/update workload, with the
// resulting IndexRecommend hit rate.
//
// Run: ./build/examples/online_maintenance
#include <cstdio>

#include "api/recdb.h"
#include "common/rng.h"
#include "common/timer.h"
#include "datagen/datagen.h"

using recdb::RecDB;

int main() {
  recdb::ManualClock clock(0);
  recdb::RecDBOptions options;
  options.rebuild_threshold = 0.05;  // refresh when 5% new ratings arrive
  options.maintenance = recdb::MaintenanceMode::kInline;
  RecDB db(options);
  db.set_clock(&clock);

  auto run = [&](const std::string& sql) {
    auto r = db.Execute(sql);
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n  sql: %s\n",
                   r.status().ToString().c_str(), sql.c_str());
      std::exit(1);
    }
    return std::move(r).value();
  };

  auto ds = recdb::datagen::LoadDataset(
      &db, recdb::datagen::DatasetSpec::LdosComoda());
  if (!ds.ok()) return 1;
  std::printf("loaded %lld ratings\n",
              static_cast<long long>(ds.value().num_ratings));
  std::printf("%s\n\n", run("CREATE RECOMMENDER rec ON ldos_ratings "
                            "USERS FROM uid ITEMS FROM iid RATINGS FROM "
                            "ratingval USING ItemCosCF")
                            .message.c_str());

  auto rec = db.GetRecommender("rec").value();
  // With Zipf(1.2) demand, Hot(u,i) = (D_u/D_max)(P_i/P_max) decays fast in
  // both ranks; 0.02 admits roughly the hot few-dozen-by-few-dozen corner.
  auto mgr = db.GetCacheManager("rec", /*hotness_threshold=*/0.02).value();

  // --- Part 1: model maintenance threshold -------------------------------
  std::printf("Part 1: streaming inserts against a %.0f%% refresh threshold\n",
              options.rebuild_threshold * 100);
  recdb::Rng rng(1);
  size_t base = rec->base_size();
  size_t refreshes = 0;
  for (int k = 0; k < 400; ++k) {
    int64_t u = rng.UniformInt(1, 185);
    int64_t i = rng.UniformInt(1, 785);
    run("INSERT INTO ldos_ratings VALUES (" + std::to_string(u) + ", " +
        std::to_string(i) + ", " + std::to_string(rng.UniformInt(1, 5)) +
        ".0)");
    if (rec->base_size() != base) {
      ++refreshes;
      std::printf("  insert #%3d triggered refresh #%zu: model now holds %zu "
                  "ratings (delta reset to %zu)\n",
                  k + 1, refreshes, rec->base_size(),
                  rec->live().delta_size());
      base = rec->base_size();
    }
  }
  std::printf("  %zu refreshes over 400 inserts\n\n", refreshes);

  // --- Part 2: hotness-based caching -------------------------------------
  std::printf("Part 2: skewed workload feeding the cache manager "
              "(threshold %.2f)\n", mgr->hotness_threshold());
  // A handful of hot users issue most queries; a few hot items receive most
  // updates. The cache manager should materialize exactly the hot corner.
  const std::string topk_sql_prefix =
      "SELECT R.iid, R.ratingval FROM ldos_ratings AS R "
      "RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = ";
  recdb::ZipfSampler user_zipf(185, 1.2), item_zipf(785, 1.2);
  for (int round = 0; round < 3; ++round) {
    for (int k = 0; k < 200; ++k) {
      int64_t u = user_zipf.Sample(rng) + 1;
      run(topk_sql_prefix + std::to_string(u) +
          " ORDER BY R.ratingval DESC LIMIT 10");
    }
    for (int k = 0; k < 100; ++k) {
      int64_t u = rng.UniformInt(1, 185);
      int64_t i = item_zipf.Sample(rng) + 1;
      run("INSERT INTO ldos_ratings VALUES (" + std::to_string(u) + ", " +
          std::to_string(i) + ", 4.0)");
    }
    clock.Advance(300);  // the 5-minute cache-manager period
    auto decision = mgr->Run();
    if (!decision.ok()) return 1;
    std::printf(
        "  round %d: admitted %zu pairs, evicted %zu; index now holds %zu "
        "entries for %zu users (max demand %.2f q/s, max consumption %.2f "
        "upd/s)\n",
        round + 1, decision.value().admitted.size(),
        decision.value().evicted.size(), rec->score_index()->NumEntries(),
        rec->score_index()->NumUsers(), mgr->max_demand(),
        mgr->max_consumption());
  }

  // Measure the hit rate the cache yields for the same skewed queries.
  uint64_t hits = 0, misses = 0;
  for (int k = 0; k < 200; ++k) {
    int64_t u = user_zipf.Sample(rng) + 1;
    auto rs = run(topk_sql_prefix + std::to_string(u) +
                  " ORDER BY R.ratingval DESC LIMIT 10");
    hits += rs.stats.index_hits;
    misses += rs.stats.index_misses;
  }
  std::printf("\nIndexRecommend over the skewed workload: %llu hits / %llu "
              "misses (%.0f%% hit rate)\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses),
              100.0 * hits / std::max<uint64_t>(1, hits + misses));
  return 0;
}
