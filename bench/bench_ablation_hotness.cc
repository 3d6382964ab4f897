// Ablation — HOTNESS-THRESHOLD sweep (paper Section IV-D's latency vs
// scalability tradeoff).
//
// A Zipf workload (queries from skewed users, updates on skewed items) feeds
// the cache manager's histograms; Run() then materializes according to each
// threshold. We report the materialized fraction and index footprint, and
// measure top-10 latency over querying users (cache hits serve from the
// RecScoreIndex, misses fall back to the model).
#include "bench_common.h"

#include "cache/cache_manager.h"
#include "common/timer.h"

namespace recdb::bench {
namespace {

constexpr Which kWhich = Which::kLdos;  // fast model rebuilds per threshold

struct Workload {
  std::vector<int64_t> query_users;  // Zipf-skewed demand, with repetition
  std::vector<int64_t> update_items;
};

Workload MakeWorkload(const RatingMatrix& m) {
  Workload w;
  Rng rng(99);
  ZipfSampler users(m.NumUsers(), 1.0), items(m.NumItems(), 1.0);
  for (int k = 0; k < 2000; ++k) {
    w.query_users.push_back(m.UserIdAt(
        static_cast<int32_t>(users.Sample(rng))));
  }
  for (int k = 0; k < 2000; ++k) {
    w.update_items.push_back(m.ItemIdAt(
        static_cast<int32_t>(items.Sample(rng))));
  }
  return w;
}

void BM_Hotness(benchmark::State& state) {
  double threshold = static_cast<double>(state.range(0)) / 100.0;
  BenchEnv& env = Env(kWhich);

  // A fresh recommender per threshold so the RecScoreIndex starts empty.
  RecommenderConfig cfg;
  cfg.name = "hotness_tmp";
  Recommender rec(cfg);
  {
    const RatingMatrix& src =
        env.GetRecommender(RecAlgorithm::kItemCosCF)->live();
    for (size_t u = 0; u < src.NumUsers(); ++u) {
      int64_t uid = src.UserIdAt(static_cast<int32_t>(u));
      const CsrRow row = src.UserCsrRow(static_cast<int32_t>(u));
      for (size_t k = 0; k < row.n; ++k) {
        rec.AddRating(uid, src.ItemIdAt(row.idx[k]), row.rating[k]);
      }
    }
    RECDB_DCHECK(rec.Build().ok());
  }

  ManualClock clock(0);
  CacheManager mgr(&rec, &clock, threshold);
  Workload w = MakeWorkload(rec.model()->ratings());
  for (int64_t u : w.query_users) mgr.RecordQuery(u);
  for (int64_t i : w.update_items) mgr.RecordUpdate(i);
  clock.Advance(60);
  auto decision = mgr.Run();
  RECDB_DCHECK(decision.ok());

  const RecScoreIndex& index = *rec.score_index();
  const RecModel* model = rec.model();
  const RatingMatrix& m = model->ratings();

  // Measure: top-10 per querying user, index when materialized, model
  // fallback otherwise (exactly what IndexRecommend does).
  size_t qi = 0, hits = 0, total = 0;
  for (auto _ : state) {
    int64_t user = w.query_users[qi++ % w.query_users.size()];
    ++total;
    if (index.HasUser(user)) {
      ++hits;
      auto top = index.TopK(user, 10);
      benchmark::DoNotOptimize(top.size());
    } else {
      auto uidx = m.UserIndex(user);
      std::vector<std::pair<int64_t, double>> scored;
      for (int64_t item : m.item_ids()) {
        if (m.Get(user, item).has_value()) continue;
        scored.emplace_back(item, model->Predict(user, item));
      }
      std::partial_sort(
          scored.begin(), scored.begin() + std::min<size_t>(10, scored.size()),
          scored.end(),
          [](const auto& a, const auto& b) { return a.second > b.second; });
      benchmark::DoNotOptimize(scored.size());
      benchmark::DoNotOptimize(uidx);
    }
  }

  size_t possible = m.NumUsers() * m.NumItems() - m.NumRatings();
  state.SetLabel("threshold=" + std::to_string(threshold));
  state.counters["materialized"] = static_cast<double>(index.NumEntries());
  state.counters["mat_fraction"] =
      possible == 0 ? 0 : static_cast<double>(index.NumEntries()) / possible;
  state.counters["index_MB"] =
      static_cast<double>(index.ApproxBytes()) / (1024.0 * 1024.0);
  state.counters["hit_rate"] =
      total == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(total);
}

void RegisterAll() {
  for (int64_t t : {0, 10, 25, 50, 75, 100}) {
    benchmark::RegisterBenchmark("AblationHotness", BM_Hotness)
        ->Arg(t)
        ->Unit(benchmark::kMicrosecond);
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace recdb::bench

BENCHMARK_MAIN();
