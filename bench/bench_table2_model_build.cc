// Table II — Recommender model building time.
// Rows: MovieLens / LDOS-CoMoDa / Yelp; columns: ItemCosCF / ItemPearCF /
// SVD. Each benchmark measures one cell: CREATE RECOMMENDER's model
// initialization (paper Section III-A) on a fresh recommender.
#include "bench_common.h"

namespace recdb::bench {
namespace {

void BM_Table2_ModelBuild(benchmark::State& state) {
  Which which = static_cast<Which>(state.range(0));
  RecAlgorithm algo = static_cast<RecAlgorithm>(state.range(1));
  BenchEnv& env = Env(which);
  // Source triples from the already-loaded ratings table.
  const RatingMatrix& src =
      env.GetRecommender(RecAlgorithm::kItemCosCF)->live();

  for (auto _ : state) {
    state.PauseTiming();
    RecommenderConfig cfg;
    cfg.name = "table2_tmp";
    cfg.algorithm = algo;
    Recommender rec(cfg);
    for (size_t u = 0; u < src.NumUsers(); ++u) {
      int64_t uid = src.UserIdAt(static_cast<int32_t>(u));
      const CsrRow row = src.UserCsrRow(static_cast<int32_t>(u));
      for (size_t k = 0; k < row.n; ++k) {
        rec.AddRating(uid, src.ItemIdAt(row.idx[k]), row.rating[k]);
      }
    }
    state.ResumeTiming();
    auto t = rec.Build();
    if (!t.ok()) state.SkipWithError(t.status().ToString().c_str());
    benchmark::DoNotOptimize(rec.model());
  }
  state.SetLabel(std::string(WhichName(which)) + "/" +
                 RecAlgorithmToString(algo));
  state.counters["ratings"] = static_cast<double>(src.NumRatings());
}

void RegisterAll() {
  for (Which w : {Which::kMovieLens, Which::kLdos, Which::kYelp}) {
    for (RecAlgorithm a : kFigAlgos) {
      benchmark::RegisterBenchmark("Table2/ModelBuild", BM_Table2_ModelBuild)
          ->Args({static_cast<int64_t>(w), static_cast<int64_t>(a)})
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace recdb::bench

BENCHMARK_MAIN();
