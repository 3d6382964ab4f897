// Ablation — morsel-parallel scaling (TaskScheduler).
//
// Two workloads at 1 / 2 / 4 / 8 worker threads:
//   NeighborhoodBuild — the Σ_d nnz(d)² similarity pass of an item-CF model
//   RecommendTopK     — RECOMMEND top-10 for one user with the
//                       IndexRecommend rewrite disabled: the bounded
//                       Top-k driver cuts the one user's catalog into
//                       item slices across the workers (ItemCosCF
//                       selects densely: every unrated item is scored)
// Every parallel run is checked byte-identical to the serial baseline (the
// determinism contract); the `speedup` counter reports serial-time /
// parallel-time measured in this process.
#include <cstring>

#include "bench_common.h"
#include "common/task_scheduler.h"
#include "common/timer.h"
#include "recommender/similarity.h"

namespace recdb::bench {
namespace {

uint64_t NeighborhoodChecksum(const std::vector<std::vector<Neighbor>>& nh) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& row : nh) {
    mix(row.size());
    for (const auto& nb : row) {
      uint32_t bits;
      static_assert(sizeof(bits) == sizeof(nb.sim));
      std::memcpy(&bits, &nb.sim, sizeof(bits));
      mix(static_cast<uint64_t>(static_cast<uint32_t>(nb.idx)) << 32 | bits);
    }
  }
  return h;
}

void BM_Parallel_NeighborhoodBuild(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  BenchEnv& env = Env(Which::kMovieLens);
  const RatingMatrix& ratings =
      env.GetRecommender(RecAlgorithm::kItemCosCF)->model()->ratings();
  static uint64_t serial_checksum = 0;
  static double serial_seconds = 0;

  TaskScheduler::SetGlobalParallelism(threads);
  SimilarityOptions opts;
  double total_seconds = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    Stopwatch watch;
    auto nh = BuildItemNeighborhoods(ratings, opts);
    total_seconds += watch.ElapsedSeconds();
    ++iterations;
    uint64_t sum = NeighborhoodChecksum(nh);
    if (threads == 1) {
      serial_checksum = sum;
    } else if (sum != serial_checksum) {
      state.SkipWithError("parallel neighborhood build diverged from serial");
      break;
    }
    benchmark::DoNotOptimize(sum);
  }
  TaskScheduler::SetGlobalParallelism(1);

  const double seconds = total_seconds / std::max<size_t>(iterations, 1);
  if (threads == 1) serial_seconds = seconds;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup"] = serial_seconds > 0 ? serial_seconds / seconds : 0;
  state.SetLabel("MovieLens/ItemCosCF");
}

void BM_Parallel_RecommendTopK(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  BenchEnv& env = Env(Which::kMovieLens);
  env.GetRecommender(RecAlgorithm::kItemCosCF);
  // Force the full-scan scoring path: without this the optimizer rewrites
  // ORDER BY ratingval DESC LIMIT k into IndexRecommend.
  env.db()->mutable_planner_options()->enable_index_recommend = false;
  const int64_t user = env.SampleUsers(1)[0];
  const std::string q =
      "SELECT R.iid, R.ratingval FROM " + env.dataset().ratings_table +
      " AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF "
      "WHERE R.uid = " + std::to_string(user) +
      " ORDER BY R.ratingval DESC LIMIT 10";
  static std::string serial_rows;
  static double serial_seconds = 0;

  TaskScheduler::SetGlobalParallelism(threads);
  double total_seconds = 0;
  size_t iterations = 0;
  for (auto _ : state) {
    Stopwatch watch;
    ResultSet rs = MustExecute(env.db(), q);
    total_seconds += watch.ElapsedSeconds();
    ++iterations;
    std::string rows;
    for (const auto& row : rs.rows) {
      for (const auto& v : row.values()) {
        rows += v.ToString();
        rows += '|';
      }
    }
    if (threads == 1) {
      serial_rows = rows;
    } else if (rows != serial_rows) {
      state.SkipWithError("parallel RECOMMEND diverged from serial");
      break;
    }
    benchmark::DoNotOptimize(rs.NumRows());
  }
  TaskScheduler::SetGlobalParallelism(1);
  env.db()->mutable_planner_options()->enable_index_recommend = true;

  const double seconds = total_seconds / std::max<size_t>(iterations, 1);
  if (threads == 1) serial_seconds = seconds;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["speedup"] = serial_seconds > 0 ? serial_seconds / seconds : 0;
  state.SetLabel("MovieLens/ItemCosCF/top10");
}

void RegisterAll() {
  // MinTime overrides the --benchmark_min_time flag, so honour the smoke
  // preset here explicitly to keep the bench-smoke ctest run fast.
  const double min_time = SmokeMode() ? 0.01 : 0.5;
  for (int64_t threads : {1, 2, 4, 8}) {
    benchmark::RegisterBenchmark("Ablation/Parallel/NeighborhoodBuild",
                                 BM_Parallel_NeighborhoodBuild)
        ->Args({threads})
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
    benchmark::RegisterBenchmark("Ablation/Parallel/RecommendTopK",
                                 BM_Parallel_RecommendTopK)
        ->Args({threads})
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
  }
}

int dummy = (RegisterAll(), 0);

}  // namespace
}  // namespace recdb::bench

BENCHMARK_MAIN();
