// Ablation — scalar vs batched scoring kernels (DESIGN.md §10).
//
// For each algorithm, score a fixed user sample against every item two ways:
//   scalar — one model->Predict(user, item) call per candidate (the batch-of-
//            one wrapper, i.e. the pre-batching hot-path shape)
//   batch  — one model->PredictBatch(user, all items) call per user
// ItemCosCF and SVD also get one row per kernel variant this host runs
// (kernel_variant.h): the batch row's work, called through that variant of
// cf_kernel.h or svd_kernel.h. Every row checksums the produced doubles
// bit-for-bit; any divergence fails the run (the kernels' golden-equality
// contract). ItemCosCF and UserCosCF also time the neighborhood builder
// (similarity.h): a full build of every row, and a 97-row recompute (the
// rows a 100-write refresh recomputes), each checksummed against the
// recommender's own table. Besides the usual benchmark output the binary
// writes BENCH_kernels.json with the measured rows/sec and the batch/scalar
// speedup per algorithm, rows/sec per variant, and the build times.
#include <algorithm>
#include <cstring>
#include <fstream>

#include "bench_common.h"
#include "common/timer.h"
#include "recommender/cf_kernel.h"
#include "recommender/cf_model.h"
#include "recommender/svd_model.h"

namespace recdb::bench {
namespace {

constexpr Which kWhich = Which::kMovieLens;
constexpr size_t kNumUsers = 8;

struct KernelStat {
  double rows_per_sec = 0;
  uint64_t checksum = 0;
  bool set = false;
  size_t rows_per_pass = 0;
};

/// Results keyed "<algo>/<scalar|batch|variant>", filled by the
/// benchmarks and drained by WriteKernelsJson() after the run.
std::map<std::string, KernelStat>& Stats() {
  static std::map<std::string, KernelStat> s;
  return s;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  h ^= bits;
  h *= 1099511628211ull;
  return h;
}

constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/// Rows a refresh-sized recompute builds: about what 100 writes touch.
constexpr size_t kRecomputeRows = 97;

uint64_t MixRow(uint64_t h, const NeighborRow& row) {
  for (const NeighborRow::Run& run : row.runs()) {
    h = (h ^ static_cast<uint64_t>(run.first)) * 1099511628211ull;
    h = (h ^ static_cast<uint64_t>(run.count)) * 1099511628211ull;
  }
  for (float sim : row.cells()) h = MixDouble(h, sim);
  return h;
}

/// Times `pass` (one scoring pass over the user sample, returning its
/// checksum) once per benchmark iteration and records the result under
/// `key`, "<algo>/<row>".
template <typename Pass>
void TimePasses(benchmark::State& state, const std::string& key,
                size_t rows_per_iter, Pass&& pass) {
  uint64_t checksum = 0;
  double total_seconds = 0;
  size_t rows = 0;
  for (auto _ : state) {
    Stopwatch watch;
    checksum = pass();
    total_seconds += watch.ElapsedSeconds();
    rows += rows_per_iter;
    benchmark::DoNotOptimize(checksum);
  }

  KernelStat& stat = Stats()[key];
  stat.rows_per_sec = total_seconds > 0 ? rows / total_seconds : 0;
  stat.checksum = checksum;
  stat.set = true;
  stat.rows_per_pass = rows_per_iter;

  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["rows_per_sec"] = stat.rows_per_sec;
  state.SetLabel(std::string(WhichName(kWhich)) + "/" + key);
}

void BM_Kernel(benchmark::State& state, RecAlgorithm algo, bool batch) {
  BenchEnv& env = Env(kWhich);
  const RecModel* model = env.GetRecommender(algo)->model();
  const std::vector<int64_t> users = env.SampleUsers(kNumUsers, 11);
  const std::vector<int64_t>& items = model->ratings().item_ids();
  std::vector<double> out(items.size(), 0.0);
  TimePasses(state,
             std::string(RecAlgorithmToString(algo)) +
                 (batch ? "/batch" : "/scalar"),
             users.size() * items.size(), [&] {
               uint64_t checksum = kFnvBasis;
               for (int64_t user : users) {
                 if (batch) {
                   model->PredictBatch(user, items, out);
                   for (double v : out) checksum = MixDouble(checksum, v);
                 } else {
                   for (int64_t item : items) {
                     checksum =
                         MixDouble(checksum, model->Predict(user, item));
                   }
                 }
               }
               return checksum;
             });
}

/// ItemCosCF through one kernel variant: the accumulation and Eq. (2)
/// division ItemCFModel's batch kernel does for the same users and items,
/// so the checksum must equal the batch row's.
void BM_ItemCFVariant(benchmark::State& state, KernelVariant kernel) {
  BenchEnv& env = Env(kWhich);
  const auto* model = dynamic_cast<const ItemCFModel*>(
      env.GetRecommender(RecAlgorithm::kItemCosCF)->model());
  RECDB_DCHECK(model != nullptr);
  const RatingMatrix& ratings = model->ratings();
  const std::vector<int64_t> users = env.SampleUsers(kNumUsers, 11);
  const std::vector<int64_t>& items = ratings.item_ids();
  const std::span<const NeighborRow> table = model->neighborhoods();
  const auto num_rows = static_cast<int32_t>(table.size());
  // Each item's index, -1 past the table; [lo, hi] spans the rest, as in
  // the batch kernel.
  std::vector<int32_t> at(items.size(), -1);
  int32_t lo = num_rows, hi = -1;
  for (size_t c = 0; c < items.size(); ++c) {
    const auto idx = ratings.ItemIndex(items[c]);
    if (!idx || *idx >= num_rows) continue;
    at[c] = *idx;
    lo = std::min(lo, *idx);
    hi = std::max(hi, *idx);
  }
  const size_t width = hi < lo ? 0 : static_cast<size_t>(hi - lo) + 1;
  std::vector<double> num(width), den(width);
  TimePasses(
      state, std::string("ItemCosCF/") + KernelVariantName(kernel),
      users.size() * items.size(), [&] {
        uint64_t checksum = kFnvBasis;
        for (int64_t user : users) {
          std::fill(num.begin(), num.end(), 0.0);
          std::fill(den.begin(), den.end(), 0.0);
          const auto u = ratings.UserIndex(user);
          if (u && width > 0) {
            AccumulateRatedRows(kernel, table, ratings.UserCsrRow(*u), lo,
                                hi, num.data(), den.data());
          }
          for (int32_t idx : at) {
            const size_t k = static_cast<size_t>(idx - lo);
            checksum = MixDouble(
                checksum, idx < 0 || den[k] == 0 ? 0.0 : num[k] / den[k]);
          }
        }
        return checksum;
      });
}

/// SVD through one kernel variant: the dot products SvdModel's batch kernel
/// runs for the same users and items, so the checksum must equal the batch
/// row's.
void BM_SvdVariant(benchmark::State& state, KernelVariant kernel) {
  BenchEnv& env = Env(kWhich);
  const auto* model = dynamic_cast<const SvdModel*>(
      env.GetRecommender(RecAlgorithm::kSVD)->model());
  RECDB_DCHECK(model != nullptr);
  const RatingMatrix& ratings = model->ratings();
  const std::vector<int64_t> users = env.SampleUsers(kNumUsers, 11);
  const std::vector<int64_t>& items = ratings.item_ids();
  std::vector<int32_t> at(items.size(), -1);
  for (size_t c = 0; c < items.size(); ++c) {
    if (const auto idx = ratings.ItemIndex(items[c])) at[c] = *idx;
  }
  std::vector<double> out(items.size());
  TimePasses(state, std::string("SVD/") + KernelVariantName(kernel),
             users.size() * items.size(), [&] {
               uint64_t checksum = kFnvBasis;
               for (int64_t user : users) {
                 const auto u = ratings.UserIndex(user);
                 if (u && static_cast<size_t>(*u) < model->NumUserRows()) {
                   ScoreItemRows(kernel, model->UserFactors(*u).data(),
                                 model->UserBase(*u), model->ItemRows(), at,
                                 out);
                 } else {
                   std::fill(out.begin(), out.end(), 0.0);
                 }
                 for (double v : out) checksum = MixDouble(checksum, v);
               }
               return checksum;
             });
}

/// The neighborhood builder over the recommender's matrix: every row
/// (`recompute` false) or kRecomputeRows rows spread over the table. The
/// checksum of the built rows must equal the same rows of the table the
/// recommender built.
void BM_Build(benchmark::State& state, RecAlgorithm algo, bool recompute) {
  BenchEnv& env = Env(kWhich);
  const auto* model = dynamic_cast<const NeighborhoodModel*>(
      env.GetRecommender(algo)->model());
  RECDB_DCHECK(model != nullptr);
  const RatingMatrix& ratings = model->ratings();
  const CfSide side = IsItemBased(algo) ? CfSide::kItem : CfSide::kUser;
  const size_t n = model->neighborhoods().size();
  std::vector<int32_t> rows;
  const size_t count = recompute ? std::min(kRecomputeRows, n) : n;
  for (size_t k = 0; k < count; ++k) {
    rows.push_back(static_cast<int32_t>(k * n / count));
  }
  uint64_t want = kFnvBasis;
  for (int32_t p : rows) want = MixRow(want, model->NeighborhoodAt(p));
  const std::string key = std::string("Build/") + RecAlgorithmToString(algo) +
                          (recompute ? "/recompute" : "/full");
  const SimilarityOptions opts;
  TimePasses(state, key, rows.size(), [&] {
    uint64_t checksum = kFnvBasis;
    if (recompute) {
      for (const auto& entry : BuildNeighborRows(ratings, side, opts, rows)) {
        checksum = MixRow(checksum, entry.second);
      }
    } else {
      for (const NeighborRow& row : BuildNeighborTable(ratings, side, opts)) {
        checksum = MixRow(checksum, row);
      }
    }
    return checksum;
  });
  Stats()[key + "/table"] = KernelStat{0, want, true, rows.size()};
}

void RegisterAll() {
  const double min_time = SmokeMode() ? 0.01 : 0.5;
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF,
                            RecAlgorithm::kSVD}) {
    for (bool batch : {false, true}) {
      const std::string name = std::string("Kernels/") +
                               RecAlgorithmToString(algo) +
                               (batch ? "/batch" : "/scalar");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [algo, batch](benchmark::State& state) {
            BM_Kernel(state, algo, batch);
          })
          ->Unit(benchmark::kMillisecond)
          ->MinTime(min_time);
    }
  }
  for (KernelVariant kernel : SupportedKernelVariants()) {
    const std::string name =
        std::string("Kernels/ItemCosCF/") + KernelVariantName(kernel);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [kernel](benchmark::State& state) { BM_ItemCFVariant(state, kernel); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
  }
  for (RecAlgorithm algo :
       {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF}) {
    for (bool recompute : {false, true}) {
      const std::string name = std::string("Build/") +
                               RecAlgorithmToString(algo) +
                               (recompute ? "/recompute" : "/full");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [algo, recompute](benchmark::State& state) {
            BM_Build(state, algo, recompute);
          })
          ->Unit(benchmark::kMillisecond)
          ->MinTime(min_time);
    }
  }
  for (KernelVariant kernel : SupportedKernelVariants()) {
    const std::string name =
        std::string("Kernels/SVD/") + KernelVariantName(kernel);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [kernel](benchmark::State& state) { BM_SvdVariant(state, kernel); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
  }
}

int dummy = (RegisterAll(), 0);

/// Emit BENCH_kernels.json and verify the scalar/batch checksums agree,
/// every ItemCosCF and SVD variant's with its algorithm's batch row, and
/// every build row's with the recommender's table.
/// Returns false (process failure, so the smoke test trips) on divergence.
bool WriteKernelsJson() {
  std::string results;
  bool all_match = true;
  std::string variants;
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kSVD}) {
    const std::string name = RecAlgorithmToString(algo);
    const KernelStat& batch = Stats()[name + "/batch"];
    for (KernelVariant kernel : SupportedKernelVariants()) {
      const KernelStat& stat = Stats()[name + "/" + KernelVariantName(kernel)];
      if (!stat.set || !batch.set) continue;  // filtered out
      const bool match = stat.checksum == batch.checksum;
      if (!match) {
        std::fprintf(stderr,
                     "bench_kernels: CHECKSUM MISMATCH for the %s %s "
                     "kernel — diverged from the %s batch kernel\n",
                     name.c_str(), KernelVariantName(kernel), name.c_str());
        all_match = false;
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"algorithm\": \"%s\", \"kernel\": \"%s\", "
                    "\"rows_per_sec\": %.1f, \"checksum_match\": %s}",
                    name.c_str(), KernelVariantName(kernel), stat.rows_per_sec,
                    match ? "true" : "false");
      if (!variants.empty()) variants += ",\n";
      variants += buf;
    }
  }
  for (RecAlgorithm algo : {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF,
                            RecAlgorithm::kSVD}) {
    const KernelStat& scalar =
        Stats()[std::string(RecAlgorithmToString(algo)) + "/scalar"];
    const KernelStat& batch =
        Stats()[std::string(RecAlgorithmToString(algo)) + "/batch"];
    if (!scalar.set || !batch.set) continue;  // filtered out by --benchmark_filter
    const bool match = scalar.checksum == batch.checksum;
    if (!match) {
      std::fprintf(stderr,
                   "bench_kernels: CHECKSUM MISMATCH for %s — batch kernel "
                   "diverged from scalar\n",
                   RecAlgorithmToString(algo));
      all_match = false;
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"algorithm\": \"%s\", \"scalar_rows_per_sec\": %.1f, "
                  "\"batch_rows_per_sec\": %.1f, \"speedup\": %.3f, "
                  "\"checksum_match\": %s}",
                  RecAlgorithmToString(algo), scalar.rows_per_sec,
                  batch.rows_per_sec,
                  scalar.rows_per_sec > 0
                      ? batch.rows_per_sec / scalar.rows_per_sec
                      : 0.0,
                  match ? "true" : "false");
    if (!results.empty()) results += ",\n";
    results += buf;
  }
  std::string builds;
  for (RecAlgorithm algo :
       {RecAlgorithm::kItemCosCF, RecAlgorithm::kUserCosCF}) {
    for (const char* kind : {"full", "recompute"}) {
      const std::string key = std::string("Build/") +
                              RecAlgorithmToString(algo) + "/" + kind;
      const KernelStat& stat = Stats()[key];
      const KernelStat& table = Stats()[key + "/table"];
      if (!stat.set) continue;  // filtered out
      const bool match = stat.checksum == table.checksum;
      if (!match) {
        std::fprintf(stderr,
                     "bench_kernels: CHECKSUM MISMATCH for the %s build — "
                     "diverged from the recommender's table\n",
                     key.c_str());
        all_match = false;
      }
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "    {\"algorithm\": \"%s\", \"build\": \"%s\", "
                    "\"rows\": %zu, \"ms_per_build\": %.3f, "
                    "\"rows_per_sec\": %.1f, \"checksum_match\": %s}",
                    RecAlgorithmToString(algo), kind, stat.rows_per_pass,
                    stat.rows_per_sec > 0
                        ? 1e3 * stat.rows_per_pass / stat.rows_per_sec
                        : 0.0,
                    stat.rows_per_sec, match ? "true" : "false");
      if (!builds.empty()) builds += ",\n";
      builds += buf;
    }
  }
  std::ofstream f("BENCH_kernels.json");
  f << "{\n  \"config\": {\"dataset\": \"" << WhichName(kWhich)
    << "\", \"users\": " << kNumUsers << ", \"threads\": 1, \"smoke\": "
    << (SmokeMode() ? "true" : "false") << "},\n  \"results\": [\n"
    << results << "\n  ],\n  \"variants\": [\n"
    << variants << "\n  ],\n  \"builds\": [\n"
    << builds << "\n  ],\n  " << MetricsJsonSection() << "\n}\n";
  return all_match;
}

}  // namespace
}  // namespace recdb::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return recdb::bench::WriteKernelsJson() ? 0 : 1;
}
