// Bounded Top-k benchmark (DESIGN.md §13): exact exhaustive scoring vs the
// bounded Top-k driver for the global Top-N query
//
//   SELECT uid, iid, score ... RECOMMEND ... ORDER BY score DESC LIMIT k
//
// across all five algorithms, a k-sweep, and two data regimes:
//
//   MovieLens  — the dense paper dataset (Zipf-synthesized).
//   longtail   — a sparse long-tail catalog (2000 users x 8000 items,
//                30k ratings, ~0.2% dense — the regime of real product
//                catalogs).
//
// CF selects densely (every unseen item scored once, selected over doubles,
// tuples built only for the survivors), so its gain is the bounded heap and
// the saved tuples; SVD's block bounds also skip scoring.
//
// Both variants run the same SQL; only PlannerOptions::enable_pruned_topn
// differs, so the speedup measured is exactly what the bounded Top-k
// driver buys over the exact plan. Every result set is folded into an
// FNV-1a checksum over (uid, iid, canonicalized score); any
// exact-vs-pruned divergence fails the process — pruning must be an
// execution strategy, never an answer change. So does a pruned variant
// whose plan is not pruned: every model takes the bounded driver, and a
// silent fallback to the exact scan would measure nothing.
//
// Writes BENCH_pruning.json: per (dataset, algo, k) rows/sec for both
// variants, the speedup, checksum verdict, whether the plan actually
// ran pruned (`mode=pruned` in EXPLAIN), and mean per-query prune counters
// (mean_candidates reads 0: no path generates candidates).
#include <cstring>
#include <fstream>
#include <set>

#include "bench_common.h"
#include "common/timer.h"
#include "recommender/recommender.h"

namespace recdb::bench {
namespace {

const RecAlgorithm kAllAlgos[] = {
    RecAlgorithm::kItemCosCF, RecAlgorithm::kItemPearCF,
    RecAlgorithm::kUserCosCF, RecAlgorithm::kUserPearCF, RecAlgorithm::kSVD};
const int64_t kKs[] = {10, 50, 100};

uint64_t MixBits(uint64_t h, uint64_t bits) {
  h ^= bits;
  h *= 1099511628211ull;
  return h;
}

/// Fold a score into the checksum bit-for-bit, after canonicalizing -0.0
/// to +0.0 (the two compare equal in SQL but differ in bits).
uint64_t MixScore(uint64_t h, double v) {
  v += 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return MixBits(h, bits);
}

/// The sparse long-tail environment (not a paper dataset, so not part of
/// BenchEnv's Which). Low item skew keeps the tail long.
struct LongTailEnv {
  std::unique_ptr<RecDB> db;
  datagen::GeneratedDataset ds;
  std::set<RecAlgorithm> created;

  LongTailEnv() {
    db = std::make_unique<RecDB>();
    datagen::DatasetSpec spec;
    spec.prefix = "lt";
    spec.num_users = 2000;
    spec.num_items = 8000;
    spec.num_ratings = 30000;
    spec.item_skew = 0.4;
    spec.user_skew = 0.4;
    spec.seed = 404;
    if (SmokeMode()) spec = spec.Scaled(0.1);
    auto loaded = datagen::LoadDataset(db.get(), spec);
    RECDB_DCHECK(loaded.ok());
    ds = loaded.value();
  }
};

LongTailEnv& LongTail() {
  static LongTailEnv env;
  return env;
}

struct DataEnv {
  RecDB* db = nullptr;
  std::string ratings_table;
  const char* tag = nullptr;
};

DataEnv GetEnv(bool longtail, RecAlgorithm algo) {
  if (!longtail) {
    BenchEnv& env = Env(Which::kMovieLens);
    env.GetRecommender(algo);
    return {env.db(), env.dataset().ratings_table, "MovieLens"};
  }
  LongTailEnv& env = LongTail();
  if (env.created.insert(algo).second) {
    MustExecute(env.db.get(),
                std::string("CREATE RECOMMENDER rec_") +
                    RecAlgorithmToString(algo) + " ON " + env.ds.ratings_table +
                    " USERS FROM uid ITEMS FROM iid RATINGS FROM ratingval "
                    "USING " +
                    RecAlgorithmToString(algo));
  }
  return {env.db.get(), env.ds.ratings_table, "longtail"};
}

struct RunStat {
  double rows_per_sec = 0;   // scored-universe rows (users x items) / sec
  double queries_per_sec = 0;
  uint64_t checksum = 0;
  double mean_candidates = 0;
  double mean_blocks_skipped = 0;
  double mean_items_pruned = 0;
  bool plan_pruned = false;  // EXPLAIN showed mode=pruned / fallback=pruned
  bool set = false;
};

/// Keyed "<dataset>/<algo>/<k>/<exact|pruned>".
std::map<std::string, RunStat>& Stats() {
  static std::map<std::string, RunStat> s;
  return s;
}

std::string TopNQuery(const DataEnv& env, RecAlgorithm algo, int64_t k) {
  return "SELECT R.uid, R.iid, R.ratingval FROM " + env.ratings_table +
         " AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING " +
         RecAlgorithmToString(algo) + " ORDER BY R.ratingval DESC LIMIT " +
         std::to_string(k);
}

void BM_TopN(benchmark::State& state, bool longtail, bool pruned) {
  RecAlgorithm algo = static_cast<RecAlgorithm>(state.range(0));
  int64_t k = state.range(1);
  DataEnv env = GetEnv(longtail, algo);
  env.db->mutable_planner_options()->enable_pruned_topn = pruned;

  const std::string sql = TopNQuery(env, algo, k);
  auto explain = env.db->Explain(sql);
  RECDB_DCHECK(explain.ok());
  // "pruned_topn=on" in the summary line doesn't count: the plan itself
  // must carry a pruned node.
  const bool plan_pruned =
      explain.value().find("mode=pruned") != std::string::npos ||
      explain.value().find("fallback=pruned") != std::string::npos;

  // Nominal work per query: the (users x items) universe the exhaustive
  // path scores. Both variants use the same figure, so the rows/sec ratio
  // is exactly the latency speedup.
  auto any_rec = env.db->GetRecommender(
      std::string("rec_") + RecAlgorithmToString(algo));
  RECDB_DCHECK(any_rec.ok());
  const size_t rows_per_query = any_rec.value()->model()->ratings().NumUsers() *
                                any_rec.value()->model()->ratings().NumItems();

  uint64_t checksum = 0;
  double total_seconds = 0;
  size_t queries = 0;
  uint64_t candidates = 0, blocks_skipped = 0, items_pruned = 0;
  for (auto _ : state) {
    Stopwatch watch;
    ResultSet rs = MustExecute(env.db, sql);
    total_seconds += watch.ElapsedSeconds();
    ++queries;
    checksum = 1469598103934665603ull;
    for (size_t r = 0; r < rs.NumRows(); ++r) {
      checksum = MixBits(checksum, static_cast<uint64_t>(rs.At(r, 0).AsInt()));
      checksum = MixBits(checksum, static_cast<uint64_t>(rs.At(r, 1).AsInt()));
      checksum = MixScore(checksum, rs.At(r, 2).AsNumeric());
    }
    candidates += rs.stats.candidates_generated;
    blocks_skipped += rs.stats.blocks_skipped;
    items_pruned += rs.stats.items_pruned;
    benchmark::DoNotOptimize(checksum);
  }
  env.db->mutable_planner_options()->enable_pruned_topn = true;

  const std::string key = std::string(env.tag) + "/" +
                          RecAlgorithmToString(algo) + "/" +
                          std::to_string(k) + "/" +
                          (pruned ? "pruned" : "exact");
  RunStat& stat = Stats()[key];
  stat.rows_per_sec =
      total_seconds > 0 ? queries * rows_per_query / total_seconds : 0;
  stat.queries_per_sec = total_seconds > 0 ? queries / total_seconds : 0;
  stat.checksum = checksum;
  stat.mean_candidates = queries > 0 ? double(candidates) / queries : 0;
  stat.mean_blocks_skipped = queries > 0 ? double(blocks_skipped) / queries : 0;
  stat.mean_items_pruned = queries > 0 ? double(items_pruned) / queries : 0;
  stat.plan_pruned = plan_pruned;
  stat.set = true;
  state.SetItemsProcessed(static_cast<int64_t>(queries * rows_per_query));
  state.counters["rows_per_sec"] = stat.rows_per_sec;
  state.SetLabel(key);
}

void RegisterAll() {
  const double min_time = SmokeMode() ? 0.01 : 0.2;
  for (bool longtail : {false, true}) {
    for (RecAlgorithm a : kAllAlgos) {
      for (int64_t k : kKs) {
        for (bool pruned : {false, true}) {
          const std::string name =
              std::string("PrunedTopN/") + (longtail ? "longtail" : "ml") +
              "/" + RecAlgorithmToString(a) + "/k=" + std::to_string(k) + "/" +
              (pruned ? "pruned" : "exact");
          benchmark::RegisterBenchmark(
              name.c_str(),
              [longtail, pruned](benchmark::State& state) {
                BM_TopN(state, longtail, pruned);
              })
              ->Args({static_cast<int64_t>(a), k})
              ->Unit(benchmark::kMillisecond)
              ->MinTime(min_time);
        }
      }
    }
  }
}

int dummy = (RegisterAll(), 0);

/// Emit BENCH_pruning.json; fail the process when any exact-vs-pruned
/// checksum pair diverges (the bit-identity contract) or a pruned variant
/// did not plan pruned.
bool WritePruningJson() {
  bool all_ok = true;
  std::string rows;
  for (const char* ds : {"MovieLens", "longtail"}) {
    for (RecAlgorithm a : kAllAlgos) {
      for (int64_t k : kKs) {
        const std::string base = std::string(ds) + "/" +
                                 RecAlgorithmToString(a) + "/" +
                                 std::to_string(k);
        const RunStat& exact = Stats()[base + "/exact"];
        const RunStat& pruned = Stats()[base + "/pruned"];
        if (!exact.set || !pruned.set) continue;
        const bool match = exact.checksum == pruned.checksum;
        if (!match) {
          all_ok = false;
          std::fprintf(stderr,
                       "bench_pruning: CHECKSUM MISMATCH at %s — pruned "
                       "Top-N diverged from the exhaustive scan\n",
                       base.c_str());
        }
        if (!pruned.plan_pruned) {
          all_ok = false;
          std::fprintf(stderr,
                       "bench_pruning: PLAN NOT PRUNED at %s — the bounded "
                       "Top-k fell back to the exact scan\n",
                       base.c_str());
        }
        char buf[640];
        std::snprintf(
            buf, sizeof(buf),
            "    {\"dataset\": \"%s\", \"algo\": \"%s\", \"k\": %lld, "
            "\"exact_rows_per_sec\": %.1f, \"pruned_rows_per_sec\": %.1f, "
            "\"speedup\": %.3f, \"checksum_match\": %s, "
            "\"pruned_plan\": %s, \"mean_candidates\": %.1f, "
            "\"mean_blocks_skipped\": %.1f, \"mean_items_pruned\": %.1f}",
            ds, RecAlgorithmToString(a), static_cast<long long>(k),
            exact.rows_per_sec, pruned.rows_per_sec,
            exact.rows_per_sec > 0 ? pruned.rows_per_sec / exact.rows_per_sec
                                   : 0.0,
            match ? "true" : "false", pruned.plan_pruned ? "true" : "false",
            pruned.mean_candidates, pruned.mean_blocks_skipped,
            pruned.mean_items_pruned);
        if (!rows.empty()) rows += ",\n";
        rows += buf;
      }
    }
  }

  std::ofstream f("BENCH_pruning.json");
  f << "{\n  \"config\": {\"datasets\": [\"MovieLens\", \"longtail\"], "
       "\"smoke\": "
    << (SmokeMode() ? "true" : "false") << "},\n  \"topn\": [\n"
    << rows << "\n  ],\n  " << MetricsJsonSection() << "\n}\n";
  return all_ok;
}

}  // namespace
}  // namespace recdb::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return recdb::bench::WritePruningJson() ? 0 : 1;
}
