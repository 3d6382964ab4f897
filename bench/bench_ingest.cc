// Online ingest benchmark (DESIGN.md §12).
//
// Two questions, one binary:
//   scoring — how much does scoring with a pending op log over
//             copy-on-write live rows (`delta`) cost vs the same contents
//             flattened by Freeze() into the base (`rebuilt`)? Both
//             variants score an identical grid and checksum the doubles
//             bit-for-bit; any divergence fails the run (the row-view
//             golden contract).
//   ingest  — the staleness / ingest-rate trade of the re-freeze trigger:
//             stream rating writes through a recommender at several
//             rebuild_threshold (the paper's N%) settings, refreshing
//             whenever NeedsRefresh trips, and record achieved rows/sec, refresh count, mean
//             delta size at refresh (the staleness proxy) and mean refresh
//             wall time, split into its prepare and commit halves (the
//             commit always holds a RecDB's writer lock).
// Writes BENCH_ingest.json with both result sets.
#include <cstring>
#include <fstream>

#include "bench_common.h"
#include "common/timer.h"
#include "recommender/recommender.h"

namespace recdb::bench {
namespace {

size_t BaseUsers() { return SmokeMode() ? 60 : 400; }
size_t BaseItems() { return SmokeMode() ? 40 : 160; }

bool InBase(int64_t u, int64_t i) { return (u * 7 + i * 3) % 10 < 3; }
double RatingOf(int64_t u, int64_t i) {
  return static_cast<double>(1 + (u * 3 + i * 5) % 5);
}

struct Triple {
  int64_t user;
  int64_t item;
  double rating;
};

std::vector<Triple> BaseRatings() {
  std::vector<Triple> out;
  for (int64_t u = 1; u <= static_cast<int64_t>(BaseUsers()); ++u) {
    for (int64_t i = 1; i <= static_cast<int64_t>(BaseItems()); ++i) {
      if (InBase(u, i)) out.push_back({u, i, RatingOf(u, i)});
    }
  }
  return out;
}

/// Deterministic write stream over pairs absent from the base (plus a few
/// overwrites), `count` ops long, disjoint from BaseRatings().
std::vector<Triple> WriteStream(size_t count) {
  std::vector<Triple> out;
  for (int64_t u = 1; out.size() < count; ++u) {
    int64_t wrapped = 1 + (u - 1) % static_cast<int64_t>(BaseUsers());
    for (int64_t i = 1;
         i <= static_cast<int64_t>(BaseItems()) && out.size() < count; ++i) {
      if (!InBase(wrapped, i) && (wrapped + i + u) % 4 == 0) {
        out.push_back({wrapped, i, RatingOf(wrapped + 1, i)});
      }
    }
  }
  return out;
}

RecommenderConfig IngestConfig(double rebuild_threshold) {
  RecommenderConfig cfg;
  cfg.name = "bench_ingest";
  cfg.algorithm = RecAlgorithm::kItemCosCF;
  cfg.rebuild_threshold = rebuild_threshold;
  return cfg;
}

uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  h ^= bits;
  h *= 1099511628211ull;
  return h;
}

struct ScoreStat {
  double rows_per_sec = 0;
  uint64_t checksum = 0;
  bool set = false;
};

struct IngestStat {
  double rows_per_sec = 0;
  double refreshes = 0;
  double mean_delta_at_refresh = 0;
  double mean_refresh_ms = 0;
  double mean_prepare_ms = 0;
  double mean_commit_ms = 0;
  bool set = false;
};

std::map<std::string, ScoreStat>& ScoreStats() {
  static std::map<std::string, ScoreStat> s;
  return s;
}

std::map<double, IngestStat>& IngestStats() {
  static std::map<double, IngestStat> s;
  return s;
}

/// One recommender per variant: base ratings trained, then a 5%-of-base
/// write stream. `merged` == false scores with the op log pending, the
/// written rows read from their live copies; `merged` == true calls
/// Freeze() first so the same contents come from the flattened base.
Recommender& ScoringRec(bool merged) {
  static Recommender* recs[2] = {nullptr, nullptr};
  Recommender*& rec = recs[merged ? 1 : 0];
  if (rec == nullptr) {
    rec = new Recommender(IngestConfig(1e9));
    for (const Triple& t : BaseRatings()) rec->AddRating(t.user, t.item, t.rating);
    RECDB_DCHECK(rec->Build().ok());
    for (const Triple& t : WriteStream(BaseRatings().size() / 20)) {
      rec->AddRating(t.user, t.item, t.rating);
    }
    if (merged) {
      rec->mutable_matrix()->Freeze();
      RECDB_DCHECK(!rec->live().has_delta());
    } else {
      RECDB_DCHECK(rec->live().has_delta());
    }
  }
  return *rec;
}

std::string ThresholdLabel(double threshold) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", threshold);
  return buf;
}

void BM_Score(benchmark::State& state, bool merged) {
  PrintHardwareBanner();
  Recommender& rec = ScoringRec(merged);
  std::vector<int64_t> items;
  for (int64_t i = 1; i <= static_cast<int64_t>(BaseItems()); ++i) {
    items.push_back(i);
  }
  std::vector<double> out(items.size(), 0.0);
  const size_t rows_per_iter = BaseUsers() * items.size();

  uint64_t checksum = 0;
  double total_seconds = 0;
  size_t rows = 0;
  for (auto _ : state) {
    checksum = 1469598103934665603ull;
    Stopwatch watch;
    for (int64_t u = 1; u <= static_cast<int64_t>(BaseUsers()); ++u) {
      rec.model()->PredictBatch(u, items, out);
      for (double v : out) checksum = MixDouble(checksum, v);
    }
    total_seconds += watch.ElapsedSeconds();
    rows += rows_per_iter;
    benchmark::DoNotOptimize(checksum);
  }

  ScoreStat& stat = ScoreStats()[merged ? "rebuilt" : "delta"];
  stat.rows_per_sec = total_seconds > 0 ? rows / total_seconds : 0;
  stat.checksum = checksum;
  stat.set = true;
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["rows_per_sec"] = stat.rows_per_sec;
  state.SetLabel(merged ? "scoring/rebuilt" : "scoring/delta");
}

void BM_IngestStream(benchmark::State& state, double threshold) {
  PrintHardwareBanner();
  const std::vector<Triple> base = BaseRatings();
  const std::vector<Triple> stream = WriteStream(base.size() / 2);

  double total_seconds = 0;
  size_t rows = 0;
  size_t refreshes = 0;
  size_t delta_at_refresh = 0;
  double prepare_seconds = 0;
  double commit_seconds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Recommender rec(IngestConfig(threshold));
    for (const Triple& t : base) rec.AddRating(t.user, t.item, t.rating);
    RECDB_DCHECK(rec.Build().ok());
    state.ResumeTiming();

    Stopwatch watch;
    for (const Triple& t : stream) {
      rec.AddRating(t.user, t.item, t.rating);
      if (rec.NeedsRefresh()) {
        delta_at_refresh += rec.live().delta_size();
        ++refreshes;
        // Refresh() is these two calls back to back.
        Stopwatch prepare_watch;
        auto plan = rec.PrepareRefresh();
        RECDB_DCHECK(plan.ok() && plan.value().valid);
        prepare_seconds += prepare_watch.ElapsedSeconds();
        Stopwatch commit_watch;
        RECDB_DCHECK(rec.CommitRefresh(std::move(plan).value()));
        commit_seconds += commit_watch.ElapsedSeconds();
      }
    }
    total_seconds += watch.ElapsedSeconds();
    rows += stream.size();
  }

  IngestStat& stat = IngestStats()[threshold];
  stat.rows_per_sec = total_seconds > 0 ? rows / total_seconds : 0;
  const double iters = static_cast<double>(state.iterations());
  stat.refreshes = iters > 0 ? refreshes / iters : 0;
  stat.mean_delta_at_refresh =
      refreshes > 0 ? static_cast<double>(delta_at_refresh) / refreshes : 0;
  const double per_refresh_ms = refreshes > 0 ? 1e3 / refreshes : 0;
  stat.mean_prepare_ms = prepare_seconds * per_refresh_ms;
  stat.mean_commit_ms = commit_seconds * per_refresh_ms;
  stat.mean_refresh_ms = stat.mean_prepare_ms + stat.mean_commit_ms;
  stat.set = true;
  state.SetItemsProcessed(static_cast<int64_t>(rows));
  state.counters["rows_per_sec"] = stat.rows_per_sec;
  state.SetLabel("ingest/rebuild_threshold=" + ThresholdLabel(threshold));
}

void RegisterAll() {
  const double min_time = SmokeMode() ? 0.01 : 0.5;
  for (bool merged : {false, true}) {
    const std::string name =
        std::string("Ingest/scoring/") + (merged ? "rebuilt" : "delta");
    benchmark::RegisterBenchmark(
        name.c_str(),
        [merged](benchmark::State& state) { BM_Score(state, merged); })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
  }
  for (double threshold : {0.01, 0.05, 0.20}) {
    const std::string name =
        "Ingest/stream/rebuild_threshold=" + ThresholdLabel(threshold);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [threshold](benchmark::State& state) {
          BM_IngestStream(state, threshold);
        })
        ->Unit(benchmark::kMillisecond)
        ->MinTime(min_time);
  }
}

int dummy = (RegisterAll(), 0);

/// Emit BENCH_ingest.json; fail the process when the delta and rebuilt
/// scoring checksums diverge.
bool WriteIngestJson() {
  const ScoreStat& delta = ScoreStats()["delta"];
  const ScoreStat& rebuilt = ScoreStats()["rebuilt"];
  bool match = true;
  std::string scoring;
  if (delta.set && rebuilt.set) {
    match = delta.checksum == rebuilt.checksum;
    if (!match) {
      std::fprintf(stderr,
                   "bench_ingest: CHECKSUM MISMATCH — live-row scoring "
                   "diverged from the rebuilt matrix\n");
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"delta_rows_per_sec\": %.1f, "
                  "\"rebuilt_rows_per_sec\": %.1f, "
                  "\"overlay_relative_throughput\": %.3f, "
                  "\"checksum_match\": %s}",
                  delta.rows_per_sec, rebuilt.rows_per_sec,
                  rebuilt.rows_per_sec > 0
                      ? delta.rows_per_sec / rebuilt.rows_per_sec
                      : 0.0,
                  match ? "true" : "false");
    scoring = buf;
  }

  std::string curve;
  for (const auto& [threshold, stat] : IngestStats()) {
    if (!stat.set) continue;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"rebuild_threshold\": %.2f, "
                  "\"ingest_rows_per_sec\": %.1f, "
                  "\"refreshes_per_run\": %.2f, "
                  "\"mean_delta_at_refresh\": %.1f, "
                  "\"mean_refresh_ms\": %.3f, "
                  "\"mean_prepare_ms\": %.3f, "
                  "\"mean_commit_ms\": %.3f}",
                  threshold, stat.rows_per_sec, stat.refreshes,
                  stat.mean_delta_at_refresh, stat.mean_refresh_ms,
                  stat.mean_prepare_ms, stat.mean_commit_ms);
    if (!curve.empty()) curve += ",\n";
    curve += buf;
  }

  std::ofstream f("BENCH_ingest.json");
  f << "{\n  \"config\": {\"users\": " << BaseUsers()
    << ", \"items\": " << BaseItems() << ", \"smoke\": "
    << (SmokeMode() ? "true" : "false") << "},\n  \"scoring\": [\n"
    << scoring << "\n  ],\n  \"ingest_curve\": [\n" << curve << "\n  ],\n  "
    << MetricsJsonSection() << "\n}\n";
  return match;
}

}  // namespace
}  // namespace recdb::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return recdb::bench::WriteIngestJson() ? 0 : 1;
}
