#include "workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <thread>
#include <unordered_set>

#include "api/recdb.h"
#include "common/shard.h"
#include "datagen/datagen.h"
#include "execution/executor.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "planner/optimizer.h"
#include "planner/planner.h"
#include "serving/sharded_recdb.h"
#include "storage/disk_manager.h"

namespace perfbench {
namespace {

using recdb::ResultSet;
using recdb::RecDB;
using recdb::Value;

// Set-up is repeated and its median reported, so one slow load does not
// move setup_s.
constexpr int kSetupReps = 5;
// Traced runs alternate untraced and traced blocks of this length, so host
// drift hits both sides of obs.bench_trace_overhead_pct alike.
constexpr double kTraceBlockS = 0.5;
constexpr size_t kTopK = 10;
// Fixed users (by activity rank) whose answers every correctness gate checks.
constexpr size_t kPanelUsers = 16;

const SteadyClock kClock;

[[noreturn]] void Die(const std::string& what, const recdb::Status& s) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               s.ToString().c_str());
  std::exit(2);
}

void Must(const recdb::Status& s, const std::string& what) {
  if (!s.ok()) Die(what, s);
}

template <class T>
T Must(recdb::Result<T> r, const std::string& what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t CounterValue(const recdb::obs::MetricsSnapshot& s,
                      recdb::obs::Counter c) {
  return s.counters[static_cast<size_t>(c)];
}

recdb::obs::MetricsSnapshot Snapshot() {
  return recdb::obs::MetricsRegistry::Global().Snapshot();
}

uint64_t Delta(const recdb::obs::MetricsSnapshot& before,
               const recdb::obs::MetricsSnapshot& after,
               recdb::obs::Counter c) {
  return CounterValue(after, c) - CounterValue(before, c);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Bit-exact fingerprint of a result: every value of every row, in order.
uint64_t Checksum(const ResultSet& rs) {
  Fnv f;
  f.Add(rs.rows.size());
  for (const auto& row : rs.rows) {
    for (size_t c = 0; c < row.NumValues(); ++c) {
      const Value& v = row.At(c);
      f.Add(static_cast<uint64_t>(v.type()));
      switch (v.type()) {
        case recdb::TypeId::kNull: break;
        case recdb::TypeId::kInt64: f.Add(static_cast<uint64_t>(v.AsInt())); break;
        case recdb::TypeId::kDouble: f.AddDouble(v.AsDouble()); break;
        case recdb::TypeId::kString: f.AddBytes(v.AsString()); break;
        default: f.AddBytes(v.ToString()); break;
      }
    }
  }
  return f.value();
}

// What a well-formed answer of one query looks like.
struct Shape {
  size_t max_rows = kTopK;
  size_t min_rows = 0;
  std::set<int64_t> users;  // column 0 must be one of these; empty = any
  bool ordered = true;      // last column non-increasing
};

bool ShapeOk(const Shape& shape, const ResultSet& rs) {
  if (rs.rows.size() > shape.max_rows || rs.rows.size() < shape.min_rows) {
    return false;
  }
  double prev = 0;
  for (size_t r = 0; r < rs.rows.size(); ++r) {
    const auto& row = rs.rows[r];
    if (row.NumValues() < 2) return false;
    if (!shape.users.empty() &&
        (row.At(0).type() != recdb::TypeId::kInt64 ||
         shape.users.count(row.At(0).AsInt()) == 0)) {
      return false;
    }
    const Value& score = row.At(row.NumValues() - 1);
    if (score.type() != recdb::TypeId::kDouble) return false;
    if (shape.ordered && r > 0 && score.AsDouble() > prev) return false;
    prev = score.AsDouble();
  }
  return true;
}

// ---------------------------------------------------------------------------
// Per-layer timing from outside the engine: the same SELECT re-run as
// Parser::Parse -> Planner::PlanSelect + Optimizer::Optimize ->
// CreateExecutor + Init + drain, against the engine's catalog and registry.

struct LayerSample {
  double parse_us = 0;
  double plan_us = 0;
  double drain_us = 0;
  bool pruned = false;
  size_t rows = 0;
  recdb::ExecStats stats;
};

recdb::Result<LayerSample> ProbeLayers(RecDB* db, const std::string& sql) {
  LayerSample s;
  const double t0 = kClock.Now();
  RECDB_ASSIGN_OR_RETURN(auto stmts, recdb::Parser::Parse(sql));
  const double t1 = kClock.Now();
  if (stmts.size() != 1 || stmts[0]->kind != recdb::StatementKind::kSelect) {
    return recdb::Status::InvalidArgument("probe expects one SELECT");
  }
  const auto& select = static_cast<const recdb::SelectStatement&>(*stmts[0]);
  const recdb::PlannerOptions& popts = db->options().planner;
  recdb::Planner planner(db->catalog(), db->registry(), popts);
  RECDB_ASSIGN_OR_RETURN(auto planned, planner.PlanSelect(select));
  recdb::Optimizer optimizer(popts);
  RECDB_ASSIGN_OR_RETURN(auto plan, optimizer.Optimize(std::move(planned.plan)));
  const double t2 = kClock.Now();
  recdb::ExecContext ctx;
  ctx.shard_count = static_cast<uint32_t>(db->options().shard_count);
  ctx.shard_index = static_cast<uint32_t>(db->options().shard_index);
  RECDB_ASSIGN_OR_RETURN(auto exec, recdb::CreateExecutor(*plan, &ctx));
  RECDB_RETURN_NOT_OK(exec->Init());
  while (true) {
    RECDB_ASSIGN_OR_RETURN(auto next, exec->Next());
    if (!next.has_value()) break;
    ++s.rows;
  }
  const double t3 = kClock.Now();
  s.parse_us = (t1 - t0) * 1e6;
  s.plan_us = (t2 - t1) * 1e6;
  s.drain_us = (t3 - t2) * 1e6;
  s.pruned = plan->ToString().find("mode=pruned") != std::string::npos;
  s.stats = ctx.stats;
  return s;
}

// One op class's layer samples.
struct LayerAgg {
  std::vector<double> parse_us, plan_us, drain_us, api_us;
  size_t n = 0, pruned = 0;
  uint64_t predictions = 0, rows = 0, items_pruned = 0, blocks_skipped = 0,
           candidates = 0;

  // `execute_us` is RecDB::Execute of the same statement; what it spends
  // beyond parse + plan + drain is the api layer (locking, demand
  // recording, stats copies).
  void Add(const LayerSample& s, double execute_us) {
    parse_us.push_back(s.parse_us);
    plan_us.push_back(s.plan_us);
    drain_us.push_back(s.drain_us);
    api_us.push_back(execute_us - s.parse_us - s.plan_us - s.drain_us);
    ++n;
    pruned += s.pruned ? 1 : 0;
    predictions += s.stats.predictions;
    rows += s.rows;
    items_pruned += s.stats.items_pruned;
    blocks_skipped += s.stats.blocks_skipped;
    candidates += s.stats.candidates_generated;
  }

  void Scale(double scale) {
    for (auto* v : {&parse_us, &plan_us, &drain_us, &api_us}) {
      for (double& x : *v) x *= scale;
    }
  }

  void Merge(const LayerAgg& o) {
    for (auto [dst, src] : {std::pair{&parse_us, &o.parse_us},
                            std::pair{&plan_us, &o.plan_us},
                            std::pair{&drain_us, &o.drain_us},
                            std::pair{&api_us, &o.api_us}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    n += o.n;
    pruned += o.pruned;
    predictions += o.predictions;
    rows += o.rows;
    items_pruned += o.items_pruned;
    blocks_skipped += o.blocks_skipped;
    candidates += o.candidates;
  }
};

// Every per-layer figure a traced run reports. The list is the same on
// every workload; a layer a workload does not exercise reads 0.
struct LayerFigures {
  LayerAgg topk;
  double predict_ns = 0;
  double build_s = 0;
  double model_mb = 0;
  double refresh_pct = 0;
  double rows_per_refresh = 0;
  double bulk_rows_s = 0;
  double wal_bytes_per_write = 0;
  double wal_commits_per_write = 0;
  double pool_hit_ratio = 0;
  double router_overhead_pct = 0;
  double legs_per_query = 0;
  double rows_merged_per_row = 0;
  double engine_trace_overhead_pct = 0;
  double bench_trace_overhead_pct = 0;
};

// The storage and serving figures: deltas of registry counters over the
// window. They read 0 on a workload that does not exercise the layer.
void CounterFigures(const recdb::obs::MetricsSnapshot& before,
                    const recdb::obs::MetricsSnapshot& after, size_t writes,
                    LayerFigures* f) {
  using C = recdb::obs::Counter;
  auto delta = [&](C c) { return static_cast<double>(Delta(before, after, c)); };
  f->wal_bytes_per_write = Ratio(delta(C::kWalBytesAppended), writes);
  f->wal_commits_per_write = Ratio(delta(C::kWalCommits), writes);
  const double hits = delta(C::kBufferPoolHits);
  f->pool_hit_ratio = Ratio(hits, hits + delta(C::kBufferPoolMisses));
  f->legs_per_query =
      Ratio(delta(C::kServingFanoutLegs), delta(C::kServingScatterQueries) +
                                              delta(C::kServingSingleShardQueries));
  f->rows_merged_per_row =
      Ratio(delta(C::kServingRowsMerged), delta(C::kServingRowsEmitted));
}

std::vector<Metric> LayerMetrics(const LayerFigures& f) {
  const LayerAgg& t = f.topk;
  return {
      {"parser.parse_us.topk", "us", Median(t.parse_us)},
      {"planner.plan_us.topk", "us", Median(t.plan_us)},
      {"planner.pruned_plan_frac.topk", "ratio", Ratio(t.pruned, t.n)},
      {"execution.drain_us.topk", "us", Median(t.drain_us)},
      {"execution.predictions_per_row.topk", "ratio",
       Ratio(t.predictions, t.rows)},
      {"execution.items_pruned_frac.topk", "ratio",
       Ratio(t.items_pruned, t.items_pruned + t.predictions)},
      {"execution.blocks_skipped.topk", "count", Ratio(t.blocks_skipped, t.n)},
      {"index.candidates_per_query.topk", "count", Ratio(t.candidates, t.n)},
      {"api.overhead_us.topk", "us", Median(t.api_us)},
      {"recommender.predict_ns", "ns", f.predict_ns},
      {"recommender.build_s", "s", f.build_s},
      {"recommender.model_mb", "MB", f.model_mb},
      {"recommender.refresh_pct", "%", f.refresh_pct},
      {"recommender.rows_per_refresh", "count", f.rows_per_refresh},
      {"storage.bulk_rows_s", "rows/s", f.bulk_rows_s},
      {"storage.wal_bytes_per_write", "bytes", f.wal_bytes_per_write},
      {"storage.wal_commits_per_write", "count", f.wal_commits_per_write},
      {"storage.pool_hit_ratio", "ratio", f.pool_hit_ratio},
      {"serving.router_overhead_pct.scatter", "%", f.router_overhead_pct},
      {"serving.legs_per_query", "count", f.legs_per_query},
      {"serving.rows_merged_per_row", "ratio", f.rows_merged_per_row},
      {"obs.engine_trace_overhead_pct", "%", f.engine_trace_overhead_pct},
      {"obs.bench_trace_overhead_pct", "%", f.bench_trace_overhead_pct},
  };
}

// Per-class layer figures beyond the common `.topk` set, as info lines.
void LayerInfo(const char* cls, const LayerAgg& a, Report* report) {
  if (a.n == 0) return;
  report->info.push_back(Format(
      "layer %s: n=%zu parser.parse_us=%.2f planner.plan_us=%.2f "
      "execution.drain_us=%.2f api.overhead_us=%.2f "
      "planner.pruned_plan_frac=%.3f execution.predictions_per_row=%.2f "
      "execution.items_pruned_frac=%.3f execution.blocks_skipped=%.2f "
      "index.candidates_per_query=%.1f",
      cls, a.n, Median(a.parse_us), Median(a.plan_us), Median(a.drain_us),
      Median(a.api_us), Ratio(a.pruned, a.n), Ratio(a.predictions, a.rows),
      Ratio(a.items_pruned, a.items_pruned + a.predictions),
      Ratio(a.blocks_skipped, a.n), Ratio(a.candidates, a.n)));
}

// ---------------------------------------------------------------------------
// Timing bookkeeping shared by the workloads.

constexpr int kNumClasses = static_cast<int>(OpClass::kRefresh) + 1;

// Plain per-class latency samples, in µs.
struct Timings {
  std::vector<double> us[kNumClasses];
  const std::vector<double>& operator[](OpClass c) const {
    return us[static_cast<int>(c)];
  }
};

// Ops and wall time spent in untraced (0) and traced (1) blocks.
struct ModeTally {
  size_t ops[2] = {0, 0};
  double wall_s[2] = {0, 0};
  void Merge(const ModeTally& o) {
    for (int m = 0; m < 2; ++m) {
      ops[m] += o.ops[m];
      wall_s[m] += o.wall_s[m];
    }
  }
  // Percent by which tracing from outside slows the closed loop.
  double OverheadPct() const {
    const double plain = Ratio(ops[0], wall_s[0]);
    const double traced = Ratio(ops[1], wall_s[1]);
    return traced > 0 ? (plain / traced - 1) * 100 : 0;
  }
};

// Host-speed normalization. On a shared host a co-tenant can slow this
// process by 1.3-2x for tens of seconds at a time, which moves every
// wall-clock figure of a run alike. The client therefore runs a fixed
// probe (harness.h HostProbeMs: hashing, sorting, allocation, formatting,
// dot products; about 1 ms) between ops every kProbeEveryS. Each op's time
// is scaled by kReferenceProbeMs over the median of the probes within
// kProbeWindowS of it, and each set-up by the probes bracketing it: every
// figure reads as its value on a host where the probe takes exactly 1 ms.
// Raw wall-clock figures are printed beside them.
constexpr double kReferenceProbeMs = 1.0;
constexpr double kProbeEveryS = 0.05;
// Ops are scaled by the probes within this many seconds of their start.
constexpr double kProbeWindowS = 0.5;

// Scale factor for times measured next to `probes_ms`.
double SpeedScale(const std::vector<double>& probes_ms) {
  const double median = Median(probes_ms);
  return median > 0 ? kReferenceProbeMs / median : 1;
}

// The probe summary and the raw wall-clock end-to-end figures.
void SpeedInfo(const std::vector<double>& probes_ms, const Timings& raw,
               double raw_throughput, Report* report) {
  report->info.push_back(Format(
      "host speed: %zu probes, median %.4f ms (p10 %.4f, p90 %.4f); times "
      "scaled by %.4f to the 1 ms reference",
      probes_ms.size(), Median(probes_ms), Percentile(probes_ms, 10),
      Percentile(probes_ms, 90), SpeedScale(probes_ms)));
  report->info.push_back(Format(
      "raw wall clock: topk_p50_us=%.3f throughput_ops_s=%.3f",
      Median(raw[OpClass::kTopk]), raw_throughput));
}

// One closed-loop client and the per-class latencies of its ops.
class Client {
 public:
  // Issues op(i, traced) for the scheduled ops until `seconds` pass; with
  // `trace`, every other kTraceBlockS block runs its ops traced.
  void Drive(double start_s, double seconds, size_t max_ops, bool trace,
             const std::function<void(size_t, bool)>& op) {
    double last_probe = -1e300;
    loop_ = RunClosedLoop(kClock, start_s, seconds, max_ops, [&](size_t i) {
      if (kClock.Now() - last_probe >= kProbeEveryS) {
        probe_ms_.push_back(HostProbeMs(kClock));
        last_probe = kClock.Now();
        probe_t_.push_back(last_probe);
      }
      const double t0 = kClock.Now();
      const bool traced =
          trace && static_cast<int64_t>((t0 - start_s) / kTraceBlockS) % 2 == 1;
      op_t_ = t0;
      op(i, traced);
      const double wall = kClock.Now() - t0;
      ops_.push_back({t0, wall});
      ++tally_.ops[traced];
      tally_.wall_s[traced] += wall;
      return true;
    });
  }

  // Latency of the op in flight.
  void Record(OpClass c, double us) {
    samples_[static_cast<int>(c)].push_back({op_t_, us});
  }

  // Latencies, each scaled by the host speed around the time it ran.
  void AddTimings(Timings* out) const {
    for (int c = 0; c < kNumClasses; ++c) {
      for (const auto& op : samples_[c]) {
        out->us[c].push_back(op.value * LocalScale(op.t));
      }
    }
  }
  // Completed ops over the window's speed-scaled op time.
  double ScaledThroughput() const {
    double scaled_s = 0;
    for (const auto& op : ops_) scaled_s += op.value * LocalScale(op.t);
    return Ratio(ops_.size(), scaled_s);
  }
  double RawThroughput() const {
    return perfbench::Throughput(loop_.completed, loop_.start_s, loop_.end_s);
  }
  void AddRawTimings(Timings* out) const {
    for (int c = 0; c < kNumClasses; ++c) {
      for (const auto& op : samples_[c]) out->us[c].push_back(op.value);
    }
  }

  const LoopResult& loop() const { return loop_; }
  const ModeTally& tally() const { return tally_; }
  const std::vector<double>& probe_ms() const { return probe_ms_; }

 private:
  struct Timed {
    double t;      // start, in seconds on kClock
    double value;  // µs for a sample, seconds for an op's loop time
  };

  // kReferenceProbeMs over the median of the probes within
  // kProbeWindowS of `t`.
  double LocalScale(double t) const {
    const auto lo = std::lower_bound(probe_t_.begin(), probe_t_.end(),
                                     t - kProbeWindowS);
    const auto hi = std::upper_bound(lo, probe_t_.end(), t + kProbeWindowS);
    std::vector<double> near(probe_ms_.begin() + (lo - probe_t_.begin()),
                             probe_ms_.begin() + (hi - probe_t_.begin()));
    return SpeedScale(near.empty() ? probe_ms_ : near);
  }

  std::vector<double> probe_ms_, probe_t_;
  double op_t_ = 0;
  std::vector<Timed> samples_[kNumClasses];
  std::vector<Timed> ops_;
  LoopResult loop_;
  ModeTally tally_;
};

// Wall time of each phase of a run, as one info line.
class Phases {
 public:
  void Mark(const char* phase) {
    const double now = kClock.Now();
    line_ += Format(" %s=%.2fs", phase, now - last_);
    last_ = now;
  }
  std::string Line() const { return "phases:" + line_; }

 private:
  double last_ = kClock.Now();
  std::string line_;
};

template <class F>
double TimeUs(F&& f) {
  const double t0 = kClock.Now();
  f();
  return (kClock.Now() - t0) * 1e6;
}

// Median over a panel of SELECTs of Execute time under `SET trace = on`
// relative to off, alternating so drift cancels.
template <class Db>
double EngineTraceOverheadPct(Db* db, const std::vector<std::string>& panel) {
  std::vector<double> off, on;
  for (int rep = 0; rep < 3; ++rep) {
    for (int traced = 0; traced < 2; ++traced) {
      Must(db->Execute(traced ? "SET trace = on" : "SET trace = off").status(),
           "SET trace");
      for (const auto& sql : panel) {
        const double us =
            TimeUs([&] { Must(db->Execute(sql).status(), "trace panel"); });
        (traced ? on : off).push_back(us);
      }
    }
  }
  Must(db->Execute("SET trace = off").status(), "SET trace");
  return (Median(on) / Median(off) - 1) * 100;
}

// ns per prediction of RecModel::PredictBatch over each panel user's unrated
// items (median over the panel, after one untimed pass).
double PredictNs(const recdb::RecModel& model,
                 const std::vector<std::pair<int64_t, std::vector<int64_t>>>&
                     user_items) {
  std::vector<double> ns;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [user, items] : user_items) {
      std::vector<double> out(items.size());
      const double us = TimeUs([&] { model.PredictBatch(user, items, out); });
      if (pass == 1 && !items.empty()) ns.push_back(us * 1e3 / items.size());
    }
  }
  return Median(ns);
}

std::vector<int64_t> Unrated(const std::vector<int64_t>& rated_sorted,
                             int64_t num_items) {
  std::vector<int64_t> out;
  for (int64_t i = 1; i <= num_items; ++i) {
    if (!std::binary_search(rated_sorted.begin(), rated_sorted.end(), i)) {
      out.push_back(i);
    }
  }
  return out;
}

// Set-up figures of every repetition, each scaled by the host speed
// measured right before and after it (see ProbeBracket).
struct SetupTimes {
  std::vector<double> setup_s, build_s, bulk_rows_s, raw_setup_s;

  void Add(double setup, double build, double bulk_rows_s, double scale) {
    raw_setup_s.push_back(setup);
    setup_s.push_back(setup * scale);
    build_s.push_back(build * scale);
    this->bulk_rows_s.push_back(bulk_rows_s / scale);
  }

  void Info(Report* report) const {
    std::string all;
    for (double v : raw_setup_s) {
      if (!all.empty()) all += ' ';
      all += FormatNumber(v);
    }
    report->info.push_back(Format(
        "setup: reps=%zu raw wall clock setup_s=[%s] median %.4f; scaled "
        "median %.4f, build_s %.4f",
        setup_s.size(), all.c_str(), Median(raw_setup_s), Median(setup_s),
        Median(build_s)));
  }
};

// Scale factor for a stretch of work outside the window (one set-up): from
// probes taken right before and right after it.
class ProbeBracket {
 public:
  ProbeBracket() { Probe(); }
  double Close() {
    Probe();
    return SpeedScale(probes_);
  }

 private:
  void Probe() {
    for (int k = 0; k < 3; ++k) probes_.push_back(HostProbeMs(kClock));
  }
  std::vector<double> probes_;
};

// Per-class figures as `# metric` lines.
void ClassInfo(const Timings& lat, Report* report) {
  for (int c = 0; c < kNumClasses; ++c) {
    const auto& v = lat.us[c];
    if (v.empty()) continue;
    const auto cls = static_cast<OpClass>(c);
    const char* name = OpClassName(cls);
    if (cls == OpClass::kGlobal || cls == OpClass::kRefresh) {
      report->info.push_back(Format("metric %s_ms = %.4f ms (median, n=%zu)",
                                    cls == OpClass::kGlobal ? "global_topk"
                                                            : "refresh",
                                    Median(v) / 1e3, v.size()));
      continue;
    }
    report->info.push_back(
        Format("metric %s_p50_us = %.3f us (n=%zu)", name, Median(v), v.size()));
    const double tail = TailPercentileFor(v.size());
    if (tail > 50) {
      report->info.push_back(Format(
          "metric %s_p%s_us = %.3f us (n=%zu, %zu samples beyond)", name,
          FormatNumber(tail).c_str(), Percentile(v, tail), v.size(),
          SamplesBeyond(v.size(), tail)));
    }
  }
}

void Stamp(const RunConfig& cfg, const std::string& dataset, size_t clients,
           const char* flush_policy, Report* report) {
  report->info.push_back(Format(
      "stamp: workload=%s seed=%llu git_sha=%s src_digest=%s nproc=%ld "
      "dataset=%s scheduler_parallelism=1 clients=%zu trace=%d seconds=%s "
      "flush_policy=\"%s\"",
      cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.git_sha.empty() ? "unknown" : cfg.git_sha.c_str(),
      cfg.src_digest.empty() ? "unknown" : cfg.src_digest.c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), dataset.c_str(), clients,
      cfg.trace ? 1 : 0, FormatNumber(cfg.seconds).c_str(), flush_policy));
}

void EndToEnd(double setup_s, const Timings& lat, double throughput,
              double peak_rss_mb, Report* report) {
  report->metrics = {
      {"setup_s", "s", setup_s},
      {"topk_p50_us", "us", Median(lat[OpClass::kTopk])},
      {"throughput_ops_s", "1/s", throughput},
      {"peak_rss_mb", "MB", peak_rss_mb},
  };
}

void ErrorRate(Report* report) {
  report->info.push_back(
      Format("metric error_rate = %s (failed %llu of %llu attempted)",
             FormatNumber(Ratio(report->failed, report->attempted)).c_str(),
             static_cast<unsigned long long>(report->failed),
             static_cast<unsigned long long>(report->attempted)));
}

// Schedule capacity: far more ops than any plausible engine completes in
// the window, so the window, not the schedule, ends the run.
size_t Capacity(double seconds, size_t ops_per_s) {
  return static_cast<size_t>(seconds * static_cast<double>(ops_per_s)) + 1000;
}

// ---------------------------------------------------------------------------
// MovieLens-100K preset (ml-read, ml-ingest).

struct MlInputs {
  recdb::datagen::DatasetSpec spec;
  std::vector<std::vector<Value>> users, items, ratings;
  std::vector<std::vector<int64_t>> rated;  // by uid, sorted item ids
  std::vector<int64_t> by_activity;         // uids, most ratings first
};

std::vector<std::vector<Value>> TableRows(RecDB* db, const std::string& table) {
  auto rs = Must(db->Execute("SELECT * FROM " + table), "read " + table);
  std::vector<std::vector<Value>> rows;
  rows.reserve(rs.rows.size());
  for (auto& t : rs.rows) rows.push_back(std::move(t.values()));
  return rows;
}

std::vector<int64_t> ByActivity(const std::vector<std::vector<int64_t>>& rated) {
  std::vector<int64_t> uids;
  for (size_t u = 1; u < rated.size(); ++u) uids.push_back(static_cast<int64_t>(u));
  std::stable_sort(uids.begin(), uids.end(), [&](int64_t a, int64_t b) {
    return rated[a].size() > rated[b].size();
  });
  return uids;
}

// The preset is generated into a scratch engine and read back as rows, so
// set-up below times only loading them, not generating them.
MlInputs GenerateMl() {
  MlInputs in;
  in.spec = recdb::datagen::DatasetSpec::MovieLens100K();
  {
    RecDB scratch;
    auto ds = Must(recdb::datagen::LoadDataset(&scratch, in.spec), "datagen");
    in.users = TableRows(&scratch, ds.users_table);
    in.items = TableRows(&scratch, ds.items_table);
    in.ratings = TableRows(&scratch, ds.ratings_table);
  }
  in.rated.resize(in.spec.num_users + 1);
  for (const auto& r : in.ratings) in.rated[r[0].AsInt()].push_back(r[1].AsInt());
  for (auto& v : in.rated) std::sort(v.begin(), v.end());
  in.by_activity = ByActivity(in.rated);
  return in;
}

std::string MlDataset(const MlInputs& in) {
  return Format("movielens100k(%lldx%lldx%zu)",
                static_cast<long long>(in.spec.num_users),
                static_cast<long long>(in.spec.num_items), in.ratings.size());
}

std::unique_ptr<RecDB> SetupMl(const MlInputs& in, const char* algo,
                               bool with_wal, SetupTimes* times) {
  recdb::RecDBOptions opts;
  opts.parallelism = 1;
  ProbeBracket bracket;
  const double t0 = kClock.Now();
  std::unique_ptr<RecDB> db;
  if (with_wal) {
    db = Must(RecDB::OpenWithDisks(
                  std::make_unique<recdb::InMemoryDiskManager>(),
                  std::make_unique<recdb::InMemoryDiskManager>(), opts),
              "open");
  } else {
    db = std::make_unique<RecDB>(opts);
  }
  for (const char* ddl :
       {"CREATE TABLE ml_users (uid INT, name TEXT, city TEXT, age INT)",
        "CREATE TABLE ml_items (iid INT, name TEXT, genre TEXT, director TEXT)",
        "CREATE TABLE ml_ratings (uid INT, iid INT, ratingval DOUBLE)"}) {
    Must(db->Execute(ddl).status(), ddl);
  }
  const double tb = kClock.Now();
  Must(db->BulkInsert("ml_users", in.users), "load users");
  Must(db->BulkInsert("ml_items", in.items), "load items");
  Must(db->BulkInsert("ml_ratings", in.ratings), "load ratings");
  const double tr = kClock.Now();
  Must(db->Execute(std::string("CREATE RECOMMENDER MLRec ON ml_ratings USERS "
                               "FROM uid ITEMS FROM iid RATINGS FROM "
                               "ratingval USING ") +
                   algo)
           .status(),
       "create recommender");
  const double ta = kClock.Now();
  Must(db->Execute("ANALYZE").status(), "analyze");
  const double t1 = kClock.Now();
  times->Add(t1 - t0, ta - tr,
             (in.users.size() + in.items.size() + in.ratings.size()) / (tr - tb),
             bracket.Close());
  return db;
}

std::unique_ptr<RecDB> RepeatSetupMl(const MlInputs& in, const char* algo,
                                     bool with_wal, SetupTimes* times) {
  std::unique_ptr<RecDB> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    db = SetupMl(in, algo, with_wal, times);
  }
  return db;
}

std::string RecommendSql(const char* table, const char* algo) {
  return Format("SELECT R.uid, R.iid, R.ratingval FROM %s AS R RECOMMEND R.iid "
                "TO R.uid ON R.ratingval USING %s",
                table, algo);
}

std::string TopkSql(const char* table, const char* algo, int64_t user) {
  return RecommendSql(table, algo) +
         Format(" WHERE R.uid = %lld ORDER BY R.ratingval DESC LIMIT %zu",
                static_cast<long long>(user), kTopK);
}

std::string InList(const std::vector<int64_t>& ids) {
  std::string s = "(";
  for (size_t k = 0; k < ids.size(); ++k) {
    s += (k ? ", " : "") + std::to_string(ids[k]);
  }
  return s + ")";
}

double ModelMb(RecDB* db, const std::string& recommender) {
  auto* rec = Must(db->GetRecommender(recommender), "recommender");
  return static_cast<double>(rec->model()->ApproxBytes()) / 1e6;
}

// kPanelUsers users spread evenly over the activity ranking.
std::vector<int64_t> PanelUsers(const std::vector<int64_t>& by_activity) {
  std::vector<int64_t> users;
  const size_t step = std::max<size_t>(1, by_activity.size() / kPanelUsers);
  for (size_t k = 0; k < kPanelUsers && k * step < by_activity.size(); ++k) {
    users.push_back(by_activity[k * step]);
  }
  return users;
}

// The panel users with their unrated items, for PredictNs.
std::vector<std::pair<int64_t, std::vector<int64_t>>> PredictPanel(
    const std::vector<std::vector<int64_t>>& rated,
    const std::vector<int64_t>& by_activity, int64_t num_items) {
  std::vector<std::pair<int64_t, std::vector<int64_t>>> panel;
  for (int64_t u : PanelUsers(by_activity)) {
    panel.emplace_back(u, Unrated(rated[u], num_items));
  }
  return panel;
}

// ---------------------------------------------------------------------------
// ml-read: SVD, no writes. Classes topk / filter / join / global.

Report RunMlRead(const RunConfig& cfg) {
  Report report;
  Phases phases;
  const char* kAlgo = "SVD";
  MlInputs in = GenerateMl();
  Stamp(cfg, MlDataset(in), 1, "none (no writes)", &report);

  // Query pool: one topk and one join per user, one global, a pool of
  // filter queries (user + 1% of the catalog). Ops name pool entries.
  struct Query {
    OpClass cls;
    std::string sql;
    Shape shape;
  };
  std::vector<Query> pool;
  std::vector<uint32_t> topk_of(in.spec.num_users + 1, UINT32_MAX),
      join_of(in.spec.num_users + 1, UINT32_MAX);
  auto topk_query = [&](int64_t u) {
    if (topk_of[u] == UINT32_MAX) {
      topk_of[u] = pool.size();
      pool.push_back({OpClass::kTopk, TopkSql("ml_ratings", kAlgo, u),
                      Shape{kTopK, 0, {u}, true}});
    }
    return topk_of[u];
  };
  auto join_query = [&](int64_t u) {
    if (join_of[u] == UINT32_MAX) {
      join_of[u] = pool.size();
      pool.push_back(
          {OpClass::kJoin,
           Format("SELECT R.uid, M.name, R.ratingval FROM ml_ratings AS R, "
                  "ml_items AS M RECOMMEND R.iid TO R.uid ON R.ratingval USING "
                  "%s WHERE R.uid = %lld AND M.iid = R.iid AND M.genre = "
                  "'Action'",
                  kAlgo, static_cast<long long>(u)),
           Shape{in.items.size(), 0, {u}, false}});
    }
    return join_of[u];
  };
  const size_t filter_items =
      std::max<size_t>(1, static_cast<size_t>(in.spec.num_items) / 100);
  auto filter_query = [&](int64_t u, Rng& rng) {
    std::vector<int64_t> items;
    std::unordered_set<int64_t> taken;
    while (items.size() < filter_items) {
      const int64_t i = 1 + static_cast<int64_t>(rng.Below(in.spec.num_items));
      if (taken.insert(i).second) items.push_back(i);
    }
    std::sort(items.begin(), items.end());
    pool.push_back({OpClass::kFilter,
                    RecommendSql("ml_ratings", kAlgo) +
                        Format(" WHERE R.uid = %lld AND R.iid IN ",
                               static_cast<long long>(u)) +
                        InList(items),
                    Shape{filter_items, 0, {u}, false}});
    return static_cast<uint32_t>(pool.size() - 1);
  };
  const uint32_t global_q = pool.size();
  pool.push_back({OpClass::kGlobal,
                  RecommendSql("ml_ratings", kAlgo) +
                      Format(" ORDER BY R.ratingval DESC LIMIT %zu", kTopK),
                  Shape{kTopK, kTopK, {}, true}});

  const Zipf user_zipf(in.by_activity.size(), 0.8);
  auto make_ops = [&](uint64_t seed, size_t n) {
    const auto classes = MakeClassSequence(
        seed, {{OpClass::kTopk, 50}, {OpClass::kFilter, 25},
               {OpClass::kJoin, 23}, {OpClass::kGlobal, 2}},
        n);
    Rng rng(seed ^ 0x5eedull);
    std::vector<uint32_t> ops;
    ops.reserve(n);
    for (OpClass cls : classes) {
      const int64_t u = in.by_activity[user_zipf.Sample(rng)];
      switch (cls) {
        case OpClass::kTopk: ops.push_back(topk_query(u)); break;
        case OpClass::kJoin: ops.push_back(join_query(u)); break;
        case OpClass::kFilter: ops.push_back(filter_query(u, rng)); break;
        default: ops.push_back(global_q); break;
      }
    }
    return ops;
  };
  const std::vector<uint32_t> warmup = make_ops(cfg.seed * 2 + 1, 300);
  const std::vector<uint32_t> ops = make_ops(cfg.seed * 2, Capacity(cfg.seconds, 2000));

  phases.Mark("generate");
  SetupTimes setup;
  auto db = RepeatSetupMl(in, kAlgo, false, &setup);
  setup.Info(&report);
  phases.Mark("setup");
  for (uint32_t q : warmup) Must(db->Execute(pool[q].sql).status(), "warm-up");
  phases.Mark("warmup");

  // Timed window. Each pool entry's first answer is kept; every later run
  // must reproduce it bit for bit, and after the window it is checked
  // against the exact (unpruned, rule-only) plan.
  std::vector<uint64_t> first_sum(pool.size(), 0), runs(pool.size(), 0),
      matched(pool.size(), 0);
  Client client;
  LayerAgg layers[kNumClasses];
  const auto before = Snapshot();
  client.Drive(kClock.Now(), cfg.seconds, ops.size(), cfg.trace, [&](size_t i, bool traced) {
        const Query& q = pool[ops[i]];
        recdb::Result<ResultSet> r = recdb::Status::OK();
        const double us = TimeUs([&] { r = db->Execute(q.sql); });
        if (!r.ok() || !ShapeOk(q.shape, r.value())) {
          ++report.failed;
          return;
        }
        client.Record(q.cls, us);
        const uint64_t sum = Checksum(r.value());
        if (runs[ops[i]]++ == 0) first_sum[ops[i]] = sum;
        if (sum == first_sum[ops[i]]) {
          ++matched[ops[i]];
        } else {
          ++report.failed;
        }
        if (traced) {
          auto s = ProbeLayers(db.get(), q.sql);
          if (!s.ok()) {
            ++report.failed;
            return;
          }
          layers[static_cast<int>(q.cls)].Add(s.value(), us);
        }
      });
  const double peak_rss = PeakRssMb();
  phases.Mark("window");
  const auto after = Snapshot();
  const LoopResult& loop = client.loop();
  report.attempted += loop.completed;
  const double scale = SpeedScale(client.probe_ms());
  Timings lat, raw;
  client.AddTimings(&lat);
  client.AddRawTimings(&raw);
  SpeedInfo(client.probe_ms(), raw, client.RawThroughput(), &report);

  // Correctness gate: pruned == exact (DESIGN.md §13) on every pool entry
  // the window ran, plus a fixed panel of users.
  std::vector<uint32_t> panel;
  for (int64_t u : PanelUsers(in.by_activity)) {
    panel.push_back(topk_query(u));
    panel.push_back(join_query(u));
  }
  panel.push_back(global_q);
  std::vector<uint64_t> panel_default;
  for (uint32_t q : panel) {
    panel_default.push_back(
        Checksum(Must(db->Execute(pool[q].sql), "panel default")));
  }
  recdb::PlannerOptions* popts = db->mutable_planner_options();
  const recdb::PlannerOptions saved = *popts;
  popts->enable_pruned_topn = false;
  popts->enable_cost_based = false;
  size_t verified = 0, mismatched = 0;
  for (uint32_t q = 0; q < runs.size(); ++q) {
    if (runs[q] == 0) continue;
    ++verified;
    const uint64_t exact = Checksum(Must(db->Execute(pool[q].sql), "exact"));
    if (exact != first_sum[q]) {
      ++mismatched;
      report.failed += matched[q];
    }
  }
  size_t panel_bad = 0;
  for (size_t k = 0; k < panel.size(); ++k) {
    const uint64_t exact =
        Checksum(Must(db->Execute(pool[panel[k]].sql), "panel exact"));
    if (exact != panel_default[k]) ++panel_bad;
  }
  *popts = saved;
  report.attempted += panel.size();
  report.failed += panel_bad;
  report.info.push_back(Format(
      "gate pruned==exact: %zu distinct queries run in the window checked, %zu "
      "differ; fixed panel %zu queries, %zu differ",
      verified, mismatched, panel.size(), panel_bad));

  phases.Mark("gate");
  if (!cfg.trace) {
    EndToEnd(Median(setup.setup_s), lat, client.ScaledThroughput(),
             peak_rss, &report);
  } else {
    for (auto& l : layers) l.Scale(scale);
    LayerFigures f;
    f.topk = layers[static_cast<int>(OpClass::kTopk)];
    f.predict_ns = scale * PredictNs(
        *Must(db->GetRecommender("MLRec"), "rec")->model(),
        PredictPanel(in.rated, in.by_activity, in.spec.num_items));
    f.build_s = Median(setup.build_s);
    f.model_mb = ModelMb(db.get(), "MLRec");
    f.bulk_rows_s = Median(setup.bulk_rows_s);
    CounterFigures(before, after, 0, &f);
    std::vector<std::string> trace_panel;
    for (int64_t u : PanelUsers(in.by_activity)) {
      trace_panel.push_back(pool[topk_query(u)].sql);
    }
    f.engine_trace_overhead_pct = EngineTraceOverheadPct(db.get(), trace_panel);
    f.bench_trace_overhead_pct = client.tally().OverheadPct();
    report.metrics = LayerMetrics(f);
    for (OpClass c : {OpClass::kTopk, OpClass::kFilter, OpClass::kJoin,
                      OpClass::kGlobal}) {
      LayerInfo(OpClassName(c), layers[static_cast<int>(c)], &report);
    }
  }
  ClassInfo(lat, &report);
  report.info.push_back(Format("window: %zu ops in %.3f s",
                               loop.completed, loop.end_s - loop.start_s));
  phases.Mark("report");
  report.info.push_back(phases.Line());
  ErrorRate(&report);
  return report;
}

// ---------------------------------------------------------------------------
// ml-ingest: ItemCosCF over a WAL on in-memory devices. Each write inserts a
// new rating, the next op reads that user's Top-10 through the delta
// overlay, and every kRefreshEvery writes the benchmark refreshes.

constexpr size_t kRefreshEvery = 100;

Report RunMlIngest(const RunConfig& cfg) {
  Report report;
  Phases phases;
  const char* kAlgo = "ItemCosCF";
  MlInputs in = GenerateMl();
  const char* kFlush =
      "WAL group commit per statement on InMemoryDiskManager devices; "
      "sync is a no-op, no fsync";
  Stamp(cfg, MlDataset(in), 1, kFlush, &report);

  struct Write {
    int64_t user, item;
    std::string sql;
  };
  struct Op {
    OpClass cls;
    uint32_t write;  // the write this op follows
  };
  const Zipf user_zipf(in.by_activity.size(), 0.8);
  std::vector<std::string> topk_sql(in.spec.num_users + 1);
  for (int64_t u = 1; u <= in.spec.num_users; ++u) {
    topk_sql[u] = TopkSql("ml_ratings", kAlgo, u);
  }
  std::vector<Write> writes;
  std::vector<Op> ops;
  {
    const size_t n_writes = Capacity(cfg.seconds, 1000);
    Rng rng(cfg.seed * 2);
    std::unordered_set<int64_t> pairs;  // u * (items + 1) + i, rated or written
    std::vector<int64_t> used(in.spec.num_users + 1, 0);
    for (const auto& r : in.ratings) {
      pairs.insert(r[0].AsInt() * (in.spec.num_items + 1) + r[1].AsInt());
      ++used[r[0].AsInt()];
    }
    for (size_t w = 0; w < n_writes; ++w) {
      int64_t u;
      do {  // the most active users can run out of unrated items
        u = in.by_activity[user_zipf.Sample(rng)];
      } while (used[u] >= in.spec.num_items);
      ++used[u];
      int64_t i;
      do {
        i = 1 + static_cast<int64_t>(rng.Below(in.spec.num_items));
      } while (!pairs.insert(u * (in.spec.num_items + 1) + i).second);
      const double rating = 1.0 + 0.5 * static_cast<double>(rng.Below(9));
      writes.push_back({u, i,
                        Format("INSERT INTO ml_ratings VALUES (%lld, %lld, %.1f)",
                               static_cast<long long>(u),
                               static_cast<long long>(i), rating)});
      ops.push_back({OpClass::kWrite, static_cast<uint32_t>(w)});
      ops.push_back({OpClass::kTopk, static_cast<uint32_t>(w)});
      if ((w + 1) % kRefreshEvery == 0) {
        ops.push_back({OpClass::kRefresh, static_cast<uint32_t>(w)});
      }
    }
  }
  std::vector<uint32_t> warmup;  // reads only: writes would change the data
  {
    Rng rng(cfg.seed * 2 + 1);
    for (int k = 0; k < 40; ++k) {
      warmup.push_back(static_cast<uint32_t>(in.by_activity[user_zipf.Sample(rng)]));
    }
  }

  phases.Mark("generate");
  SetupTimes setup;
  auto db = RepeatSetupMl(in, kAlgo, true, &setup);
  setup.Info(&report);
  phases.Mark("setup");
  const double model_mb = ModelMb(db.get(), "MLRec");
  const double predict_ns = PredictNs(
      *Must(db->GetRecommender("MLRec"), "rec")->model(),
      PredictPanel(in.rated, in.by_activity, in.spec.num_items));
  for (uint32_t u : warmup) Must(db->Execute(topk_sql[u]).status(), "warm-up");
  phases.Mark("warmup");

  Client client;
  LayerAgg topk_layers;
  std::vector<double> write_parse_us;
  size_t writes_done = 0, refreshes = 0;
  double refresh_s = 0;
  const auto before = Snapshot();
  client.Drive(kClock.Now(), cfg.seconds, ops.size(), cfg.trace, [&](size_t i, bool traced) {
        const Op& op = ops[i];
        const Write& w = writes[op.write];
        if (op.cls == OpClass::kWrite) {
          recdb::Result<ResultSet> r = recdb::Status::OK();
          const double us = TimeUs([&] { r = db->Execute(w.sql); });
          ++writes_done;
          if (!r.ok()) {
            ++report.failed;
            return;
          }
          client.Record(OpClass::kWrite, us);
          if (traced) {
            write_parse_us.push_back(
                TimeUs([&] { Must(recdb::Parser::Parse(w.sql).status(), "parse"); }));
          }
        } else if (op.cls == OpClass::kTopk) {
          recdb::Result<ResultSet> r = recdb::Status::OK();
          const double us = TimeUs([&] { r = db->Execute(topk_sql[w.user]); });
          // Read-your-write: the item just rated is no longer a candidate.
          bool ok = r.ok() && ShapeOk(Shape{kTopK, 0, {w.user}, true}, r.value());
          if (ok) {
            for (const auto& row : r.value().rows) {
              if (row.At(1).AsInt() == w.item) ok = false;
            }
          }
          if (!ok) {
            ++report.failed;
            return;
          }
          client.Record(OpClass::kTopk, us);
          if (traced) {
            auto s = ProbeLayers(db.get(), topk_sql[w.user]);
            if (!s.ok()) {
              ++report.failed;
              return;
            }
            topk_layers.Add(s.value(), us);
          }
        } else {
          recdb::Result<bool> r = false;
          const double us = TimeUs([&] { r = db->RefreshRecommender("MLRec"); });
          ++refreshes;
          refresh_s += us / 1e6;
          if (!r.ok() || !r.value()) {
            ++report.failed;
            return;
          }
          client.Record(OpClass::kRefresh, us);
        }
      });
  const double peak_rss = PeakRssMb();
  phases.Mark("window");
  const auto after = Snapshot();
  const LoopResult& loop = client.loop();
  report.attempted += loop.completed;
  const double scale = SpeedScale(client.probe_ms());
  Timings lat, raw;
  client.AddTimings(&lat);
  client.AddRawTimings(&raw);
  SpeedInfo(client.probe_ms(), raw, client.RawThroughput(), &report);

  // Correctness gate: incremental == scratch (DESIGN.md §12). After a final
  // refresh, the panel's Top-10 must equal, bit for bit, that of a model
  // trained from scratch on the final table in the same row order.
  Must(db->RefreshRecommender("MLRec").status(), "final refresh");
  auto final_rows = TableRows(db.get(), "ml_ratings");
  bool table_ok = final_rows.size() == in.ratings.size() + writes_done;
  auto scratch = std::make_unique<RecDB>();
  Must(scratch->Execute("CREATE TABLE ml_ratings (uid INT, iid INT, ratingval DOUBLE)")
           .status(),
       "scratch table");
  Must(scratch->BulkInsert("ml_ratings", final_rows), "scratch load");
  Must(scratch->Execute(std::string("CREATE RECOMMENDER MLRec ON ml_ratings "
                                    "USERS FROM uid ITEMS FROM iid RATINGS "
                                    "FROM ratingval USING ") +
                        kAlgo)
           .status(),
       "scratch recommender");
  std::vector<int64_t> panel = PanelUsers(in.by_activity);
  for (size_t w = writes_done; w-- > 0 && panel.size() < 2 * kPanelUsers;) {
    if (std::find(panel.begin(), panel.end(), writes[w].user) == panel.end()) {
      panel.push_back(writes[w].user);
    }
  }
  size_t bad = table_ok ? 0 : 1;
  for (int64_t u : panel) {
    const uint64_t live = Checksum(Must(db->Execute(topk_sql[u]), "panel live"));
    const uint64_t fresh =
        Checksum(Must(scratch->Execute(topk_sql[u]), "panel scratch"));
    if (live != fresh) ++bad;
  }
  report.attempted += panel.size() + 1;
  report.failed += bad;
  report.info.push_back(Format(
      "gate incremental==scratch: table rows %s, %zu panel users, %zu differ",
      table_ok ? "match" : "DIFFER", panel.size(), bad - (table_ok ? 0 : 1)));

  phases.Mark("gate");
  if (!cfg.trace) {
    EndToEnd(Median(setup.setup_s), lat, client.ScaledThroughput(),
             peak_rss, &report);
  } else {
    using C = recdb::obs::Counter;
    topk_layers.Scale(scale);
    LayerFigures f;
    f.topk = topk_layers;
    f.predict_ns = predict_ns * scale;
    f.build_s = Median(setup.build_s);
    f.model_mb = model_mb;
    f.refresh_pct = Ratio(refresh_s, loop.end_s - loop.start_s) * 100;
    f.rows_per_refresh =
        Ratio(Delta(before, after, C::kIngestRowUpdates), refreshes);
    f.bulk_rows_s = Median(setup.bulk_rows_s);
    CounterFigures(before, after, writes_done, &f);
    std::vector<std::string> trace_panel;
    for (int64_t u : PanelUsers(in.by_activity)) trace_panel.push_back(topk_sql[u]);
    f.engine_trace_overhead_pct = EngineTraceOverheadPct(db.get(), trace_panel);
    f.bench_trace_overhead_pct = client.tally().OverheadPct();
    report.metrics = LayerMetrics(f);
    LayerInfo("topk", topk_layers, &report);
    report.info.push_back(Format("layer write: n=%zu parser.parse_us=%.2f",
                                 write_parse_us.size(), Median(write_parse_us)));
  }
  ClassInfo(lat, &report);
  report.info.push_back(Format(
      "window: %zu ops (%zu writes, %zu refreshes) in %.3f s", loop.completed,
      writes_done, refreshes, loop.end_s - loop.start_s));
  phases.Mark("report");
  report.info.push_back(phases.Line());
  ErrorRate(&report);
  return report;
}

// ---------------------------------------------------------------------------
// serve-2shard: ShardedRecDB, 2 shards, SVD, 2 closed-loop clients.

constexpr size_t kShards = 2;
constexpr size_t kClients = 2;
constexpr size_t kScatterUsers = 8;

recdb::datagen::DatasetSpec ServeSpec() {
  auto spec = recdb::datagen::DatasetSpec::ServingScale();
  spec.num_users = 40000;
  spec.num_items = 5000;
  spec.num_ratings = 400000;
  return spec;
}

constexpr const char* kServeTable =
    "CREATE TABLE serve_ratings (uid INT, iid INT, ratingval DOUBLE)";
constexpr const char* kServeRec =
    "CREATE RECOMMENDER ServeRec ON serve_ratings USERS FROM uid ITEMS FROM "
    "iid RATINGS FROM ratingval USING SVD";

std::unique_ptr<recdb::ShardedRecDB> SetupServe(
    const std::vector<std::vector<Value>>& rows, SetupTimes* times) {
  recdb::ShardedRecDBOptions opts;
  opts.num_shards = kShards;
  opts.shard_options.parallelism = 1;
  ProbeBracket bracket;
  const double t0 = kClock.Now();
  auto db = Must(recdb::ShardedRecDB::Create(opts), "create router");
  Must(db->Execute(kServeTable).status(), "create table");
  Must(db->DeclarePartitionedTable("serve_ratings", "uid"), "partition");
  const double tb = kClock.Now();
  Must(db->BulkInsert("serve_ratings", rows), "load ratings");
  const double tr = kClock.Now();
  Must(db->Execute(kServeRec).status(), "create recommender");
  const double ta = kClock.Now();
  Must(db->Execute("ANALYZE serve_ratings").status(), "analyze");
  const double t1 = kClock.Now();
  times->Add(t1 - t0, ta - tr, rows.size() / (tr - tb), bracket.Close());
  return db;
}

Report RunServe(const RunConfig& cfg) {
  Report report;
  Phases phases;
  const auto spec = ServeSpec();
  // Inputs are streamed into memory and put in the canonical (uid, iid)
  // order before any clock starts.
  std::vector<recdb::datagen::RatingRow> gen;
  Must(recdb::datagen::StreamRatings(
           spec, 65536,
           [&](const std::vector<recdb::datagen::RatingRow>& chunk) {
             gen.insert(gen.end(), chunk.begin(), chunk.end());
             return recdb::Status::OK();
           }),
       "datagen");
  std::sort(gen.begin(), gen.end(), [](const auto& a, const auto& b) {
    return a.user != b.user ? a.user < b.user : a.item < b.item;
  });
  std::vector<std::vector<Value>> rows;
  rows.reserve(gen.size());
  std::vector<std::vector<int64_t>> rated(spec.num_users + 1);
  for (const auto& r : gen) {
    rows.push_back({Value::Int(r.user), Value::Int(r.item), Value::Double(r.rating)});
    rated[r.user].push_back(r.item);
  }
  gen.clear();
  gen.shrink_to_fit();
  const std::vector<int64_t> by_activity = ByActivity(rated);
  Stamp(cfg,
        Format("servingscale-reduced(%lldx%lldx%zu) shards=%zu",
               static_cast<long long>(spec.num_users),
               static_cast<long long>(spec.num_items), rows.size(), kShards),
        kClients, "in-memory shards without a WAL (no log, no fsync)", &report);

  // Schedule: per client an interleaved class sequence with Zipf users;
  // writes come from one shared list in ticket order, so the set and order
  // of applied writes is known for the gate.
  const Zipf user_zipf(by_activity.size(), 0.8);
  std::vector<std::string> topk_sql(spec.num_users + 1);
  auto topk_of = [&](int64_t u) -> const std::string& {
    if (topk_sql[u].empty()) topk_sql[u] = TopkSql("serve_ratings", "SVD", u);
    return topk_sql[u];
  };
  struct ClientOp {
    OpClass cls;
    int64_t user;         // topk
    uint32_t scatter;     // index into the client's scatter list
  };
  struct Scatter {
    std::string sql;
    Shape shape;
  };
  auto scatter_of = [&](const std::vector<int64_t>& users) {
    Scatter s;
    s.sql = RecommendSql("serve_ratings", "SVD") + " WHERE R.uid IN " +
            InList(users) +
            Format(" ORDER BY R.ratingval DESC LIMIT %zu", kTopK);
    s.shape = Shape{kTopK, 1, std::set<int64_t>(users.begin(), users.end()), true};
    return s;
  };
  auto scatter_users = [&](Rng& rng) {
    std::vector<int64_t> users;
    while (users.size() < kScatterUsers) {
      const int64_t u = by_activity[user_zipf.Sample(rng)];
      if (std::find(users.begin(), users.end(), u) == users.end()) users.push_back(u);
    }
    return users;
  };
  std::vector<std::vector<ClientOp>> client_ops(kClients);
  std::vector<std::vector<Scatter>> client_scatter(kClients);
  size_t total_writes = 0;
  for (size_t c = 0; c < kClients; ++c) {
    const uint64_t seed = cfg.seed * 16 + c;
    const auto classes = MakeClassSequence(
        seed, {{OpClass::kTopk, 70}, {OpClass::kScatter, 25}, {OpClass::kWrite, 5}},
        Capacity(cfg.seconds, 3000));
    Rng rng(seed ^ 0x5eedull);
    for (OpClass cls : classes) {
      ClientOp op{cls, 0, 0};
      if (cls == OpClass::kTopk) {
        op.user = by_activity[user_zipf.Sample(rng)];
        topk_of(op.user);
      } else if (cls == OpClass::kScatter) {
        op.scatter = client_scatter[c].size();
        client_scatter[c].push_back(scatter_of(scatter_users(rng)));
      } else {
        ++total_writes;
      }
      client_ops[c].push_back(op);
    }
  }
  std::vector<std::string> writes;
  {
    Rng rng(cfg.seed * 16 + 15);
    std::unordered_set<int64_t> pairs;
    for (size_t w = 0; w < total_writes; ++w) {
      const int64_t u = by_activity[user_zipf.Sample(rng)];
      int64_t i;
      do {
        i = 1 + static_cast<int64_t>(rng.Below(spec.num_items));
      } while (std::binary_search(rated[u].begin(), rated[u].end(), i) ||
               !pairs.insert(u * (spec.num_items + 1) + i).second);
      writes.push_back(Format("INSERT INTO serve_ratings VALUES (%lld, %lld, %.1f)",
                              static_cast<long long>(u), static_cast<long long>(i),
                              1.0 + 0.5 * static_cast<double>(rng.Below(9))));
    }
  }
  std::vector<std::string> warmup;  // reads only
  {
    Rng rng(cfg.seed * 16 + 14);
    for (int k = 0; k < 200; ++k) {
      warmup.push_back(k % 4 == 3 ? scatter_of(scatter_users(rng)).sql
                                  : topk_of(by_activity[user_zipf.Sample(rng)]));
    }
  }

  phases.Mark("generate");
  SetupTimes setup;
  std::unique_ptr<recdb::ShardedRecDB> db;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    db.reset();
    db = SetupServe(rows, &setup);
  }
  setup.Info(&report);
  phases.Mark("setup");
  double model_mb = 0;
  for (size_t k = 0; k < db->num_shards(); ++k) model_mb += ModelMb(db->shard(k), "ServeRec");
  const double predict_ns = PredictNs(
      *Must(db->shard(0)->GetRecommender("ServeRec"), "rec")->model(),
      PredictPanel(rated, by_activity, spec.num_items));
  for (const auto& sql : warmup) Must(db->Execute(sql).status(), "warm-up");
  phases.Mark("warmup");

  // Traced runs re-run statements against the shards' internals, which
  // must not race the other client's writes: a benchmark-side lock makes
  // writes exclusive while tracing (part of the traced overhead).
  std::shared_mutex trace_mu;
  std::atomic<size_t> next_write{0};
  std::atomic<uint64_t> failed{0};
  struct ClientOut {
    Client client;
    LayerAgg topk_layers;
    std::vector<double> router_topk_us, router_scatter_pct, router_scatter_us;
  };
  std::vector<ClientOut> out(kClients);
  const auto before = Snapshot();
  const double start = kClock.Now();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientOut& o = out[c];
        const auto& my_ops = client_ops[c];
        o.client.Drive(start, cfg.seconds, my_ops.size(), cfg.trace,
                       [&](size_t i, bool traced) {
          const ClientOp& op = my_ops[i];
          if (op.cls == OpClass::kWrite) {
            std::unique_lock<std::shared_mutex> lock(trace_mu, std::defer_lock);
            if (cfg.trace) lock.lock();
            const std::string& sql = writes[next_write.fetch_add(1)];
            recdb::Result<ResultSet> r = recdb::Status::OK();
            const double us = TimeUs([&] { r = db->Execute(sql); });
            if (!r.ok()) {
              ++failed;
              return;
            }
            o.client.Record(OpClass::kWrite, us);
            return;
          }
          std::shared_lock<std::shared_mutex> lock(trace_mu, std::defer_lock);
          if (cfg.trace) lock.lock();
          const bool topk = op.cls == OpClass::kTopk;
          const std::string& sql =
              topk ? topk_sql[op.user] : client_scatter[c][op.scatter].sql;
          const Shape shape =
              topk ? Shape{kTopK, 1, {op.user}, true} : client_scatter[c][op.scatter].shape;
          recdb::Result<ResultSet> r = recdb::Status::OK();
          const double us = TimeUs([&] { r = db->Execute(sql); });
          if (!r.ok() || !ShapeOk(shape, r.value())) {
            ++failed;
            return;
          }
          o.client.Record(op.cls, us);
          if (!traced) return;
          if (topk) {
            // The owning shard alone answers a pinned query.
            RecDB* shard = db->shard(recdb::ShardOfUser(op.user, kShards));
            recdb::Result<ResultSet> leg = recdb::Status::OK();
            const double shard_us = TimeUs([&] { leg = shard->Execute(sql); });
            auto s = ProbeLayers(shard, sql);
            if (!leg.ok() || !s.ok()) {
              ++failed;
              return;
            }
            o.topk_layers.Add(s.value(), shard_us);
            o.router_topk_us.push_back(us - shard_us);
          } else {
            double legs_us = 0;
            for (size_t k = 0; k < db->num_shards(); ++k) {
              recdb::Result<ResultSet> leg = recdb::Status::OK();
              legs_us += TimeUs([&] { leg = db->shard(k)->Execute(sql); });
              if (!leg.ok()) ++failed;
            }
            o.router_scatter_us.push_back(us - legs_us);
            o.router_scatter_pct.push_back((us - legs_us) / us * 100);
          }
        });
      });
    }
    for (auto& t : threads) t.join();
  }
  const double peak_rss = PeakRssMb();
  phases.Mark("window");
  const auto after = Snapshot();
  ClientOut all;
  Timings lat, raw;
  ModeTally tally;
  std::vector<double> probes;
  size_t completed = 0;
  double end = start;
  // Each client's ops are scaled by its own probes: the two client
  // threads run on different cores, which a co-tenant can slow unevenly.
  double throughput = 0;
  for (const auto& o : out) {
    o.client.AddTimings(&lat);
    o.client.AddRawTimings(&raw);
    tally.Merge(o.client.tally());
    probes.insert(probes.end(), o.client.probe_ms().begin(),
                  o.client.probe_ms().end());
    all.topk_layers.Merge(o.topk_layers);
    for (auto [dst, src] :
         {std::pair{&all.router_topk_us, &o.router_topk_us},
          std::pair{&all.router_scatter_pct, &o.router_scatter_pct},
          std::pair{&all.router_scatter_us, &o.router_scatter_us}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    completed += o.client.loop().completed;
    end = std::max(end, o.client.loop().end_s);
    throughput += o.client.ScaledThroughput();
  }
  const double scale = SpeedScale(probes);
  SpeedInfo(probes, raw, Throughput(completed, start, end), &report);
  report.failed += failed.load();
  report.attempted += completed;
  const size_t writes_done = next_write.load();

  // Correctness gate: sharded == single-node (DESIGN.md §14). An unsharded
  // engine loaded with the same rows and the same applied writes must give
  // the same panel answers, bit for bit.
  {
    recdb::RecDBOptions opts;
    opts.parallelism = 1;
    RecDB ref(opts);
    Must(ref.Execute(kServeTable).status(), "reference table");
    Must(ref.BulkInsert("serve_ratings", rows), "reference load");
    Must(ref.Execute(kServeRec).status(), "reference recommender");
    Must(ref.Execute("ANALYZE serve_ratings").status(), "reference analyze");
    for (size_t w = 0; w < writes_done; ++w) {
      Must(ref.Execute(writes[w]).status(), "reference write");
    }
    std::vector<std::string> panel;
    for (int64_t u : PanelUsers(by_activity)) panel.push_back(topk_of(u));
    Rng rng(cfg.seed * 16 + 13);
    for (int k = 0; k < 4; ++k) panel.push_back(scatter_of(scatter_users(rng)).sql);
    Fnv sharded_sum, ref_sum;
    size_t bad = 0;
    for (const auto& sql : panel) {
      const uint64_t a = Checksum(Must(db->Execute(sql), "panel sharded"));
      const uint64_t b = Checksum(Must(ref.Execute(sql), "panel reference"));
      sharded_sum.Add(a);
      ref_sum.Add(b);
      if (a != b) ++bad;
    }
    report.attempted += panel.size();
    report.failed += bad;
    report.info.push_back(Format(
        "gate sharded==single-node: %zu panel queries after %zu writes, %zu "
        "differ, panel checksum sharded=%016llx single=%016llx",
        panel.size(), writes_done, bad,
        static_cast<unsigned long long>(sharded_sum.value()),
        static_cast<unsigned long long>(ref_sum.value())));
  }

  phases.Mark("gate");
  if (!cfg.trace) {
    EndToEnd(Median(setup.setup_s), lat, throughput,
             peak_rss, &report);
  } else {
    all.topk_layers.Scale(scale);
    LayerFigures f;
    f.topk = all.topk_layers;
    f.predict_ns = predict_ns * scale;
    f.build_s = Median(setup.build_s);
    f.model_mb = model_mb;
    f.bulk_rows_s = Median(setup.bulk_rows_s);
    CounterFigures(before, after, writes_done, &f);
    f.router_overhead_pct = Median(all.router_scatter_pct);
    std::vector<std::string> trace_panel;
    for (int64_t u : PanelUsers(by_activity)) trace_panel.push_back(topk_of(u));
    f.engine_trace_overhead_pct = EngineTraceOverheadPct(db.get(), trace_panel);
    f.bench_trace_overhead_pct = tally.OverheadPct();
    report.metrics = LayerMetrics(f);
    LayerInfo("topk (owning shard)", all.topk_layers, &report);
    report.info.push_back(Format(
        "layer serving: serving.router_overhead_us.topk=%.2f (n=%zu) "
        "serving.router_overhead_us.scatter=%.2f (n=%zu)",
        scale * Median(all.router_topk_us), all.router_topk_us.size(),
        scale * Median(all.router_scatter_us), all.router_scatter_us.size()));
  }
  ClassInfo(lat, &report);
  report.info.push_back(Format(
      "window: %zu ops (%zu writes) in %.3f s by %zu clients (%zu + %zu)",
      completed, writes_done, end - start, kClients,
      out[0].client.loop().completed, out[1].client.loop().completed));
  phases.Mark("report");
  report.info.push_back(phases.Line());
  ErrorRate(&report);
  return report;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"ml-read", "ml-ingest",
                                                 "serve-2shard"};
  return names;
}

Report RunWorkload(const RunConfig& config) {
  if (config.workload == "ml-read") return RunMlRead(config);
  if (config.workload == "ml-ingest") return RunMlIngest(config);
  return RunServe(config);
}

}  // namespace perfbench
