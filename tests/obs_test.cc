// Observability tests:
//  - MetricsRegistry: counter/gauge/histogram updates are exact under
//    8-thread concurrent hammering (snapshot totals equal the sums).
//  - Histogram bucket boundaries are upper-inclusive on the 1-2-5 series
//    with a trailing overflow bucket; quantiles interpolate sanely.
//  - Tracer spans nest via the begin/end stack, AttachPlan materializes one
//    span per plan node, and Finish() closes unbalanced spans.
//  - MetricsJson() round-trips through a strict JSON parse and carries the
//    full metric inventory of obs/metric_names.h.
//  - The trace-off executor path and metric update paths allocate nothing
//    (global operator new is instrumented below).
//  - ExecStats commit-on-success: a JoinRecommend outer error mid-window
//    must not leave partially-counted probes behind (re-Init + re-run ends
//    with the same stats as a clean run).
//  - Traced spans add up: every parent span is at least the sum of its
//    children, and Init-phase work (the bounded Top-k) is attributed to
//    its operator.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "api/recdb.h"
#include "common/string_util.h"
#include "datagen/datagen.h"
#include "execution/recommend_executors.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "planner/plan_node.h"

// ------------------------------------------------- allocation instrumentation
//
// Counts every global operator new so the trace-off hot path can assert it
// allocates nothing. Deletes intentionally uncounted — only news matter.

static std::atomic<uint64_t> g_news{0};

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace recdb {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::MetricsRegistry;

// ------------------------------------------------------------ MetricsRegistry

TEST(MetricsRegistryTest, CountersGaugesHistogramsSnapshot) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();
  reg.Add(Counter::kQueryStatements);
  reg.Add(Counter::kQueryStatements, 4);
  reg.GaugeSet(Gauge::kSchedulerThreads, 7);
  reg.GaugeAdd(Gauge::kSchedulerThreads, -2);
  reg.Observe(Histogram::kQueryLatencyUs, 15);
  auto snap = reg.Snapshot();
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kQueryStatements)], 5u);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kSchedulerThreads)], 5);
  const auto& h =
      snap.histograms[static_cast<size_t>(Histogram::kQueryLatencyUs)];
  EXPECT_EQ(h.count, 1u);
  EXPECT_EQ(h.sum_us, 15u);
}

TEST(MetricsRegistryTest, SnapshotIsExactUnderEightThreads) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        reg.Add(Counter::kExecPredictions);
        reg.GaugeAdd(Gauge::kRecIndexEntries, 1);
        reg.Observe(Histogram::kCacheRunUs, i % 7);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto snap = reg.Snapshot();
  constexpr uint64_t kTotal = kThreads * kPerThread;
  EXPECT_EQ(snap.counters[static_cast<size_t>(Counter::kExecPredictions)],
            kTotal);
  EXPECT_EQ(snap.gauges[static_cast<size_t>(Gauge::kRecIndexEntries)],
            static_cast<int64_t>(kTotal));
  const auto& h = snap.histograms[static_cast<size_t>(Histogram::kCacheRunUs)];
  EXPECT_EQ(h.count, kTotal);
  uint64_t bucket_sum = 0;
  for (uint64_t b : h.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, kTotal) << "every observation must land in a bucket";
}

TEST(MetricsRegistryTest, HistogramBucketBoundsAreUpperInclusive) {
  // Exact bound values stay in their bucket; bound+1 rolls into the next.
  for (size_t i = 0; i < obs::kNumHistogramBounds; ++i) {
    EXPECT_EQ(MetricsRegistry::BucketIndex(obs::kHistogramBoundsUs[i]), i)
        << "value " << obs::kHistogramBoundsUs[i]
        << " must land in its own bucket (upper-inclusive)";
    EXPECT_EQ(MetricsRegistry::BucketIndex(obs::kHistogramBoundsUs[i] + 1),
              i + 1);
  }
  EXPECT_EQ(MetricsRegistry::BucketIndex(0), 0u);
  // Everything past the last bound falls into the overflow bucket.
  EXPECT_EQ(MetricsRegistry::BucketIndex(UINT64_MAX),
            obs::kNumHistogramBounds);
}

TEST(MetricsRegistryTest, HistogramQuantilesInterpolate) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();
  // 100 observations of 8us each land in the (5, 10] bucket.
  for (int i = 0; i < 100; ++i) reg.Observe(Histogram::kModelTrainUs, 8);
  auto snap = reg.Snapshot();
  const auto& h = snap.histograms[static_cast<size_t>(Histogram::kModelTrainUs)];
  EXPECT_EQ(h.count, 100u);
  double p50 = h.Quantile(0.5);
  EXPECT_GT(p50, 5.0);
  EXPECT_LE(p50, 10.0);
  EXPECT_LE(h.Quantile(0.1), h.Quantile(0.9));
  // Empty histogram: quantiles degrade to 0.
  EXPECT_EQ(snap.histograms[static_cast<size_t>(Histogram::kQueryLatencyUs)]
                .Quantile(0.5),
            0.0);
}

// ------------------------------------------------------- minimal JSON parser
//
// Just enough JSON (objects, arrays, strings, numbers, bools, null) to prove
// MetricsJson() emits strictly parseable output, with a DOM small enough to
// assert on. Not for production use.

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = kNull;
  bool b = false;
  double num = 0;
  std::string str;
  std::vector<std::pair<std::string, JsonValue>> obj;
  std::vector<JsonValue> arr;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    bool ok = ParseValue(out);
    SkipWs();
    return ok && pos_ == s_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\t' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != c) return false;
    ++pos_;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        if (++pos_ >= s_.size()) return false;
      }
      out->push_back(s_[pos_++]);
    }
    return pos_ < s_.size() && s_[pos_++] == '"';
  }
  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::kObject;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        std::string key;
        SkipWs();
        if (!ParseString(&key) || !Consume(':')) return false;
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->obj.emplace_back(std::move(key), std::move(v));
        if (Consume(',')) continue;
        return Consume('}');
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::kArray;
      SkipWs();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue v;
        if (!ParseValue(&v)) return false;
        out->arr.push_back(std::move(v));
        if (Consume(',')) continue;
        return Consume(']');
      }
    }
    if (c == '"') {
      out->kind = JsonValue::kString;
      return ParseString(&out->str);
    }
    if (s_.compare(pos_, 4, "true") == 0) {
      out->kind = JsonValue::kBool;
      out->b = true;
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      out->kind = JsonValue::kBool;
      pos_ += 5;
      return true;
    }
    if (s_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return true;
    }
    out->kind = JsonValue::kNumber;
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->num = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return true;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

TEST(MetricsRegistryTest, MetricsJsonRoundTripsThroughParse) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.ResetForTest();
  reg.Add(Counter::kBufferPoolHits, 42);
  reg.GaugeSet(Gauge::kBufferPoolResidentPages, 17);
  reg.Observe(Histogram::kQueryLatencyUs, 1234);

  std::string json = RecDB::MetricsJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root)) << "MetricsJson is not valid "
                                             << "JSON:\n"
                                             << json;
  ASSERT_EQ(root.kind, JsonValue::kObject);

  const JsonValue* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->obj.size(), obs::kNumCounters)
      << "every counter in metric_names.h must appear";
  const JsonValue* hits = counters->Find("bufferpool.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->num, 42.0);

  const JsonValue* gauges = root.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->obj.size(), obs::kNumGauges);
  const JsonValue* resident = gauges->Find("bufferpool.resident_pages");
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(resident->num, 17.0);

  const JsonValue* bounds = root.Find("histogram_bounds_us");
  ASSERT_NE(bounds, nullptr);
  EXPECT_EQ(bounds->arr.size(), obs::kNumHistogramBounds);

  const JsonValue* hists = root.Find("histograms");
  ASSERT_NE(hists, nullptr);
  EXPECT_EQ(hists->obj.size(), obs::kNumHistograms);
  const JsonValue* lat = hists->Find("query.latency_us");
  ASSERT_NE(lat, nullptr);
  const JsonValue* count = lat->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->num, 1.0);
  const JsonValue* buckets = lat->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  EXPECT_EQ(buckets->arr.size(), obs::kNumHistogramBuckets);
}

// --------------------------------------------------------------------- Tracer

TEST(TracerTest, SpansNestAndRenderInOrder) {
  obs::Tracer tracer("query");
  int parse = tracer.BeginSpan("parse");
  tracer.EndSpan(parse);
  int exec = tracer.BeginSpan("execute");
  int child = tracer.BeginSpan("child");
  tracer.EndSpan(child);
  tracer.EndSpan(exec);
  tracer.Finish();

  EXPECT_GT(tracer.RootDurationNs(), 0u);
  std::string rendered = tracer.Render();
  // The header line mentions "executor spans" / "children"; search the span
  // body only so those words don't shadow the span names.
  const size_t body = rendered.find('\n');
  ASSERT_NE(body, std::string::npos);
  size_t at_query = rendered.find("query", body);
  size_t at_parse = rendered.find("parse", body);
  size_t at_exec = rendered.find("execute", body);
  size_t at_child = rendered.find("child", body);
  ASSERT_NE(at_query, std::string::npos);
  ASSERT_NE(at_parse, std::string::npos);
  ASSERT_NE(at_exec, std::string::npos);
  ASSERT_NE(at_child, std::string::npos);
  EXPECT_LT(at_query, at_parse);
  EXPECT_LT(at_parse, at_exec);
  EXPECT_LT(at_exec, at_child) << "children render under their parent";
}

TEST(TracerTest, FinishClosesUnbalancedSpans) {
  obs::Tracer tracer("query");
  (void)tracer.BeginSpan("outer");
  (void)tracer.BeginSpan("inner");  // never ended explicitly
  tracer.Finish();
  tracer.Finish();  // idempotent
  EXPECT_GT(tracer.RootDurationNs(), 0u);
  std::string rendered = tracer.Render();
  EXPECT_NE(rendered.find("outer"), std::string::npos);
  EXPECT_NE(rendered.find("inner"), std::string::npos);
}

TEST(TracerTest, LongNamesKeepTheMsColumnAligned) {
  // A long executor name at depth 3 is cut to its indented field, so its
  // ms column sits where its siblings' and ancestors' do.
  obs::Tracer tracer("query");
  int outer = tracer.BeginSpan("execute");
  int mid = tracer.BeginSpan("TopN k=10");
  int longer = tracer.BeginSpan(
      "FilterRecommend r using ItemCosCF users=5 ids=[1, 2, 3, 4, 5] "
      "unseen-only");
  tracer.EndSpan(longer);
  int shorter = tracer.BeginSpan("SeqScan ratings");
  tracer.EndSpan(shorter);
  tracer.EndSpan(mid);
  tracer.EndSpan(outer);
  tracer.Finish();

  const std::string rendered = tracer.Render();
  std::vector<size_t> ms_at;
  size_t start = rendered.find('\n') + 1;  // skip the header line
  while (start < rendered.size()) {
    const size_t end = rendered.find('\n', start);
    const std::string line = rendered.substr(start, end - start);
    ms_at.push_back(line.find(" ms"));
    start = end + 1;
  }
  ASSERT_EQ(ms_at.size(), 5u) << rendered;
  for (size_t at : ms_at) {
    EXPECT_EQ(at, ms_at[0]) << rendered;
  }
  EXPECT_NE(rendered.find("FilterRecommend r using"), std::string::npos);
  EXPECT_NE(rendered.find("...  "), std::string::npos) << rendered;
}

TEST(TracerTest, AttachPlanMaterializesExecutorSpans) {
  FilterPlan parent;
  auto child_owned = std::make_unique<FilterPlan>();
  FilterPlan* child = child_owned.get();
  parent.children.push_back(std::move(child_owned));

  // The per-node record the Init/Next wrappers fill: the parent made two
  // Next calls and emitted one row, and its inclusive time covers the
  // child's.
  NodeStatsMap nodes;
  nodes[&parent] = NodeStats{/*rows=*/1, /*next_calls=*/2, /*ns=*/5000};
  nodes[child] = NodeStats{/*rows=*/1, /*next_calls=*/1, /*ns=*/1500};

  obs::Tracer tracer("query");
  int exec = tracer.BeginSpan("execute");
  tracer.AttachPlan(parent, nodes);
  tracer.EndSpan(exec);
  tracer.Finish();

  std::string rendered = tracer.Render();
  // Both plan nodes render (Describe() == "Filter"), annotated with the
  // accumulated rows= / next= counts.
  EXPECT_NE(rendered.find("Filter"), std::string::npos);
  EXPECT_NE(rendered.find("rows=1 next=2"), std::string::npos)
      << "parent: two Next calls, one row:\n"
      << rendered;
  EXPECT_NE(rendered.find("rows=1 next=1"), std::string::npos)
      << "child: one Next call, one row:\n"
      << rendered;
}

// --------------------------------------------- trace-off path: no allocation

/// Exhausted source: Next() always reports end-of-stream.
class EmptySourceExecutor : public Executor {
 public:
  using Executor::Executor;
  Status InitImpl() override { return Status::OK(); }

 protected:
  Result<std::optional<Tuple>> NextImpl() override {
    return std::optional<Tuple>{};
  }
};

TEST(TracerTest, DisabledTracingAllocatesNothingOnNextPath) {
  FilterPlan node;
  ExecContext ctx;  // ctx.tracer == nullptr: the trace-off fast path
  EmptySourceExecutor exec(node, &ctx);
  ASSERT_TRUE(exec.Init().ok());
  ASSERT_TRUE(exec.Next().ok());  // warm up any one-time lazy state

  uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    auto r = exec.Next();
    ASSERT_TRUE(r.ok());
    obs::Count(Counter::kExecTuplesScanned);
    obs::ObserveUs(Histogram::kQueryLatencyUs, 5);
  }
  uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "Next() with tracing off and metric updates must not allocate";
}

// ------------------------------------- ExecStats commit-on-success (bugfix)

/// Scripted outer relation: emits single-column item-id tuples, failing
/// exactly once at a chosen Next() call; a re-Init retries cleanly.
class FlakyOuterExecutor : public Executor {
 public:
  FlakyOuterExecutor(const PlanNode& node, ExecContext* ctx,
                     std::vector<int64_t> items, int fail_at_call)
      : Executor(node, ctx),
        items_(std::move(items)),
        fail_at_call_(fail_at_call) {}

  Status InitImpl() override {
    pos_ = 0;
    calls_ = 0;
    return Status::OK();
  }

 protected:
  Result<std::optional<Tuple>> NextImpl() override {
    if (fail_at_call_ >= 0 && calls_++ == fail_at_call_) {
      fail_at_call_ = -1;  // fail once; succeed for the rest of the test
      return Status::ExecutionError("injected outer failure");
    }
    if (pos_ >= items_.size()) return std::optional<Tuple>{};
    return std::make_optional(Tuple({Value::Int(items_[pos_++])}));
  }

 private:
  std::vector<int64_t> items_;
  int fail_at_call_;
  size_t pos_ = 0;
  int calls_ = 0;
};

std::unique_ptr<Recommender> MakeJoinRec() {
  RecommenderConfig cfg;
  cfg.name = "rec";
  auto rec = std::make_unique<Recommender>(cfg);
  rec->AddRating(1, 1, 4);
  rec->AddRating(1, 2, 3);
  rec->AddRating(2, 1, 5);
  rec->AddRating(2, 3, 4);
  rec->AddRating(3, 2, 2);
  rec->AddRating(3, 3, 3);
  rec->AddRating(3, 4, 4);
  RECDB_DCHECK(rec->Build().ok());
  return rec;
}

void InitJoinPlan(JoinRecommendPlan* plan, Recommender* rec) {
  plan->rec = rec;
  plan->alias = "R";
  plan->schema = ExecSchema({{"R", "uid", TypeId::kInt64},
                             {"R", "iid", TypeId::kInt64},
                             {"R", "ratingval", TypeId::kDouble},
                             {"O", "iid", TypeId::kInt64}});
  plan->user_col_idx = 0;
  plan->item_col_idx = 1;
  plan->rating_col_idx = 2;
  plan->outer_item_col = 0;
  plan->include_rated = true;  // every known-item probe emits, per user
  plan->user_ids = {1, 2, 3};
}

/// Drain to completion; returns emitted (uid, iid) pairs.
std::vector<std::pair<int64_t, int64_t>> Drain(Executor* exec) {
  std::vector<std::pair<int64_t, int64_t>> out;
  while (true) {
    auto next = exec->Next();
    EXPECT_TRUE(next.ok());
    if (!next.ok() || !next.value().has_value()) break;
    out.emplace_back(next.value()->At(0).AsInt(), next.value()->At(1).AsInt());
  }
  return out;
}

TEST(ExecStatsTest, JoinRecommendRerunAfterMidWindowErrorMatchesCleanRun) {
  auto rec = MakeJoinRec();
  // 70 probes, 3 users: the outer fails part-way through the drain, and
  // the second attempt re-drains it from the start after a re-Init.
  std::vector<int64_t> items;
  for (int i = 0; i < 70; ++i) items.push_back(1 + i % 4);

  // Reference: a clean single run.
  JoinRecommendPlan clean_plan;
  InitJoinPlan(&clean_plan, rec.get());
  FilterPlan clean_outer_node;
  ExecContext clean_ctx;
  JoinRecommendExecutor clean_exec(
      clean_plan,
      std::make_unique<FlakyOuterExecutor>(clean_outer_node, &clean_ctx, items,
                                           -1),
      &clean_ctx);
  ASSERT_TRUE(clean_exec.Init().ok());
  auto clean_rows = Drain(&clean_exec);
  ASSERT_EQ(clean_ctx.stats.join_probes, 70u);
  ASSERT_EQ(clean_rows.size(), 70u * 3u);  // include_rated: 3 users per probe

  // Faulty run: the outer fails on its 4th Next() call, mid-way through the
  // drain. The drain must commit neither probes nor outer rows.
  JoinRecommendPlan plan;
  InitJoinPlan(&plan, rec.get());
  FilterPlan outer_node;
  ExecContext ctx;
  JoinRecommendExecutor exec(
      plan,
      std::make_unique<FlakyOuterExecutor>(outer_node, &ctx, items, 3), &ctx);
  ASSERT_TRUE(exec.Init().ok());
  auto first = exec.Next();
  ASSERT_FALSE(first.ok()) << "the injected outer failure must surface";
  EXPECT_EQ(ctx.stats.join_probes, 0u)
      << "probes pulled before the error must not be counted (commit-on-"
         "success)";

  // Statement retry: re-Init and drain sharing the same ExecContext — the
  // paper-engine's EXPLAIN ANALYZE re-run shape. Totals must equal the
  // clean run exactly; before the fix the aborted fill's probes leaked in.
  ASSERT_TRUE(exec.Init().ok());
  auto rows = Drain(&exec);
  EXPECT_EQ(rows, clean_rows);
  EXPECT_EQ(ctx.stats.join_probes, clean_ctx.stats.join_probes);
  EXPECT_EQ(ctx.stats.predictions, clean_ctx.stats.predictions);
  EXPECT_EQ(ctx.stats.predict_batches, clean_ctx.stats.predict_batches);
}

// ------------------------------------------------------- end-to-end via SQL

TEST(ObservabilityEndToEndTest, MetricsAndTraceFlowThroughSql) {
  obs::MetricsRegistry::Global().ResetForTest();
  RecDB db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE Ratings (uid INT, iid INT, ratingval DOUBLE)")
          .ok());
  ASSERT_TRUE(db.Execute("INSERT INTO Ratings VALUES (1,1,4),(1,2,3),(2,1,5),"
                         "(2,3,4),(3,2,2),(3,3,3),(3,4,4)")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER rec ON Ratings USERS FROM uid "
                         "ITEMS FROM iid RATINGS FROM ratingval USING "
                         "ItemCosCF")
                  .ok());

  auto set = db.Execute("SET trace = on");
  ASSERT_TRUE(set.ok()) << set.status().ToString();

  auto rs = db.Execute(
      "SELECT R.uid, R.iid, R.ratingval FROM Ratings AS R RECOMMEND R.iid TO "
      "R.uid ON R.ratingval USING ItemCosCF WHERE R.uid = 1 ORDER BY "
      "R.ratingval DESC LIMIT 3");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_GT(rs.value().NumRows(), 0u);

  // The trace carries the fixed pipeline spans and at least one executor
  // span, and its root covers the query's own reported elapsed time.
  const std::string& trace = rs.value().trace;
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace, db.last_trace());
  EXPECT_NE(trace.find("query"), std::string::npos);
  EXPECT_NE(trace.find("parse"), std::string::npos);
  EXPECT_NE(trace.find("plan"), std::string::npos);
  EXPECT_NE(trace.find("execute"), std::string::npos);
  EXPECT_NE(trace.find("rows="), std::string::npos);

  // Engine counters accumulated through the SQL path.
  auto snap = obs::MetricsRegistry::Global().Snapshot();
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kModelBuilds)], 0u);
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kModelPredictBatches)],
            0u);
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kQuerySelects)], 0u);
  EXPECT_GT(snap.counters[static_cast<size_t>(Counter::kQueryRowsEmitted)],
            0u);
  EXPECT_GT(
      snap.histograms[static_cast<size_t>(Histogram::kQueryLatencyUs)].count,
      0u);

  // SET trace = off silences tracing again.
  ASSERT_TRUE(db.Execute("SET trace = off").ok());
  auto quiet = db.Execute("SELECT uid FROM Ratings WHERE uid = 1");
  ASSERT_TRUE(quiet.ok());
  EXPECT_TRUE(quiet.value().trace.empty());
}

struct RenderedSpan {
  size_t depth = 0;
  std::string name;
  double ms = 0;
};

/// Parse Tracer::Render() output: one span per line, indented two spaces
/// per depth level, with its wall-clock as "<ms> ms" rounded to 1 us.
std::vector<RenderedSpan> ParseSpans(const std::string& trace) {
  std::vector<RenderedSpan> spans;
  for (const auto& line : Split(trace, '\n')) {
    if (line.rfind("  ", 0) != 0) continue;  // header line
    std::string body = line.substr(0, line.find("  rows="));
    const size_t ms_at = body.rfind(" ms");
    if (ms_at == std::string::npos) continue;
    body.resize(ms_at);
    const size_t value_at = body.find_last_of(' ') + 1;
    RenderedSpan span;
    span.ms = std::stod(body.substr(value_at));
    const size_t indent = body.find_first_not_of(' ');
    span.depth = (indent - 2) / 2;
    span.name = body.substr(indent, body.find_last_not_of(' ', value_at - 1) -
                                        indent + 1);
    spans.push_back(std::move(span));
  }
  return spans;
}

TEST(ObservabilityEndToEndTest, TracedTopKSpansAddUpAndTimeInit) {
  // The all-users ItemCosCF Top-10 does all its scoring inside the
  // Recommend operator's Init (TopN's Init drains it), so untimed Init
  // would leave the Recommend span near zero.
  RecDB db;
  auto ds = datagen::LoadDataset(
      &db, datagen::DatasetSpec::MovieLens100K().Scaled(0.2));
  ASSERT_TRUE(ds.ok());
  const std::string table = ds.value().ratings_table;
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON " + table +
                         " USERS FROM uid ITEMS FROM iid RATINGS FROM "
                         "ratingval USING ItemCosCF")
                  .ok());
  ASSERT_TRUE(db.Execute("SET trace = on").ok());
  auto rs = db.Execute("SELECT R.uid, R.iid, R.ratingval FROM " + table +
                       " AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING "
                       "ItemCosCF ORDER BY R.ratingval DESC LIMIT 10");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs.value().NumRows(), 10u);
  const std::string& trace = rs.value().trace;
  const std::vector<RenderedSpan> spans = ParseSpans(trace);
  ASSERT_GE(spans.size(), 6u) << trace;

  double execute_ms = -1, recommend_ms = -1;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "execute") execute_ms = spans[i].ms;
    if (spans[i].name.rfind("Recommend r using", 0) == 0) {
      recommend_ms = spans[i].ms;
    }
    // Children are the following spans one level deeper, up to the next
    // span at this span's depth or shallower. Each rendered value is off by
    // at most 0.5 us.
    double children_ms = 0;
    size_t children = 0;
    for (size_t j = i + 1;
         j < spans.size() && spans[j].depth > spans[i].depth; ++j) {
      if (spans[j].depth != spans[i].depth + 1) continue;
      children_ms += spans[j].ms;
      ++children;
    }
    EXPECT_GE(spans[i].ms + 0.0005 * static_cast<double>(children + 1),
              children_ms)
        << spans[i].name << " is shorter than its children\n"
        << trace;
  }
  ASSERT_GT(execute_ms, 0) << trace;
  ASSERT_GE(recommend_ms, 0) << trace;
  EXPECT_GT(recommend_ms, 0.5 * execute_ms)
      << "the Recommend operator's Init-phase scoring must be attributed "
         "to it\n"
      << trace;
}

TEST(ObservabilityEndToEndTest, ExplainAnalyzeAgreesWithTracedRows) {
  // EXPLAIN ANALYZE's act= (the untraced Next wrapper) and a traced run's
  // rows= (the traced wrapper) come from the same per-node record, so the
  // same Top-10 reports the same count for every plan node.
  RecDB db;
  auto ds = datagen::LoadDataset(
      &db, datagen::DatasetSpec::MovieLens100K().Scaled(0.2));
  ASSERT_TRUE(ds.ok());
  const std::string table = ds.value().ratings_table;
  ASSERT_TRUE(db.Execute("CREATE RECOMMENDER r ON " + table +
                         " USERS FROM uid ITEMS FROM iid RATINGS FROM "
                         "ratingval USING ItemCosCF")
                  .ok());
  const std::string sql =
      "SELECT R.uid, R.iid, R.ratingval FROM " + table +
      " AS R RECOMMEND R.iid TO R.uid ON R.ratingval USING ItemCosCF WHERE "
      "R.uid IN (1, 2, 3, 4, 5) ORDER BY R.ratingval DESC LIMIT 10";
  // (operator, count) per plan node, in pre-order.
  using NodeCounts = std::vector<std::pair<std::string, uint64_t>>;
  auto node_count = [](const std::string& line, const std::string& key) {
    const size_t name_at = line.find_first_not_of(' ');
    const std::string op =
        line.substr(name_at, line.find(' ', name_at) - name_at);
    return std::make_pair(
        op, std::stoull(line.substr(line.find(key) + key.size())));
  };

  auto analyzed = db.Execute("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  NodeCounts act;
  for (const Tuple& row : analyzed.value().rows) {
    const std::string line = row.At(0).AsString();
    if (line.find(" act=") != std::string::npos) {
      act.push_back(node_count(line, " act="));
    }
  }

  ASSERT_TRUE(db.Execute("SET trace = on").ok());
  auto traced = db.Execute(sql);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced.value().NumRows(), 10u);
  NodeCounts rows;
  for (const auto& line : Split(traced.value().trace, '\n')) {
    if (line.find("  rows=") != std::string::npos) {
      rows.push_back(node_count(line, "  rows="));
    }
  }

  ASSERT_GE(act.size(), 3u) << analyzed.value().ToString(50);
  EXPECT_EQ(act, rows) << analyzed.value().ToString(50) << "\n"
                       << traced.value().trace;
  EXPECT_EQ(rows.front().second, 10u) << traced.value().trace;
}

}  // namespace
}  // namespace recdb
