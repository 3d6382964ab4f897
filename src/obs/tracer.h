// Per-query tracer: records a span tree (parse -> plan -> execute, with one
// span per executor node) when `SET trace = on` is active.
//
// Spans are explicit begin/end pairs over a monotonic clock and nest via a
// stack, so the tree mirrors call structure. Executor spans are not opened
// per Next() call — that would allocate on the hot path; instead the
// Executor::Init and Executor::Next wrappers accumulate per-node inclusive
// time into the tracer (RecordNodeInit / RecordNode), and AttachPlan()
// materializes one span per plan node under the currently open span after
// the query drains. Durations on executor
// spans are therefore *inclusive*: a parent operator's time contains its
// children's, exactly like the call stack it mirrors.
//
// A Tracer is owned by one query execution on one thread (morsel workers run
// inside an operator's Next, so only the coordinating thread touches the
// tracer); it is not thread-safe and needs no atomics. When tracing is off
// no Tracer exists and ExecContext::tracer is null — the Init and Next
// wrappers take the untimed branch and allocate nothing.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace recdb {
struct PlanNode;
}  // namespace recdb

namespace recdb::obs {

class Tracer {
 public:
  /// Starts the root span immediately.
  explicit Tracer(std::string root_name);

  /// Open a child span of the innermost open span. Returns its id.
  int BeginSpan(std::string name);
  /// Close span `id`; must be the innermost open span.
  void EndSpan(int id);

  /// RAII helper: `auto s = tracer.Span("plan");`
  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() { t_->EndSpan(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };
  Scope Span(std::string name) { return Scope(this, BeginSpan(std::move(name))); }

  /// Accumulate one Next() call's inclusive time for a plan node.
  void RecordNode(const recdb::PlanNode* node, uint64_t dur_ns,
                  bool produced_row);
  /// Accumulate one Init() call's inclusive time for a plan node (no Next
  /// call or row is counted).
  void RecordNodeInit(const recdb::PlanNode* node, uint64_t dur_ns);

  /// Append one span per plan node (pre-order, children nested) under the
  /// innermost open span, carrying the durations/row counts accumulated via
  /// RecordNode. Call after the executor tree has drained.
  void AttachPlan(const recdb::PlanNode& plan);

  /// Close every still-open span, root last. Idempotent.
  void Finish();

  uint64_t RootDurationNs() const;
  /// Indented span tree with wall-clock per span; executor spans carry
  /// rows= / next= annotations.
  std::string Render() const;

  static uint64_t NowNs();

 private:
  struct SpanRec {
    std::string name;
    int parent;          // index into spans_, -1 for root
    uint64_t start_ns;   // absolute, monotonic
    uint64_t dur_ns = 0;
    bool open = true;
    bool exec_node = false;
    uint64_t rows = 0;       // exec_node only
    uint64_t next_calls = 0;  // exec_node only
  };
  struct NodeStat {
    uint64_t ns = 0;
    uint64_t next_calls = 0;
    uint64_t rows = 0;
  };

  void AttachPlanNode(const recdb::PlanNode& node, int parent);
  std::string RenderSpan(int id, int depth) const;

  std::vector<SpanRec> spans_;
  std::vector<int> stack_;  // ids of open spans, innermost last
  std::unordered_map<const recdb::PlanNode*, NodeStat> node_stats_;
};

}  // namespace recdb::obs
