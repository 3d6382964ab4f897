#include "obs/tracer.h"

#include <algorithm>
#include <chrono>

#include "common/string_util.h"

namespace recdb::obs {

uint64_t Tracer::NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(std::string root_name) {
  spans_.push_back(SpanRec{std::move(root_name), -1, NowNs()});
  stack_.push_back(0);
}

int Tracer::BeginSpan(std::string name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(SpanRec{std::move(name), parent, NowNs()});
  stack_.push_back(id);
  return id;
}

void Tracer::EndSpan(int id) {
  if (id < 0 || static_cast<size_t>(id) >= spans_.size()) return;
  SpanRec& s = spans_[id];
  if (!s.open) return;
  s.dur_ns = NowNs() - s.start_ns;
  s.open = false;
  // Pop through id; spans are well-nested so anything above it on the stack
  // is an unclosed child — close those too (error-path robustness).
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
    SpanRec& child = spans_[top];
    if (child.open) {
      child.dur_ns = s.start_ns + s.dur_ns - child.start_ns;
      child.open = false;
    }
  }
}

void Tracer::AttachPlanNode(const recdb::PlanNode& node,
                            const recdb::NodeStatsMap& nodes, int parent) {
  const int id = static_cast<int>(spans_.size());
  SpanRec rec;
  rec.name = node.Describe();
  rec.parent = parent;
  rec.exec_node = true;
  auto it = nodes.find(&node);
  if (it != nodes.end()) {
    rec.dur_ns = it->second.ns;
    rec.rows = it->second.rows;
    rec.next_calls = it->second.next_calls;
  }
  // Synthesized after the fact: give it the parent's start so ordering by
  // tree position stays stable, and mark it closed.
  rec.start_ns = spans_[parent].start_ns;
  rec.open = false;
  spans_.push_back(std::move(rec));
  for (const auto& child : node.children) AttachPlanNode(*child, nodes, id);
}

void Tracer::AttachPlan(const recdb::PlanNode& plan,
                        const recdb::NodeStatsMap& nodes) {
  const int parent = stack_.empty() ? 0 : stack_.back();
  AttachPlanNode(plan, nodes, parent);
}

void Tracer::Finish() {
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    SpanRec& s = spans_[top];
    if (s.open) {
      s.dur_ns = NowNs() - s.start_ns;
      s.open = false;
    }
  }
}

uint64_t Tracer::RootDurationNs() const {
  if (spans_.empty()) return 0;
  const SpanRec& root = spans_[0];
  return root.open ? NowNs() - root.start_ns : root.dur_ns;
}

std::string Tracer::RenderSpan(int id, int depth) const {
  const SpanRec& s = spans_[id];
  std::string name = s.name;
  // Executor Describe() strings can be long: cut each name to its indented
  // field, so the ms column lines up at every depth.
  const int width = std::max(48 - depth * 2, 3);
  if (name.size() > static_cast<size_t>(width)) {
    name = name.substr(0, width - 3) + "...";
  }
  std::string out =
      StringFormat("  %*s%-*s %10.3f ms", depth * 2, "", width, name.c_str(),
                   static_cast<double>(s.dur_ns) / 1e6);
  if (s.exec_node) {
    out += StringFormat("  rows=%llu next=%llu",
                        static_cast<unsigned long long>(s.rows),
                        static_cast<unsigned long long>(s.next_calls));
  }
  out += "\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) out += RenderSpan(static_cast<int>(i), depth + 1);
  }
  return out;
}

std::string Tracer::Render() const {
  if (spans_.empty()) return "(empty trace)\n";
  std::string out =
      "span tree (wall-clock per span; executor spans are inclusive of "
      "their children):\n";
  out += RenderSpan(0, 0);
  return out;
}

}  // namespace recdb::obs
