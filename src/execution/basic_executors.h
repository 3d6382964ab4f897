// Relational executors: scan, filter, project, joins, sort, top-n, limit.
#pragma once

#include <unordered_map>
#include <vector>

#include "execution/executor.h"

namespace recdb {

class SeqScanExecutor : public Executor {
 public:
  SeqScanExecutor(const SeqScanPlan& plan, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const SeqScanPlan& plan_;
  ExecContext* ctx_;
  std::optional<TableHeap::Iterator> iter_;
};

class FilterExecutor : public Executor {
 public:
  FilterExecutor(const FilterPlan& plan, ExecutorPtr child, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}
  Status InitImpl() override { return child_->Init(); }
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const FilterPlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
};

class ProjectExecutor : public Executor {
 public:
  ProjectExecutor(const ProjectPlan& plan, ExecutorPtr child, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}
  Status InitImpl() override {
    seen_.clear();
    return child_->Init();
  }
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const ProjectPlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
  // DISTINCT state: hash -> produced rows with that hash.
  std::unordered_multimap<size_t, Tuple> seen_;
};

/// Nested-loop join with a materialized inner (right) side.
class NestedLoopJoinExecutor : public Executor {
 public:
  NestedLoopJoinExecutor(const NestedLoopJoinPlan& plan, ExecutorPtr left,
                         ExecutorPtr right, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const NestedLoopJoinPlan& plan_;
  ExecutorPtr left_;
  ExecutorPtr right_;
  ExecContext* ctx_;
  std::vector<Tuple> inner_;
  std::optional<Tuple> outer_tuple_;
  size_t inner_pos_ = 0;
};

/// Hash join: builds on the right input, probes with the left.
class HashJoinExecutor : public Executor {
 public:
  HashJoinExecutor(const HashJoinPlan& plan, ExecutorPtr left,
                   ExecutorPtr right, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan),
        left_(std::move(left)),
        right_(std::move(right)),
        ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const HashJoinPlan& plan_;
  ExecutorPtr left_;
  ExecutorPtr right_;
  ExecContext* ctx_;
  std::unordered_multimap<Value, Tuple, ValueHash> table_;
  std::optional<Tuple> probe_tuple_;
  std::vector<const Tuple*> matches_;
  size_t match_pos_ = 0;
};

/// Full in-memory sort.
class SortExecutor : public Executor {
 public:
  SortExecutor(const SortPlan& plan, ExecutorPtr child, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const SortPlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

/// Top-N via bounded selection (drains child, keeps best n).
class TopNExecutor : public Executor {
 public:
  TopNExecutor(const TopNPlan& plan, ExecutorPtr child, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}
  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const TopNPlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
  std::vector<Tuple> rows_;
  size_t pos_ = 0;
};

class LimitExecutor : public Executor {
 public:
  LimitExecutor(const LimitPlan& plan, ExecutorPtr child, ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}
  Status InitImpl() override {
    emitted_ = 0;
    return child_->Init();
  }
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  const LimitPlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
  size_t emitted_ = 0;
};

/// Evaluate sort keys for a tuple (shared by Sort and TopN). Sorting then
/// compares the precomputed key vectors, so evaluation errors surface once
/// per row instead of inside a comparator.
Result<std::vector<Value>> EvalSortKeys(const std::vector<SortKey>& keys,
                                        const Tuple& t);

/// Compare precomputed key vectors under the keys' asc/desc flags.
bool SortKeyVectorLess(const std::vector<SortKey>& keys,
                       const std::vector<Value>& a,
                       const std::vector<Value>& b);

}  // namespace recdb
