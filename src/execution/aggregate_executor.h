// Hash-aggregation executor (COUNT / SUM / AVG / MIN / MAX with GROUP BY).
#pragma once

#include <unordered_map>
#include <vector>

#include "execution/executor.h"

namespace recdb {

class HashAggregateExecutor : public Executor {
 public:
  HashAggregateExecutor(const AggregatePlan& plan, ExecutorPtr child,
                        ExecContext* ctx)
      : Executor(plan, ctx),
        plan_(plan), child_(std::move(child)), ctx_(ctx) {}

  Status InitImpl() override;
  Result<std::optional<Tuple>> NextImpl() override;

 private:
  struct AggState {
    uint64_t count = 0;   // rows (COUNT(*)) or non-null args (others)
    double sum = 0;
    Value min;
    Value max;
    bool has_value = false;
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
  };

  Status Accumulate(const Tuple& row, std::vector<AggState>* states);
  Tuple Finalize(const Group& group) const;

  const AggregatePlan& plan_;
  ExecutorPtr child_;
  ExecContext* ctx_;
  std::vector<Group> groups_;
  size_t pos_ = 0;
};

}  // namespace recdb
