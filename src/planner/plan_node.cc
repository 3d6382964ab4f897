#include "planner/plan_node.h"

#include "common/string_util.h"

namespace recdb {

const char* PlanNodeTypeToString(PlanNodeType t) {
  switch (t) {
    case PlanNodeType::kSeqScan:
      return "SeqScan";
    case PlanNodeType::kRecommend:
      return "Recommend";
    case PlanNodeType::kFilterRecommend:
      return "FilterRecommend";
    case PlanNodeType::kJoinRecommend:
      return "JoinRecommend";
    case PlanNodeType::kIndexRecommend:
      return "IndexRecommend";
    case PlanNodeType::kFilter:
      return "Filter";
    case PlanNodeType::kProject:
      return "Project";
    case PlanNodeType::kAggregate:
      return "Aggregate";
    case PlanNodeType::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanNodeType::kHashJoin:
      return "HashJoin";
    case PlanNodeType::kSort:
      return "Sort";
    case PlanNodeType::kTopN:
      return "TopN";
    case PlanNodeType::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::Describe() const { return PlanNodeTypeToString(type); }

std::string PlanNode::ToString(int indent, const ActualRowMap* actual) const {
  std::string out(indent * 2, ' ');
  out += Describe();
  if (est_rows >= 0) {
    out += StringFormat(" (est=%.0f", est_rows);
    if (actual != nullptr) {
      auto it = actual->find(this);
      uint64_t act = it == actual->end() ? 0 : it->second;
      out += StringFormat(" act=%llu", static_cast<unsigned long long>(act));
    }
    out += ")";
  }
  out += "\n";
  for (const auto& c : children) out += c->ToString(indent + 1, actual);
  return out;
}

std::string SeqScanPlan::Describe() const {
  return StringFormat("SeqScan %s as %s", table->name.c_str(), alias.c_str());
}

namespace {
std::string IdList(const std::optional<std::vector<int64_t>>& ids) {
  if (!ids.has_value()) return "*";
  if (ids->size() > 4) return std::to_string(ids->size()) + " ids";
  std::vector<std::string> parts;
  for (int64_t v : *ids) parts.push_back(std::to_string(v));
  return Join(parts, ",");
}
}  // namespace

std::string RecommendPlan::Describe() const {
  std::string out = StringFormat(
      "%s %s using %s", PlanNodeTypeToString(type), rec->name().c_str(),
      RecAlgorithmToString(rec->algorithm()));
  if (type == PlanNodeType::kFilterRecommend) {
    out += " users=" + IdList(user_ids) + " items=" + IdList(item_ids);
  }
  if (prune) {
    out += StringFormat(" mode=pruned(k=%zu)", prune_limit);
  }
  return out;
}

std::string JoinRecommendPlan::Describe() const {
  return StringFormat("JoinRecommend %s using %s users=%s",
                      rec->name().c_str(),
                      RecAlgorithmToString(rec->algorithm()),
                      IdList(user_ids).c_str());
}

std::string IndexRecommendPlan::Describe() const {
  std::string out = StringFormat("IndexRecommend %s users=%s",
                                 rec->name().c_str(),
                                 IdList(user_ids).c_str());
  if (per_user_limit > 0) {
    out += " top " + std::to_string(per_user_limit);
  }
  if (prune) out += " fallback=pruned";
  return out;
}

std::string FilterPlan::Describe() const { return "Filter"; }

std::string ProjectPlan::Describe() const {
  return StringFormat("Project%s %zu cols", distinct ? " DISTINCT" : "",
                      exprs.size());
}

const char* AggKindToString(AggKind k) {
  switch (k) {
    case AggKind::kCountStar:
      return "count(*)";
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
  }
  return "?";
}

std::string AggregatePlan::Describe() const {
  return StringFormat("Aggregate %zu groups x %zu aggs", group_keys.size(),
                      aggs.size());
}

std::string NestedLoopJoinPlan::Describe() const {
  return predicate ? "NestedLoopJoin" : "NestedLoopJoin (cross)";
}

std::string HashJoinPlan::Describe() const { return "HashJoin"; }

std::string SortPlan::Describe() const {
  return StringFormat("Sort %zu keys", keys.size());
}

std::string TopNPlan::Describe() const {
  return StringFormat("TopN %zu", n);
}

std::string LimitPlan::Describe() const {
  return StringFormat("Limit %zu", n);
}

}  // namespace recdb
