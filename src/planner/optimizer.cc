#include "planner/optimizer.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "obs/metrics.h"
#include "planner/cost_model.h"

namespace recdb {

std::vector<BoundExprPtr> SplitConjuncts(BoundExprPtr expr) {
  std::vector<BoundExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == BoundExprKind::kBinary && expr->op == BinaryOp::kAnd) {
    auto left = SplitConjuncts(std::move(expr->left));
    auto right = SplitConjuncts(std::move(expr->right));
    for (auto& e : left) out.push_back(std::move(e));
    for (auto& e : right) out.push_back(std::move(e));
    return out;
  }
  out.push_back(std::move(expr));
  return out;
}

BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts) {
  BoundExprPtr result;
  for (auto& c : conjuncts) {
    if (result == nullptr) {
      result = std::move(c);
    } else {
      result = BoundExpr::MakeBinary(BinaryOp::kAnd, std::move(result),
                                     std::move(c));
    }
  }
  return result;
}

namespace {

/// Column-index span classification for join pushdown.
enum class Side { kLeft, kRight, kBoth, kNone };

Side ClassifyColumns(const BoundExpr& e, size_t left_width) {
  std::vector<size_t> cols;
  e.CollectColumns(&cols);
  if (cols.empty()) return Side::kNone;
  bool has_left = false, has_right = false;
  for (size_t c : cols) {
    if (c < left_width)
      has_left = true;
    else
      has_right = true;
  }
  if (has_left && has_right) return Side::kBoth;
  return has_left ? Side::kLeft : Side::kRight;
}

/// Identity mapping shifted by -offset (for pushing right-side predicates).
std::vector<int> ShiftMapping(size_t width, size_t offset) {
  std::vector<int> m(width, -1);
  for (size_t i = offset; i < width; ++i) {
    m[i] = static_cast<int>(i - offset);
  }
  return m;
}

/// Wrap `child` in a Filter with `pred` (merging if child is a Filter).
PlanNodePtr WrapFilter(PlanNodePtr child, BoundExprPtr pred) {
  if (pred == nullptr) return child;
  if (child->type == PlanNodeType::kFilter) {
    auto* f = static_cast<FilterPlan*>(child.get());
    f->predicate = BoundExpr::MakeBinary(BinaryOp::kAnd,
                                         std::move(f->predicate),
                                         std::move(pred));
    return child;
  }
  auto filter = std::make_unique<FilterPlan>();
  filter->predicate = std::move(pred);
  filter->schema = child->schema;
  filter->children.push_back(std::move(child));
  return filter;
}

/// Match `expr` as  Column(col) = <int const>  (either operand order).
/// Returns the constant on success.
std::optional<int64_t> MatchColumnEqConst(const BoundExpr& expr,
                                          size_t col) {
  if (expr.kind != BoundExprKind::kBinary || expr.op != BinaryOp::kEq) {
    return std::nullopt;
  }
  const BoundExpr* col_side = nullptr;
  const BoundExpr* const_side = nullptr;
  if (expr.left->kind == BoundExprKind::kColumn &&
      expr.right->kind == BoundExprKind::kConstant) {
    col_side = expr.left.get();
    const_side = expr.right.get();
  } else if (expr.right->kind == BoundExprKind::kColumn &&
             expr.left->kind == BoundExprKind::kConstant) {
    col_side = expr.right.get();
    const_side = expr.left.get();
  } else {
    return std::nullopt;
  }
  if (col_side->column_idx != col) return std::nullopt;
  if (const_side->constant.type() != TypeId::kInt64) return std::nullopt;
  return const_side->constant.AsInt();
}

/// Match `expr` as  Column(col) IN (int consts...), not negated.
std::optional<std::vector<int64_t>> MatchColumnInList(const BoundExpr& expr,
                                                      size_t col) {
  if (expr.kind != BoundExprKind::kInList || expr.negated) return std::nullopt;
  if (expr.left->kind != BoundExprKind::kColumn ||
      expr.left->column_idx != col) {
    return std::nullopt;
  }
  std::vector<int64_t> out;
  for (const auto& v : expr.in_values) {
    if (v.type() != TypeId::kInt64) return std::nullopt;
    out.push_back(v.AsInt());
  }
  return out;
}

/// Intersect `current` (unset = universe) with `incoming`.
void IntersectIds(std::optional<std::vector<int64_t>>* current,
                  std::vector<int64_t> incoming) {
  std::sort(incoming.begin(), incoming.end());
  incoming.erase(std::unique(incoming.begin(), incoming.end()),
                 incoming.end());
  if (!current->has_value()) {
    *current = std::move(incoming);
    return;
  }
  std::unordered_set<int64_t> keep(incoming.begin(), incoming.end());
  auto& cur = **current;
  cur.erase(std::remove_if(cur.begin(), cur.end(),
                           [&](int64_t v) { return keep.count(v) == 0; }),
            cur.end());
}

}  // namespace

Result<PlanNodePtr> Optimizer::Optimize(PlanNodePtr plan) {
  for (int pass = 0; pass < 12; ++pass) {
    bool changed = false;
    RECDB_ASSIGN_OR_RETURN(plan, RewritePass(std::move(plan), &changed));
    if (!changed) break;
  }
  if (options_.enable_cost_based) {
    RECDB_ASSIGN_OR_RETURN(plan, CostPass(std::move(plan)));
    AnnotatePlan(plan.get(), cost_env_);
  }
  return plan;
}

Result<PlanNodePtr> Optimizer::RewritePass(PlanNodePtr node, bool* changed) {
  // Apply local rules at this node first (they may create children that the
  // recursion below then visits).
  RECDB_ASSIGN_OR_RETURN(node, MergeFilters(std::move(node), changed));
  RECDB_ASSIGN_OR_RETURN(node, PushFilterThroughJoin(std::move(node), changed));
  if (options_.enable_filter_recommend) {
    RECDB_ASSIGN_OR_RETURN(node,
                           PushFilterIntoRecommend(std::move(node), changed));
  }
  if (options_.enable_hash_join) {
    RECDB_ASSIGN_OR_RETURN(node, NljToHashJoin(std::move(node), changed));
  }
  if (options_.enable_join_recommend) {
    RECDB_ASSIGN_OR_RETURN(node, JoinToJoinRecommend(std::move(node), changed));
  }
  if (options_.enable_index_recommend) {
    RECDB_ASSIGN_OR_RETURN(node,
                           TopNToIndexRecommend(std::move(node), changed));
  }
  for (auto& child : node->children) {
    RECDB_ASSIGN_OR_RETURN(child, RewritePass(std::move(child), changed));
  }
  return node;
}

Result<PlanNodePtr> Optimizer::MergeFilters(PlanNodePtr node, bool* changed) {
  if (node->type != PlanNodeType::kFilter) return node;
  auto* filter = static_cast<FilterPlan*>(node.get());
  if (filter->children[0]->type != PlanNodeType::kFilter) return node;
  auto* inner = static_cast<FilterPlan*>(filter->children[0].get());
  filter->predicate = BoundExpr::MakeBinary(BinaryOp::kAnd,
                                            std::move(filter->predicate),
                                            std::move(inner->predicate));
  PlanNodePtr grandchild = std::move(inner->children[0]);
  filter->children[0] = std::move(grandchild);
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleMergeFilters);
  return node;
}

Result<PlanNodePtr> Optimizer::PushFilterThroughJoin(PlanNodePtr node,
                                                     bool* changed) {
  if (node->type != PlanNodeType::kFilter) return node;
  auto* filter = static_cast<FilterPlan*>(node.get());
  PlanNode* child = filter->children[0].get();
  if (child->type != PlanNodeType::kNestedLoopJoin &&
      child->type != PlanNodeType::kHashJoin) {
    return node;
  }
  size_t left_width = child->children[0]->schema.NumColumns();
  size_t total_width = child->schema.NumColumns();

  auto conjuncts = SplitConjuncts(std::move(filter->predicate));
  std::vector<BoundExprPtr> left_preds, right_preds, join_preds, keep;
  for (auto& c : conjuncts) {
    switch (ClassifyColumns(*c, left_width)) {
      case Side::kLeft:
        left_preds.push_back(std::move(c));
        break;
      case Side::kRight: {
        RECDB_RETURN_NOT_OK(
            c->RemapColumns(ShiftMapping(total_width, left_width)));
        right_preds.push_back(std::move(c));
        break;
      }
      case Side::kBoth:
        join_preds.push_back(std::move(c));
        break;
      case Side::kNone:
        keep.push_back(std::move(c));  // constant predicate: leave on top
        break;
    }
  }
  if (left_preds.empty() && right_preds.empty() && join_preds.empty()) {
    filter->predicate = CombineConjuncts(std::move(keep));
    return node;
  }
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleFilterPushdown);

  if (!left_preds.empty()) {
    child->children[0] = WrapFilter(std::move(child->children[0]),
                                    CombineConjuncts(std::move(left_preds)));
  }
  if (!right_preds.empty()) {
    child->children[1] = WrapFilter(std::move(child->children[1]),
                                    CombineConjuncts(std::move(right_preds)));
  }
  if (!join_preds.empty()) {
    if (child->type == PlanNodeType::kNestedLoopJoin) {
      auto* nlj = static_cast<NestedLoopJoinPlan*>(child);
      if (nlj->predicate != nullptr) {
        join_preds.push_back(std::move(nlj->predicate));
      }
      nlj->predicate = CombineConjuncts(std::move(join_preds));
    } else {
      auto* hj = static_cast<HashJoinPlan*>(child);
      if (hj->residual != nullptr) {
        join_preds.push_back(std::move(hj->residual));
      }
      hj->residual = CombineConjuncts(std::move(join_preds));
    }
  }

  PlanNodePtr join = std::move(filter->children[0]);
  if (keep.empty()) return join;
  return WrapFilter(std::move(join), CombineConjuncts(std::move(keep)));
}

Result<PlanNodePtr> Optimizer::PushFilterIntoRecommend(PlanNodePtr node,
                                                       bool* changed) {
  if (node->type != PlanNodeType::kFilter) return node;
  auto* filter = static_cast<FilterPlan*>(node.get());
  PlanNode* child = filter->children[0].get();
  if (child->type != PlanNodeType::kRecommend &&
      child->type != PlanNodeType::kFilterRecommend) {
    return node;
  }
  auto* rec = static_cast<RecommendPlan*>(child);

  auto conjuncts = SplitConjuncts(std::move(filter->predicate));
  std::vector<BoundExprPtr> keep;
  bool pushed = false;
  for (auto& c : conjuncts) {
    if (auto v = MatchColumnEqConst(*c, rec->user_col_idx)) {
      IntersectIds(&rec->user_ids, {*v});
      pushed = true;
      continue;
    }
    if (auto vs = MatchColumnInList(*c, rec->user_col_idx)) {
      IntersectIds(&rec->user_ids, std::move(*vs));
      pushed = true;
      continue;
    }
    if (auto v = MatchColumnEqConst(*c, rec->item_col_idx)) {
      IntersectIds(&rec->item_ids, {*v});
      pushed = true;
      continue;
    }
    if (auto vs = MatchColumnInList(*c, rec->item_col_idx)) {
      IntersectIds(&rec->item_ids, std::move(*vs));
      pushed = true;
      continue;
    }
    keep.push_back(std::move(c));
  }
  if (!pushed) {
    filter->predicate = CombineConjuncts(std::move(keep));
    return node;
  }
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleFilterRecommend);
  rec->type = PlanNodeType::kFilterRecommend;
  PlanNodePtr rec_node = std::move(filter->children[0]);
  return WrapFilter(std::move(rec_node), CombineConjuncts(std::move(keep)));
}

Result<PlanNodePtr> Optimizer::NljToHashJoin(PlanNodePtr node, bool* changed) {
  if (node->type != PlanNodeType::kNestedLoopJoin) return node;
  auto* nlj = static_cast<NestedLoopJoinPlan*>(node.get());
  if (nlj->predicate == nullptr) return node;

  size_t left_width = nlj->children[0]->schema.NumColumns();
  auto conjuncts = SplitConjuncts(std::move(nlj->predicate));
  // Find one equi-conjunct with one side entirely-left, other entirely-right.
  int eq_idx = -1;
  bool left_is_first = true;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const BoundExpr& c = *conjuncts[i];
    if (c.kind != BoundExprKind::kBinary || c.op != BinaryOp::kEq) continue;
    Side ls = ClassifyColumns(*c.left, left_width);
    Side rs = ClassifyColumns(*c.right, left_width);
    if (ls == Side::kLeft && rs == Side::kRight) {
      eq_idx = static_cast<int>(i);
      left_is_first = true;
      break;
    }
    if (ls == Side::kRight && rs == Side::kLeft) {
      eq_idx = static_cast<int>(i);
      left_is_first = false;
      break;
    }
  }
  if (eq_idx < 0) {
    nlj->predicate = CombineConjuncts(std::move(conjuncts));
    return node;
  }
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleHashJoin);

  auto hj = std::make_unique<HashJoinPlan>();
  hj->schema = nlj->schema;
  BoundExprPtr eq = std::move(conjuncts[eq_idx]);
  conjuncts.erase(conjuncts.begin() + eq_idx);
  hj->residual = CombineConjuncts(std::move(conjuncts));
  BoundExprPtr lkey = left_is_first ? std::move(eq->left) : std::move(eq->right);
  BoundExprPtr rkey = left_is_first ? std::move(eq->right) : std::move(eq->left);
  // Keys are evaluated against the child schemas: remap the right key.
  RECDB_RETURN_NOT_OK(rkey->RemapColumns(
      ShiftMapping(nlj->schema.NumColumns(), left_width)));
  hj->left_key = std::move(lkey);
  hj->right_key = std::move(rkey);
  hj->children = std::move(nlj->children);
  return PlanNodePtr(std::move(hj));
}

Result<PlanNodePtr> Optimizer::JoinToJoinRecommend(PlanNodePtr node,
                                                   bool* changed) {
  if (node->type != PlanNodeType::kHashJoin) return node;
  auto* hj = static_cast<HashJoinPlan*>(node.get());
  if (hj->left_key->kind != BoundExprKind::kColumn ||
      hj->right_key->kind != BoundExprKind::kColumn) {
    return node;
  }

  // Which side is a (Filter)Recommend keyed on its item column?
  auto is_rec_side = [](const PlanNode& n, const BoundExpr& key) {
    if (n.type != PlanNodeType::kRecommend &&
        n.type != PlanNodeType::kFilterRecommend) {
      return false;
    }
    const auto& rec = static_cast<const RecommendPlan&>(n);
    return key.column_idx == rec.item_col_idx;
  };

  int rec_side = -1;
  if (is_rec_side(*hj->children[0], *hj->left_key)) rec_side = 0;
  else if (is_rec_side(*hj->children[1], *hj->right_key)) rec_side = 1;
  if (rec_side < 0) return node;

  auto* rec = static_cast<RecommendPlan*>(hj->children[rec_side].get());
  // JOINRECOMMEND targets specific querying users (paper Section IV-B.2);
  // without a user filter, scoring is driven per-user anyway — require the
  // pushed-down user list. Item pushdowns would conflict with the outer
  // relation driving item choice; bail out in that case.
  if (!rec->user_ids.has_value() || rec->user_ids->empty()) return node;
  if (rec->item_ids.has_value()) return node;
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleJoinRecommend);

  size_t rec_width = rec->schema.NumColumns();
  PlanNodePtr outer = std::move(hj->children[1 - rec_side]);
  size_t outer_width = outer->schema.NumColumns();
  const BoundExpr& outer_key =
      rec_side == 0 ? *hj->right_key : *hj->left_key;

  auto jr = std::make_unique<JoinRecommendPlan>();
  jr->rec = rec->rec;
  jr->alias = rec->alias;
  jr->user_col_idx = rec->user_col_idx;
  jr->item_col_idx = rec->item_col_idx;
  jr->rating_col_idx = rec->rating_col_idx;
  jr->include_rated = rec->include_rated;
  jr->user_ids = *rec->user_ids;
  jr->outer_item_col = outer_key.column_idx;
  jr->schema = ExecSchema::Concat(rec->schema, outer->schema);
  jr->children.push_back(std::move(outer));

  BoundExprPtr residual = std::move(hj->residual);
  PlanNodePtr result = std::move(jr);

  if (rec_side == 0) {
    // Output order rec ++ outer matches the join's left ++ right directly.
    result = WrapFilter(std::move(result), std::move(residual));
    return result;
  }
  // Join output was outer ++ rec; JoinRecommend emits rec ++ outer. Remap the
  // residual and add a permutation projection restoring the original order.
  size_t total = rec_width + outer_width;
  if (residual != nullptr) {
    std::vector<int> mapping(total, -1);
    for (size_t i = 0; i < outer_width; ++i) {
      mapping[i] = static_cast<int>(rec_width + i);
    }
    for (size_t i = 0; i < rec_width; ++i) {
      mapping[outer_width + i] = static_cast<int>(i);
    }
    RECDB_RETURN_NOT_OK(residual->RemapColumns(mapping));
    result = WrapFilter(std::move(result), std::move(residual));
  }
  auto proj = std::make_unique<ProjectPlan>();
  proj->schema = hj->schema;  // original outer ++ rec order
  for (size_t i = 0; i < outer_width; ++i) {
    proj->exprs.push_back(BoundExpr::MakeColumn(rec_width + i));
  }
  for (size_t i = 0; i < rec_width; ++i) {
    proj->exprs.push_back(BoundExpr::MakeColumn(i));
  }
  proj->children.push_back(std::move(result));
  return PlanNodePtr(std::move(proj));
}

Result<PlanNodePtr> Optimizer::TopNToIndexRecommend(PlanNodePtr node,
                                                    bool* changed) {
  if (node->type != PlanNodeType::kTopN) return node;
  auto* topn = static_cast<TopNPlan*>(node.get());
  if (topn->n == 0 || topn->keys.size() != 1 || !topn->keys[0].desc) {
    return node;
  }
  const BoundExpr& key = *topn->keys[0].expr;
  if (key.kind != BoundExprKind::kColumn) return node;
  PlanNode* child = topn->children[0].get();
  if (child->type != PlanNodeType::kRecommend &&
      child->type != PlanNodeType::kFilterRecommend) {
    return node;
  }
  auto* rec = static_cast<RecommendPlan*>(child);
  if (key.column_idx != rec->rating_col_idx) return node;
  if (rec->include_rated) return node;  // index stores unseen items only
  // An empty index can serve nobody: every lookup would fall back to the
  // model anyway, so keep the Recommend plan. (With materialized scores the
  // cost pass still weighs per-user coverage before committing.)
  if (rec->rec->score_index()->NumUsers() == 0) return node;
  *changed = true;
  obs::Count(obs::Counter::kPlannerRuleIndexRecommend);

  auto ir = std::make_unique<IndexRecommendPlan>();
  ir->rec = rec->rec;
  ir->alias = rec->alias;
  ir->user_col_idx = rec->user_col_idx;
  ir->item_col_idx = rec->item_col_idx;
  ir->rating_col_idx = rec->rating_col_idx;
  ir->schema = rec->schema;
  if (rec->user_ids.has_value()) ir->user_ids = *rec->user_ids;
  ir->item_ids = rec->item_ids;
  ir->per_user_limit = topn->n;
  topn->children[0] = std::move(ir);
  return node;
}

// ----------------------------------------------------------------------
// Phase 2: cost-based reconsideration
// ----------------------------------------------------------------------

namespace {

void CheckGrounded(const PlanNode& n, bool* any_scan, bool* all_analyzed) {
  if (n.type == PlanNodeType::kSeqScan) {
    *any_scan = true;
    const auto& s = static_cast<const SeqScanPlan&>(n);
    if (s.table == nullptr || !s.table->stats.has_value()) {
      *all_analyzed = false;
    }
  }
  for (const auto& c : n.children) CheckGrounded(*c, any_scan, all_analyzed);
}

/// True when every base table under `node` has ANALYZE statistics (and
/// there is at least one): the cardinality estimate is grounded in data,
/// not in the blind kDefaultTableRows guess.
bool EstimatesGrounded(const PlanNode& node) {
  bool any_scan = false, all_analyzed = true;
  CheckGrounded(node, &any_scan, &all_analyzed);
  return any_scan && all_analyzed;
}

}  // namespace

Result<PlanNodePtr> Optimizer::CostPass(PlanNodePtr node) {
  for (auto& child : node->children) {
    RECDB_ASSIGN_OR_RETURN(child, CostPass(std::move(child)));
  }
  RECDB_ASSIGN_OR_RETURN(node, ReconsiderItemPushdown(std::move(node)));
  RECDB_ASSIGN_OR_RETURN(node, ReconsiderJoinRecommend(std::move(node)));
  RECDB_ASSIGN_OR_RETURN(node, ReconsiderIndexRecommend(std::move(node)));
  RECDB_ASSIGN_OR_RETURN(node, ReconsiderPrunedTopN(std::move(node)));
  OrderFilterConjuncts(node.get());
  return node;
}

Result<PlanNodePtr> Optimizer::ReconsiderItemPushdown(PlanNodePtr node) {
  if (node->type != PlanNodeType::kFilterRecommend) return node;
  auto* rec = static_cast<RecommendPlan*>(node.get());
  if (!rec->item_ids.has_value() || rec->item_ids->empty()) return node;
  // Only reconsider once ANALYZE has run on the ratings table; without
  // statistics the plan must match the rule-only optimizer exactly.
  if (rec->table == nullptr || !rec->table->stats.has_value()) return node;

  const CostParams& p = cost_env_.params;
  RecStats rs = RecStats::From(*rec->rec);
  double users = rec->user_ids.has_value()
                     ? static_cast<double>(rec->user_ids->size())
                     : rs.num_users;
  users = std::max(1.0, users);
  double n_items = static_cast<double>(rec->item_ids->size());
  double per_user = rec->include_rated ? rs.num_items : rs.avg_unseen;
  // Pushed-down item list: probe + predict each listed item. Alternative:
  // predict every candidate once and filter the output (paper Fig. 6 —
  // FILTERRECOMMEND loses once the predicate stops being selective).
  double cost_push = users * n_items * (p.predict + p.item_probe);
  double cost_scan = users * per_user * (p.predict + p.filter_eval);
  if (cost_push <= cost_scan) return node;
  obs::Count(obs::Counter::kPlannerCostFlips);

  auto pred = std::make_unique<BoundExpr>();
  pred->kind = BoundExprKind::kInList;
  pred->left = BoundExpr::MakeColumn(rec->item_col_idx);
  for (int64_t id : *rec->item_ids) pred->in_values.push_back(Value::Int(id));
  rec->item_ids.reset();
  if (!rec->user_ids.has_value()) rec->type = PlanNodeType::kRecommend;
  rec->est_rows = rec->est_cost = -1;
  return WrapFilter(std::move(node), std::move(pred));
}

Result<PlanNodePtr> Optimizer::ReconsiderJoinRecommend(PlanNodePtr node) {
  if (node->type != PlanNodeType::kJoinRecommend) return node;
  auto* jr = static_cast<JoinRecommendPlan*>(node.get());
  if (jr->children.empty()) return node;
  PlanNode& outer = *jr->children[0];
  if (!EstimatesGrounded(outer)) return node;

  const CostParams& p = cost_env_.params;
  RecStats rs = RecStats::From(*jr->rec);
  double outer_rows = outer.EstimateRows(cost_env_);
  double users = static_cast<double>(std::max<size_t>(1, jr->user_ids.size()));
  // JoinRecommend predicts once per (outer row, user); the hash-join
  // alternative predicts each unseen item once and probes.
  double cost_join = outer_rows * users * (p.predict + p.item_probe);
  double cost_hash = users * rs.avg_unseen * p.predict +
                     (outer_rows + users * rs.avg_unseen) * p.hash_probe;
  if (cost_join <= cost_hash) return node;
  obs::Count(obs::Counter::kPlannerCostFlips);

  size_t outer_w = outer.schema.NumColumns();
  size_t rec_w = jr->schema.NumColumns() - outer_w;
  std::vector<ExecColumn> rec_cols(jr->schema.columns().begin(),
                                   jr->schema.columns().begin() + rec_w);
  auto rec = std::make_unique<RecommendPlan>(PlanNodeType::kFilterRecommend);
  rec->rec = jr->rec;
  rec->alias = jr->alias;
  rec->user_col_idx = jr->user_col_idx;
  rec->item_col_idx = jr->item_col_idx;
  rec->rating_col_idx = jr->rating_col_idx;
  rec->include_rated = jr->include_rated;
  rec->user_ids = jr->user_ids;
  rec->schema = ExecSchema(std::move(rec_cols));

  auto hj = std::make_unique<HashJoinPlan>();
  hj->schema = jr->schema;
  hj->left_key = BoundExpr::MakeColumn(jr->item_col_idx);
  hj->right_key = BoundExpr::MakeColumn(jr->outer_item_col);
  hj->children.push_back(std::move(rec));
  hj->children.push_back(std::move(jr->children[0]));
  return PlanNodePtr(std::move(hj));
}

Result<PlanNodePtr> Optimizer::ReconsiderIndexRecommend(PlanNodePtr node) {
  if (node->type != PlanNodeType::kIndexRecommend) return node;
  auto* ix = static_cast<IndexRecommendPlan*>(node.get());

  const CostParams& p = cost_env_.params;
  RecStats rs = RecStats::From(*ix->rec);
  double users = static_cast<double>(std::max<size_t>(1, ix->user_ids.size()));
  double coverage = IndexCoverageFraction(*ix->rec, ix->user_ids);
  double served = rs.avg_unseen;
  if (ix->per_user_limit > 0) {
    served = std::min(served, static_cast<double>(ix->per_user_limit));
  }
  if (ix->item_ids.has_value()) {
    served = std::min(served, static_cast<double>(ix->item_ids->size()));
  }
  // Covered users stream `served` entries from the index; uncovered users
  // fall back to the model (predict all unseen, then insert the scores).
  double cost_index =
      users * (coverage * served * p.index_entry +
               (1.0 - coverage) * rs.avg_unseen * (p.predict + p.index_entry));
  double cost_model = users * rs.avg_unseen * (p.predict + p.topn_entry);
  if (cost_index <= cost_model) return node;
  obs::Count(obs::Counter::kPlannerCostFlips);

  // Decline the index: recompute from the model; the TopN above still
  // applies the per-user limit.
  bool has_users = !ix->user_ids.empty();
  bool has_items = ix->item_ids.has_value();
  auto rec = std::make_unique<RecommendPlan>(
      has_users || has_items ? PlanNodeType::kFilterRecommend
                             : PlanNodeType::kRecommend);
  rec->rec = ix->rec;
  rec->alias = ix->alias;
  rec->user_col_idx = ix->user_col_idx;
  rec->item_col_idx = ix->item_col_idx;
  rec->rating_col_idx = ix->rating_col_idx;
  rec->schema = ix->schema;
  if (has_users) rec->user_ids = ix->user_ids;
  rec->item_ids = ix->item_ids;
  return PlanNodePtr(std::move(rec));
}

Result<PlanNodePtr> Optimizer::ReconsiderPrunedTopN(PlanNodePtr node) {
  if (!options_.enable_pruned_topn) return node;

  // A score-ordered TopN over a RECOMMEND always takes the bounded Top-k
  // driver when the structure allows it, for every model — it returns
  // exactly the exact plan's rows, so there is nothing to price.
  if (node->type != PlanNodeType::kTopN) return node;
  auto* topn = static_cast<TopNPlan*>(node.get());
  if (topn->n == 0 || topn->keys.size() != 1 || !topn->keys[0].desc) {
    return node;
  }
  const BoundExpr& key = *topn->keys[0].expr;
  if (key.kind != BoundExprKind::kColumn) return node;
  PlanNode* child = topn->children[0].get();

  // IndexRecommend: pruning changes only the index-miss fallback.
  if (child->type == PlanNodeType::kIndexRecommend) {
    auto* ix = static_cast<IndexRecommendPlan*>(child);
    if (ix->prune || key.column_idx != ix->rating_col_idx) return node;
    if (ix->item_ids.has_value() || ix->per_user_limit == 0) return node;
    ix->prune = true;
    ix->est_rows = ix->est_cost = -1;
    obs::Count(obs::Counter::kPrunePlanChosen);
    return node;
  }

  if (child->type != PlanNodeType::kRecommend &&
      child->type != PlanNodeType::kFilterRecommend) {
    return node;
  }
  auto* rec = static_cast<RecommendPlan*>(child);
  if (rec->prune || key.column_idx != rec->rating_col_idx) return node;
  if (rec->include_rated || rec->item_ids.has_value()) return node;
  rec->prune = true;
  rec->prune_limit = topn->n;
  rec->est_rows = rec->est_cost = -1;
  topn->est_rows = topn->est_cost = -1;
  obs::Count(obs::Counter::kPrunePlanChosen);
  return node;
}

void Optimizer::OrderFilterConjuncts(PlanNode* node) {
  if (node->type != PlanNodeType::kFilter || node->children.empty()) return;
  auto* f = static_cast<FilterPlan*>(node);
  if (f->predicate == nullptr) return;
  auto conjuncts = SplitConjuncts(std::move(f->predicate));
  if (conjuncts.size() > 1) {
    const PlanNode& input = *node->children[0];
    std::vector<double> sel(conjuncts.size());
    for (size_t i = 0; i < conjuncts.size(); ++i) {
      sel[i] = EstimateSelectivity(*conjuncts[i], input);
    }
    std::vector<size_t> order(conjuncts.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) { return sel[a] < sel[b]; });
    std::vector<BoundExprPtr> sorted;
    sorted.reserve(conjuncts.size());
    for (size_t i : order) sorted.push_back(std::move(conjuncts[i]));
    conjuncts = std::move(sorted);
  }
  f->predicate = CombineConjuncts(std::move(conjuncts));
}

}  // namespace recdb
