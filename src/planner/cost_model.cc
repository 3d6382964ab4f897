#include "planner/cost_model.h"

#include <algorithm>
#include <cmath>

namespace recdb {

namespace {

double Clamp01(double x) { return std::min(1.0, std::max(0.0, x)); }

/// Mirror a comparison when the constant is on the left (5 < x  ==  x > 5).
BinaryOp MirrorOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;
  }
}

bool IsRangeOp(BinaryOp op) {
  return op == BinaryOp::kLt || op == BinaryOp::kLe || op == BinaryOp::kGt ||
         op == BinaryOp::kGe;
}

size_t CountConjuncts(const BoundExpr& e) {
  if (e.kind == BoundExprKind::kBinary && e.op == BinaryOp::kAnd) {
    return CountConjuncts(*e.left) + CountConjuncts(*e.right);
  }
  return 1;
}

double ChildRows(PlanNode& node, size_t i, const CostEnv& env) {
  return i < node.children.size() ? node.children[i]->EstimateRows(env) : 0;
}

double ChildCost(PlanNode& node, size_t i, const CostEnv& env) {
  return i < node.children.size() ? node.children[i]->EstimateCost(env) : 0;
}

}  // namespace

RecStats RecStats::From(const Recommender& rec) {
  RecStats s;
  const RatingMatrix& m = rec.live();
  s.num_users = static_cast<double>(m.NumUsers());
  s.num_items = static_cast<double>(m.NumItems());
  s.num_ratings = static_cast<double>(m.NumRatings());
  if (s.num_users > 0 && s.num_items > 0) {
    s.density = s.num_ratings / (s.num_users * s.num_items);
    s.avg_user_ratings = s.num_ratings / s.num_users;
    s.avg_unseen = std::max(0.0, s.num_items - s.avg_user_ratings);
  }
  return s;
}

double IndexCoverageFraction(const Recommender& rec,
                             const std::vector<int64_t>& users) {
  const RecScoreIndex& idx = rec.score_index();
  if (!users.empty()) {
    size_t covered = 0;
    for (int64_t u : users) covered += idx.HasUser(u) ? 1 : 0;
    return static_cast<double>(covered) / static_cast<double>(users.size());
  }
  size_t total = rec.live().NumUsers();
  if (total == 0) return 0.0;
  return std::min(1.0, static_cast<double>(idx.NumUsers()) /
                           static_cast<double>(total));
}

const ColumnStats* ResolveColumnStats(const PlanNode& node, size_t col_idx) {
  switch (node.type) {
    case PlanNodeType::kSeqScan: {
      const auto& s = static_cast<const SeqScanPlan&>(node);
      if (s.table != nullptr && s.table->stats.has_value() &&
          col_idx < s.table->stats->columns.size()) {
        return &s.table->stats->columns[col_idx];
      }
      return nullptr;
    }
    case PlanNodeType::kRecommend:
    case PlanNodeType::kFilterRecommend: {
      // Output is shaped like the ratings table, but the rating column
      // holds *predicted* scores — its stored statistics don't apply.
      const auto& r = static_cast<const RecommendPlan&>(node);
      if (col_idx == r.rating_col_idx) return nullptr;
      if (r.table != nullptr && r.table->stats.has_value() &&
          col_idx < r.table->stats->columns.size()) {
        return &r.table->stats->columns[col_idx];
      }
      return nullptr;
    }
    case PlanNodeType::kFilter:
    case PlanNodeType::kSort:
    case PlanNodeType::kTopN:
    case PlanNodeType::kLimit:
      return node.children.empty()
                 ? nullptr
                 : ResolveColumnStats(*node.children[0], col_idx);
    case PlanNodeType::kNestedLoopJoin:
    case PlanNodeType::kHashJoin: {
      if (node.children.size() != 2) return nullptr;
      size_t left_w = node.children[0]->schema.NumColumns();
      if (col_idx < left_w) {
        return ResolveColumnStats(*node.children[0], col_idx);
      }
      return ResolveColumnStats(*node.children[1], col_idx - left_w);
    }
    case PlanNodeType::kJoinRecommend: {
      // Schema is rec-columns ++ outer-columns; children[0] is the outer.
      if (node.children.empty()) return nullptr;
      size_t outer_w = node.children[0]->schema.NumColumns();
      size_t rec_w = node.schema.NumColumns() - outer_w;
      if (col_idx >= rec_w) {
        return ResolveColumnStats(*node.children[0], col_idx - rec_w);
      }
      return nullptr;
    }
    default:
      // Project / Aggregate compute fresh columns; no stats flow through.
      return nullptr;
  }
}

double EstimateSelectivity(const BoundExpr& pred, const PlanNode& input) {
  switch (pred.kind) {
    case BoundExprKind::kConstant:
      // Constant predicates are almost always TRUE leftovers of rewrites.
      return pred.constant.is_null() ? 0.0 : 1.0;
    case BoundExprKind::kNot:
      return Clamp01(1.0 - EstimateSelectivity(*pred.left, input));
    case BoundExprKind::kInList: {
      double sel;
      const ColumnStats* cs =
          (pred.left != nullptr && pred.left->kind == BoundExprKind::kColumn)
              ? ResolveColumnStats(input, pred.left->column_idx)
              : nullptr;
      if (cs != nullptr) {
        sel = cs->InListSelectivity(pred.in_values.size());
      } else {
        sel = std::min(
            1.0, static_cast<double>(pred.in_values.size()) *
                     kDefaultEqSelectivity);
      }
      return pred.negated ? Clamp01(1.0 - sel) : sel;
    }
    case BoundExprKind::kBinary: {
      if (pred.op == BinaryOp::kAnd) {
        return Clamp01(EstimateSelectivity(*pred.left, input) *
                       EstimateSelectivity(*pred.right, input));
      }
      if (pred.op == BinaryOp::kOr) {
        double a = EstimateSelectivity(*pred.left, input);
        double b = EstimateSelectivity(*pred.right, input);
        return Clamp01(a + b - a * b);
      }
      // Comparison: look for column-vs-constant in either order.
      const BoundExpr* col = nullptr;
      const BoundExpr* cst = nullptr;
      bool flipped = false;
      if (pred.left != nullptr && pred.right != nullptr) {
        if (pred.left->kind == BoundExprKind::kColumn &&
            pred.right->kind == BoundExprKind::kConstant) {
          col = pred.left.get();
          cst = pred.right.get();
        } else if (pred.right->kind == BoundExprKind::kColumn &&
                   pred.left->kind == BoundExprKind::kConstant) {
          col = pred.right.get();
          cst = pred.left.get();
          flipped = true;
        }
      }
      if (col == nullptr || cst == nullptr || cst->constant.is_null()) {
        return kDefaultSelectivity;
      }
      BinaryOp op = flipped ? MirrorOp(pred.op) : pred.op;
      const ColumnStats* cs = ResolveColumnStats(input, col->column_idx);
      if (op == BinaryOp::kEq) {
        return cs != nullptr ? cs->EqSelectivity() : kDefaultEqSelectivity;
      }
      if (op == BinaryOp::kNe) {
        double eq =
            cs != nullptr ? cs->EqSelectivity() : kDefaultEqSelectivity;
        return Clamp01(1.0 - eq);
      }
      if (IsRangeOp(op)) {
        if (cs != nullptr && cst->constant.is_numeric()) {
          return cs->RangeSelectivity(op, cst->constant.AsNumeric());
        }
        return kDefaultRangeSelectivity;
      }
      return kDefaultSelectivity;
    }
    default:
      return kDefaultSelectivity;
  }
}

double PlanNode::EstimateRows(const CostEnv& env) {
  if (est_rows >= 0) return est_rows;
  double rows = 0;
  switch (type) {
    case PlanNodeType::kSeqScan: {
      const auto& s = static_cast<const SeqScanPlan&>(*this);
      rows = (s.table != nullptr && s.table->stats.has_value())
                 ? static_cast<double>(s.table->stats->row_count)
                 : kDefaultTableRows;
      break;
    }
    case PlanNodeType::kRecommend:
    case PlanNodeType::kFilterRecommend: {
      const auto& r = static_cast<const RecommendPlan&>(*this);
      RecStats rs = RecStats::From(*r.rec);
      double users = r.user_ids.has_value()
                         ? static_cast<double>(r.user_ids->size())
                         : rs.num_users;
      double per_user = r.include_rated ? rs.num_items : rs.avg_unseen;
      if (r.item_ids.has_value()) {
        per_user =
            std::min(per_user, static_cast<double>(r.item_ids->size()));
      }
      rows = users * per_user;
      if (r.prune && r.prune_limit > 0) {
        // Pruned Top-K keeps one global heap: at most prune_limit rows.
        rows = std::min(rows, static_cast<double>(r.prune_limit));
      }
      break;
    }
    case PlanNodeType::kJoinRecommend: {
      const auto& j = static_cast<const JoinRecommendPlan&>(*this);
      rows = ChildRows(*this, 0, env) *
             static_cast<double>(std::max<size_t>(1, j.user_ids.size()));
      break;
    }
    case PlanNodeType::kIndexRecommend: {
      const auto& ix = static_cast<const IndexRecommendPlan&>(*this);
      RecStats rs = RecStats::From(*ix.rec);
      double per_user = rs.avg_unseen;
      if (ix.per_user_limit > 0) {
        per_user =
            std::min(per_user, static_cast<double>(ix.per_user_limit));
      }
      if (ix.item_ids.has_value()) {
        per_user =
            std::min(per_user, static_cast<double>(ix.item_ids->size()));
      }
      rows = static_cast<double>(std::max<size_t>(1, ix.user_ids.size())) *
             per_user;
      break;
    }
    case PlanNodeType::kFilter: {
      const auto& f = static_cast<const FilterPlan&>(*this);
      double in = ChildRows(*this, 0, env);
      double sel = (f.predicate != nullptr && !children.empty())
                       ? EstimateSelectivity(*f.predicate, *children[0])
                       : 1.0;
      rows = in * sel;
      break;
    }
    case PlanNodeType::kProject:
      rows = ChildRows(*this, 0, env);
      break;
    case PlanNodeType::kAggregate: {
      const auto& a = static_cast<const AggregatePlan&>(*this);
      double in = ChildRows(*this, 0, env);
      rows = a.group_keys.empty() ? 1.0 : std::max(1.0, in / 10.0);
      break;
    }
    case PlanNodeType::kNestedLoopJoin: {
      const auto& nlj = static_cast<const NestedLoopJoinPlan&>(*this);
      double l = ChildRows(*this, 0, env);
      double r = ChildRows(*this, 1, env);
      double sel = nlj.predicate != nullptr
                       ? EstimateSelectivity(*nlj.predicate, *this)
                       : 1.0;
      rows = l * r * sel;
      break;
    }
    case PlanNodeType::kHashJoin: {
      const auto& hj = static_cast<const HashJoinPlan&>(*this);
      double l = ChildRows(*this, 0, env);
      double r = ChildRows(*this, 1, env);
      // Equi-join: |L x R| / max(distinct of either key); FK-join fallback
      // min(L, R) when neither key column has statistics.
      double distinct = 0;
      for (const BoundExpr* key :
           {hj.left_key.get(), hj.right_key.get()}) {
        if (key == nullptr || key->kind != BoundExprKind::kColumn) continue;
        size_t child_i = key == hj.left_key.get() ? 0 : 1;
        if (child_i >= children.size()) continue;
        const ColumnStats* cs =
            ResolveColumnStats(*children[child_i], key->column_idx);
        if (cs != nullptr && cs->distinct_count > 0) {
          distinct =
              std::max(distinct, static_cast<double>(cs->distinct_count));
        }
      }
      rows = distinct > 0 ? (l * r) / distinct : std::min(l, r);
      if (hj.residual != nullptr) rows *= kDefaultSelectivity;
      break;
    }
    case PlanNodeType::kSort:
      rows = ChildRows(*this, 0, env);
      break;
    case PlanNodeType::kTopN: {
      const auto& t = static_cast<const TopNPlan&>(*this);
      rows = std::min(static_cast<double>(t.n), ChildRows(*this, 0, env));
      break;
    }
    case PlanNodeType::kLimit: {
      const auto& lim = static_cast<const LimitPlan&>(*this);
      rows = std::min(static_cast<double>(lim.n), ChildRows(*this, 0, env));
      break;
    }
  }
  est_rows = std::max(0.0, rows);
  return est_rows;
}

double PlanNode::EstimateCost(const CostEnv& env) {
  if (est_cost >= 0) return est_cost;
  const CostParams& p = env.params;
  double children_cost = 0;
  for (size_t i = 0; i < children.size(); ++i) {
    children_cost += ChildCost(*this, i, env);
  }
  double own = 0;
  switch (type) {
    case PlanNodeType::kSeqScan:
      own = EstimateRows(env) * p.scan_row;
      break;
    case PlanNodeType::kRecommend:
    case PlanNodeType::kFilterRecommend: {
      const auto& r = static_cast<const RecommendPlan&>(*this);
      RecStats rs = RecStats::From(*r.rec);
      double users = r.user_ids.has_value()
                         ? static_cast<double>(r.user_ids->size())
                         : rs.num_users;
      if (r.item_ids.has_value()) {
        // Explicit item list: each (user, item) pair is probed and scored.
        own = users * static_cast<double>(r.item_ids->size()) *
              (p.predict + p.item_probe);
      } else {
        // Also the bounded Top-k's price: an upper bound, since its walk
        // never scores more than the unseen items.
        double per_user = r.include_rated ? rs.num_items : rs.avg_unseen;
        own = users * per_user * p.predict;
      }
      break;
    }
    case PlanNodeType::kJoinRecommend: {
      const auto& j = static_cast<const JoinRecommendPlan&>(*this);
      own = ChildRows(*this, 0, env) *
            static_cast<double>(std::max<size_t>(1, j.user_ids.size())) *
            (p.predict + p.item_probe);
      break;
    }
    case PlanNodeType::kIndexRecommend: {
      const auto& ix = static_cast<const IndexRecommendPlan&>(*this);
      RecStats rs = RecStats::From(*ix.rec);
      double coverage = IndexCoverageFraction(*ix.rec, ix.user_ids);
      double users =
          static_cast<double>(std::max<size_t>(1, ix.user_ids.size()));
      double served = rs.avg_unseen;
      if (ix.per_user_limit > 0) {
        served = std::min(served, static_cast<double>(ix.per_user_limit));
      }
      // Covered users serve `served` entries from the index; uncovered
      // users fall back to the model (predict all unseen, then insert).
      double miss = rs.avg_unseen * (p.predict + p.index_entry);
      own = users * (coverage * served * p.index_entry +
                     (1.0 - coverage) * miss);
      break;
    }
    case PlanNodeType::kFilter: {
      const auto& f = static_cast<const FilterPlan&>(*this);
      size_t conjuncts =
          f.predicate != nullptr ? CountConjuncts(*f.predicate) : 0;
      own = ChildRows(*this, 0, env) * p.filter_eval *
            static_cast<double>(std::max<size_t>(1, conjuncts));
      break;
    }
    case PlanNodeType::kProject:
      own = ChildRows(*this, 0, env) * p.filter_eval;
      break;
    case PlanNodeType::kAggregate:
      own = ChildRows(*this, 0, env) * p.hash_probe;
      break;
    case PlanNodeType::kNestedLoopJoin:
      own = ChildRows(*this, 0, env) * ChildRows(*this, 1, env) *
            p.filter_eval;
      break;
    case PlanNodeType::kHashJoin:
      own = (ChildRows(*this, 0, env) + ChildRows(*this, 1, env)) *
            p.hash_probe;
      break;
    case PlanNodeType::kSort: {
      double n = ChildRows(*this, 0, env);
      own = n * p.sort_entry * std::log2(std::max(2.0, n));
      break;
    }
    case PlanNodeType::kTopN:
      own = ChildRows(*this, 0, env) * p.topn_entry;
      break;
    case PlanNodeType::kLimit:
      own = 0;
      break;
  }
  est_cost = children_cost + own;
  return est_cost;
}

void AnnotatePlan(PlanNode* root, const CostEnv& env) {
  if (root == nullptr) return;
  for (auto& c : root->children) AnnotatePlan(c.get(), env);
  root->EstimateRows(env);
  root->EstimateCost(env);
}

}  // namespace recdb
