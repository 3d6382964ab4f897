// Two-phase plan optimizer.
//
// Phase 1 — normalization rewrites (paper Section IV-B's query-plan rules):
//   - merge stacked filters; push filter conjuncts below joins
//   - convert equality nested-loop joins to hash joins
//   - push uid/iid predicates into RECOMMEND  -> FILTERRECOMMEND
//   - rewrite item-equality joins over RECOMMEND -> JOINRECOMMEND
//   - rewrite top-k-by-predicted-score       -> INDEXRECOMMEND
// Each rule can be disabled via PlannerOptions for ablation studies.
//
// Phase 2 — cost-based reconsideration (PlannerOptions::enable_cost_based):
// using ANALYZE statistics and live recommender state, the optimizer may
// undo a phase-1 rewrite when the costed alternative is cheaper:
//   - FILTERRECOMMEND item pushdown -> RECOMMEND + residual filter when the
//     item list covers most of the catalog (paper Fig. 6's crossover)
//   - JOINRECOMMEND -> HashJoin(FILTERRECOMMEND, outer) when the outer
//     relation produces more rows than there are items to score
//   - INDEXRECOMMEND -> RECOMMEND when index coverage of the queried users
//     is too low to beat recomputing from the model
// It also orders conjunctive filter predicates by estimated selectivity and
// annotates every node with est_rows / est_cost for EXPLAIN.
//
// Last, always: a Filter directly over a SeqScan moves into the scan, which
// then builds tuples only for the rows the predicate passes; a scan under a
// COUNT(*)-only aggregate emits zero-width rows.
#pragma once

#include "planner/cost_model.h"
#include "planner/plan_node.h"
#include "planner/planner.h"

namespace recdb {

class Optimizer {
 public:
  explicit Optimizer(const PlannerOptions& options) : options_(options) {}

  /// Phase 1 to fixpoint (bounded passes), then phase 2 when enabled, then
  /// scan fusion.
  Result<PlanNodePtr> Optimize(PlanNodePtr plan);

 private:
  /// One post-order pass; sets *changed when any rule fired.
  Result<PlanNodePtr> RewritePass(PlanNodePtr node, bool* changed);

  /// Phase-1 local rules; each returns the (possibly replaced) node.
  Result<PlanNodePtr> MergeFilters(PlanNodePtr node, bool* changed);
  Result<PlanNodePtr> PushFilterThroughJoin(PlanNodePtr node, bool* changed);
  Result<PlanNodePtr> PushFilterIntoRecommend(PlanNodePtr node, bool* changed);
  Result<PlanNodePtr> NljToHashJoin(PlanNodePtr node, bool* changed);
  Result<PlanNodePtr> JoinToJoinRecommend(PlanNodePtr node, bool* changed);
  Result<PlanNodePtr> TopNToIndexRecommend(PlanNodePtr node, bool* changed);

  /// Phase-2: post-order cost-based reconsideration.
  Result<PlanNodePtr> CostPass(PlanNodePtr node);
  Result<PlanNodePtr> ReconsiderItemPushdown(PlanNodePtr node);
  Result<PlanNodePtr> ReconsiderJoinRecommend(PlanNodePtr node);
  Result<PlanNodePtr> ReconsiderIndexRecommend(PlanNodePtr node);
  /// Bounded Top-k: a (Filter)Recommend or IndexRecommend under a
  /// score-ordered TopN takes the bounded Top-k driver whenever the plan's
  /// structure allows it (unseen-only, no item pushdown), for every model —
  /// no cost comparison, no ANALYZE. Results are unchanged either way.
  Result<PlanNodePtr> ReconsiderPrunedTopN(PlanNodePtr node);
  /// Fuse each Filter directly over a SeqScan into the scan, carrying the
  /// Filter's estimates, and mark a scan whose parent is a COUNT(*)-only
  /// aggregate as emitting no columns (post-order).
  static PlanNodePtr FuseScans(PlanNodePtr node);
  /// Reorder a Filter's conjuncts by ascending estimated selectivity so the
  /// most selective (cheapest to fail) predicates run first.
  void OrderFilterConjuncts(PlanNode* node);

  PlannerOptions options_;
  CostEnv cost_env_;
};

/// Split an AND-tree into conjuncts (ownership moves out).
std::vector<BoundExprPtr> SplitConjuncts(BoundExprPtr expr);

/// AND-combine conjuncts; nullptr when the list is empty.
BoundExprPtr CombineConjuncts(std::vector<BoundExprPtr> conjuncts);

}  // namespace recdb
