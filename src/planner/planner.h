// Planner: binds a parsed SELECT against the catalog and recommender
// registry and produces an executable plan tree.
//
// Plan shape before optimization:
//   Project( [TopN|Sort|Limit]( Filter( cross-join of scans/recommends ) ) )
// The RECOMMEND clause replaces the ratings table's scan with a Recommend
// node whose output is shaped like the ratings table (paper Section IV-B:
// the operator is always pushed to the bottom of the pipeline).
#pragma once

#include "api/recommender_registry.h"
#include "parser/ast.h"
#include "planner/plan_node.h"
#include "storage/catalog.h"

namespace recdb {

struct PlannerOptions {
  /// Push uid/iid predicates into the RECOMMEND operator (FilterRecommend).
  bool enable_filter_recommend = true;
  /// Rewrite item-equality joins over RECOMMEND into JoinRecommend.
  bool enable_join_recommend = true;
  /// Rewrite top-k-by-score over RECOMMEND into IndexRecommend.
  bool enable_index_recommend = true;
  /// Convert equality nested-loop joins into hash joins.
  bool enable_hash_join = true;
  /// Emit already-rated items with their actual rating (Algorithm 1's
  /// literal behaviour). Default: unseen items only (paper prose).
  bool include_rated = false;
  /// Phase-2 cost-based reconsideration: using ANALYZE statistics and live
  /// recommender state, undo a rule rewrite when the alternative is cheaper,
  /// order filter conjuncts by selectivity, and annotate EXPLAIN with
  /// est_rows/est_cost. Off = rule-only planning (pre-cost behaviour).
  bool enable_cost_based = true;
  /// Bounded Top-k: the cost pass runs every score-ordered TopN over a
  /// RECOMMEND through the bounded Top-k driver (dense selection for CF,
  /// WAND-style block bounds for SVD) whenever the plan's structure allows
  /// it, with or without ANALYZE. Result sets are bit-identical to the
  /// exact plan; off = always score the full catalog and order it in a
  /// TopN (the exact reference plan). The rule lives in the cost pass, so
  /// rule-only planning (enable_cost_based = false) also keeps the exact
  /// plan.
  bool enable_pruned_topn = true;
};

/// One-line summary of the active options for the EXPLAIN header, e.g.
/// "options: filter_recommend=on join_recommend=on index_recommend=on
///  hash_join=on cost_based=on parallelism=4".
std::string PlannerOptionsSummary(const PlannerOptions& options);

struct PlannedQuery {
  PlanNodePtr plan;
  std::vector<std::string> output_names;
};

class Planner {
 public:
  Planner(Catalog* catalog, RecommenderRegistry* registry,
          PlannerOptions options = {})
      : catalog_(catalog), registry_(registry), options_(options) {}

  /// Bind + plan (no optimization; see Optimizer).
  Result<PlannedQuery> PlanSelect(const SelectStatement& stmt);

  const PlannerOptions& options() const { return options_; }

 private:
  /// Build the base input for one FROM entry: a SeqScan, or a Recommend
  /// node when the RECOMMEND clause targets this table reference.
  Result<PlanNodePtr> PlanTableRef(const SelectStatement& stmt,
                                   const TableRef& ref,
                                   bool is_recommend_target);

  /// Which FROM entry the RECOMMEND clause applies to.
  Result<size_t> FindRecommendTarget(const SelectStatement& stmt) const;

  Catalog* catalog_;
  RecommenderRegistry* registry_;
  PlannerOptions options_;
};

}  // namespace recdb
