// Cost model for recommendation-aware plan selection.
//
// Two statistic sources feed the model:
//   - ANALYZE statistics (stats/table_stats.h) persisted in the catalog:
//     row counts, per-column distinct/min-max and equi-width histograms.
//     Used for predicate selectivity and base-table cardinality.
//   - Live recommender state (rating matrix + RecScoreIndex): matrix
//     density, average ratings per user, and index coverage of the queried
//     users. Always available, even before any ANALYZE.
//
// PlanNode::EstimateRows / EstimateCost (declared in plan_node.h) are
// implemented here; they recurse bottom-up and cache their results in
// est_rows / est_cost for EXPLAIN rendering.
#pragma once

#include <cstdint>
#include <vector>

#include "planner/plan_node.h"
#include "stats/table_stats.h"

namespace recdb {

/// Per-row cost constants (arbitrary units; only ratios matter). Chosen so
/// the paper's selectivity crossovers (Figs 6-9) fall out: one model
/// prediction is ~40x a predicate evaluation, and serving a pre-computed
/// index entry is ~16x cheaper than predicting.
struct CostParams {
  double scan_row = 1.0;     // heap scan, per row emitted
  double predict = 8.0;      // one model prediction (user, item)
  double item_probe = 2.0;   // per-item overhead of an explicit item list
  double index_entry = 0.5;  // serving one pre-computed score-index entry
  double filter_eval = 0.2;  // evaluating one predicate conjunct on one row
  double hash_probe = 1.2;   // hash-table build or probe, per row
  double sort_entry = 0.5;   // full-sort work per row (log factor applied)
  double topn_entry = 0.2;   // bounded-heap work per row
};

/// Rows assumed for a base table that has never been ANALYZEd.
inline constexpr double kDefaultTableRows = 1000.0;

/// Live statistics of one recommender's rating matrix.
struct RecStats {
  double num_users = 0;
  double num_items = 0;
  double num_ratings = 0;
  double density = 0;           // ratings / (users * items)
  double avg_user_ratings = 0;  // ratings per distinct user
  double avg_unseen = 0;        // items an average user has NOT rated

  static RecStats From(const Recommender& rec);
};

/// Fraction of `users` whose scores are materialized in the RecScoreIndex.
/// An empty user list counts every known user (full-table recommendation).
double IndexCoverageFraction(const Recommender& rec,
                             const std::vector<int64_t>& users);

/// Environment threaded through EstimateRows / EstimateCost.
struct CostEnv {
  CostParams params;
};

/// Selectivity of `pred` against the output of `input`, using ANALYZE
/// statistics when the referenced columns resolve to an analyzed base table
/// and falling back to the fixed defaults in stats/table_stats.h otherwise.
/// Always in [0, 1]; never divides by zero on empty/degenerate stats.
double EstimateSelectivity(const BoundExpr& pred, const PlanNode& input);

/// Column statistics for `col_idx` of `node`'s output schema, walking
/// through pass-through operators and join concatenation down to an
/// analyzed base table. nullptr when unknown (projection, aggregation,
/// recommender-computed columns, or no ANALYZE stats).
const ColumnStats* ResolveColumnStats(const PlanNode& node, size_t col_idx);

/// Annotate the whole tree with est_rows / est_cost (EXPLAIN rendering).
void AnnotatePlan(PlanNode* root, const CostEnv& env);

}  // namespace recdb
