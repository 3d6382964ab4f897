// Physical plan nodes. The planner builds this tree, the optimizer rewrites
// it (predicate pushdown, recommendation-aware operator selection), and the
// executor factory turns each node into a Volcano iterator.
//
// The recommendation-aware family mirrors the paper's operators:
//   kRecommend       — full RECOMMEND: scores every (user, unseen item) pair
//   kFilterRecommend — user/item/rating predicates pushed into scoring
//   kJoinRecommend   — outer relation drives which items get scored
//   kIndexRecommend  — serves from the pre-computed RecScoreIndex
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "planner/exec_schema.h"
#include "planner/expression.h"
#include "recommender/recommender.h"
#include "storage/catalog.h"

namespace recdb {

enum class PlanNodeType {
  kSeqScan,
  kRecommend,
  kFilterRecommend,
  kJoinRecommend,
  kIndexRecommend,
  kFilter,
  kProject,
  kAggregate,
  kNestedLoopJoin,
  kHashJoin,
  kSort,
  kTopN,
  kLimit,
};

const char* PlanNodeTypeToString(PlanNodeType t);

struct PlanNode;
using PlanNodePtr = std::unique_ptr<PlanNode>;

struct SortKey {
  BoundExprPtr expr;
  bool desc = false;
};

/// Cost-model environment (defined in cost_model.h): constant cost
/// parameters plus live recommender statistics.
struct CostEnv;

/// EXPLAIN ANALYZE: per-plan-node actual emitted-row counters, keyed by the
/// node's address (nodes are heap-allocated and stable for a query's life).
using ActualRowMap = std::unordered_map<const PlanNode*, uint64_t>;

struct PlanNode {
  explicit PlanNode(PlanNodeType t) : type(t) {}
  virtual ~PlanNode() = default;

  PlanNodeType type;
  ExecSchema schema;
  std::vector<PlanNodePtr> children;

  /// Cost-phase annotations (negative = not annotated; EXPLAIN omits them).
  double est_rows = -1;
  double est_cost = -1;

  /// Estimated output cardinality / cumulative cost, computed bottom-up and
  /// cached in est_rows / est_cost (implemented in cost_model.cc).
  double EstimateRows(const CostEnv& env);
  double EstimateCost(const CostEnv& env);

  /// One-line operator description (EXPLAIN output).
  virtual std::string Describe() const;

  /// Multi-line indented plan rendering. With `actual`, each node line gains
  /// `(est=N act=M)` (EXPLAIN ANALYZE); otherwise annotated nodes show
  /// `(est=N)` only.
  std::string ToString(int indent = 0,
                       const ActualRowMap* actual = nullptr) const;
};

/// Sequential heap scan of a base table.
struct SeqScanPlan : PlanNode {
  SeqScanPlan() : PlanNode(PlanNodeType::kSeqScan) {}
  TableInfo* table = nullptr;
  std::string alias;
  std::string Describe() const override;
};

/// RECOMMEND operator family (kRecommend / kFilterRecommend). Emits tuples
/// shaped like the ratings table: user id, item id and predicted score at
/// their column positions, NULL elsewhere.
struct RecommendPlan : PlanNode {
  explicit RecommendPlan(PlanNodeType t = PlanNodeType::kRecommend)
      : PlanNode(t) {}
  Recommender* rec = nullptr;
  /// Ratings table backing the recommender (for ANALYZE statistics).
  TableInfo* table = nullptr;
  std::string alias;
  /// Column positions inside `schema` for uid / iid / predicted rating.
  size_t user_col_idx = 0;
  size_t item_col_idx = 0;
  size_t rating_col_idx = 0;
  /// Emit already-rated items with their actual rating (Algorithm 1's
  /// literal behaviour) instead of skipping them.
  bool include_rated = false;
  // FilterRecommend pushdowns (empty optional = unconstrained).
  std::optional<std::vector<int64_t>> user_ids;
  std::optional<std::vector<int64_t>> item_ids;
  /// Bounded Top-k mode (set by the optimizer under every score-ordered
  /// TopN whose structure allows it): emit only the global top-`prune_limit`
  /// unseen (user, item) pairs, selected per user over doubles — densely
  /// for CF, over the CandidateIndex bound blocks for SVD — under a shared
  /// threshold, with tuples built only for the survivors. Result set is
  /// bit-identical to the exact path under the parent TopN.
  bool prune = false;
  size_t prune_limit = 0;
  std::string Describe() const override;
};

/// JOINRECOMMEND: children[0] is the outer relation; each user scores only
/// the outer tuples' items (a FilterRecommend over the outer's item list).
/// Rows come user-major: users in ascending id, then outer tuples in outer
/// order. Output schema is recommend-columns ++ outer-columns.
struct JoinRecommendPlan : PlanNode {
  JoinRecommendPlan() : PlanNode(PlanNodeType::kJoinRecommend) {}
  Recommender* rec = nullptr;
  std::string alias;
  size_t user_col_idx = 0;
  size_t item_col_idx = 0;
  size_t rating_col_idx = 0;
  bool include_rated = false;
  std::vector<int64_t> user_ids;   // querying users (non-empty)
  size_t outer_item_col = 0;       // item-id column in the outer schema
  std::string Describe() const override;
};

/// INDEXRECOMMEND: serves pre-computed scores from the RecScoreIndex
/// best-first (paper Algorithm 3). Falls back to the model for users whose
/// scores are not materialized (cache miss).
struct IndexRecommendPlan : PlanNode {
  IndexRecommendPlan() : PlanNode(PlanNodeType::kIndexRecommend) {}
  Recommender* rec = nullptr;
  std::string alias;
  size_t user_col_idx = 0;
  size_t item_col_idx = 0;
  size_t rating_col_idx = 0;
  std::vector<int64_t> user_ids;  // uPred (non-empty)
  double min_score = -std::numeric_limits<double>::infinity();  // rPred
  std::optional<std::vector<int64_t>> item_ids;                 // iPred
  /// Per-user emission cap (the ORDER BY score DESC LIMIT k rewrite);
  /// 0 = unlimited.
  size_t per_user_limit = 0;
  /// Run the model fallback on cache misses through the bounded Top-k
  /// (requires per_user_limit > 0 and no item pushdown).
  bool prune = false;
  std::string Describe() const override;
};

struct FilterPlan : PlanNode {
  FilterPlan() : PlanNode(PlanNodeType::kFilter) {}
  BoundExprPtr predicate;
  std::string Describe() const override;
};

struct ProjectPlan : PlanNode {
  ProjectPlan() : PlanNode(PlanNodeType::kProject) {}
  std::vector<BoundExprPtr> exprs;
  /// SELECT DISTINCT: suppress duplicate output rows (first occurrence
  /// wins, so sorted input stays sorted).
  bool distinct = false;
  std::string Describe() const override;
};

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

const char* AggKindToString(AggKind k);

/// Hash aggregation: one output tuple per distinct group-key vector, laid
/// out as [group keys..., aggregate results...]. With no group keys, exactly
/// one row is produced (even on empty input, per SQL).
struct AggregatePlan : PlanNode {
  AggregatePlan() : PlanNode(PlanNodeType::kAggregate) {}
  struct Agg {
    AggKind kind = AggKind::kCountStar;
    BoundExprPtr arg;  // null for COUNT(*)
  };
  std::vector<BoundExprPtr> group_keys;
  std::vector<Agg> aggs;
  std::string Describe() const override;
};

struct NestedLoopJoinPlan : PlanNode {
  NestedLoopJoinPlan() : PlanNode(PlanNodeType::kNestedLoopJoin) {}
  BoundExprPtr predicate;  // over concat(left, right); null = cross product
  std::string Describe() const override;
};

struct HashJoinPlan : PlanNode {
  HashJoinPlan() : PlanNode(PlanNodeType::kHashJoin) {}
  BoundExprPtr left_key;   // over left schema
  BoundExprPtr right_key;  // over right schema
  BoundExprPtr residual;   // over concat schema; may be null
  std::string Describe() const override;
};

struct SortPlan : PlanNode {
  SortPlan() : PlanNode(PlanNodeType::kSort) {}
  std::vector<SortKey> keys;
  std::string Describe() const override;
};

struct TopNPlan : PlanNode {
  TopNPlan() : PlanNode(PlanNodeType::kTopN) {}
  std::vector<SortKey> keys;
  size_t n = 0;
  std::string Describe() const override;
};

struct LimitPlan : PlanNode {
  LimitPlan() : PlanNode(PlanNodeType::kLimit) {}
  size_t n = 0;
  std::string Describe() const override;
};

}  // namespace recdb
