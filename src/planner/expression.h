// Bound, evaluable expressions: the output of binding an AST Expr against an
// ExecSchema. Column references hold tuple indices; scalar functions
// (ST_Contains, ST_DWithin, ST_Distance, ST_Point, CScore, ABS) are compiled
// to an enum dispatch.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "parser/ast.h"
#include "planner/exec_schema.h"
#include "types/tuple.h"

namespace recdb {

enum class ScalarFunction {
  kStContains,
  kStDWithin,
  kStDistance,
  kStPoint,
  kCScore,  // combined rating/proximity score: rating / (1 + distance)
  kAbs,
};

enum class BoundExprKind {
  kConstant,
  kColumn,
  kBinary,
  kNot,
  kNegate,
  kFunction,
  kInList,
};

class BoundExpr;
using BoundExprPtr = std::unique_ptr<BoundExpr>;

class BoundExpr {
 public:
  BoundExprKind kind;

  // kConstant
  Value constant;

  // kColumn
  size_t column_idx = 0;

  // kBinary
  BinaryOp op = BinaryOp::kEq;
  BoundExprPtr left;   // also operand for kNot / kNegate and needle for kInList
  BoundExprPtr right;

  // kFunction
  ScalarFunction func = ScalarFunction::kAbs;
  std::vector<BoundExprPtr> args;

  // kInList: constants to match against (all literals after binding)
  std::vector<Value> in_values;
  bool negated = false;

  /// Evaluate against a tuple.
  Result<Value> Eval(const Tuple& tuple) const;

  /// Evaluate as a boolean predicate (SQL truthiness; NULL -> false).
  Result<bool> EvalPredicate(const Tuple& tuple) const;

  BoundExprPtr Clone() const;

  /// SQL-like text with column names read from `schema` (EXPLAIN).
  std::string ToString(const ExecSchema& schema) const;

  /// All column indices referenced (for pushdown analysis).
  void CollectColumns(std::vector<size_t>* out) const;

  /// Rewrite every column index through `mapping` (old index -> new index);
  /// indices absent from the mapping are an internal error.
  Status RemapColumns(const std::vector<int>& mapping);

  static BoundExprPtr MakeConstant(Value v);
  static BoundExprPtr MakeColumn(size_t idx);
  static BoundExprPtr MakeBinary(BinaryOp op, BoundExprPtr l, BoundExprPtr r);
};

/// Bind an AST expression against a schema. Errors on unknown/ambiguous
/// columns, unknown functions, or wrong arity.
Result<BoundExprPtr> BindExpr(const Expr& expr, const ExecSchema& schema);

}  // namespace recdb
