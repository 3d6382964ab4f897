#include "planner/expression.h"

#include <cmath>

#include "common/string_util.h"
#include "spatial/geometry.h"

namespace recdb {

namespace {

Result<Value> EvalArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (!a.is_numeric() || !b.is_numeric()) {
    return Status::ExecutionError("arithmetic on non-numeric values");
  }
  // Integer arithmetic stays integral except division.
  if (a.type() == TypeId::kInt64 && b.type() == TypeId::kInt64 &&
      op != BinaryOp::kDiv) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case BinaryOp::kAdd:
        return Value::Int(x + y);
      case BinaryOp::kSub:
        return Value::Int(x - y);
      case BinaryOp::kMul:
        return Value::Int(x * y);
      default:
        break;
    }
  }
  double x = a.AsNumeric(), y = b.AsNumeric();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Double(x + y);
    case BinaryOp::kSub:
      return Value::Double(x - y);
    case BinaryOp::kMul:
      return Value::Double(x * y);
    case BinaryOp::kDiv:
      if (y == 0) return Status::ExecutionError("division by zero");
      return Value::Double(x / y);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

/// Whether `a op b` holds for two non-NULL values.
bool CompareHolds(BinaryOp op, const Value& a, const Value& b) {
  if ((op == BinaryOp::kEq || op == BinaryOp::kNe) &&
      a.type() == TypeId::kString && b.type() == TypeId::kString) {
    // Equal strings compare 0; unequal lengths settle it without a memcmp.
    return (a.AsString() == b.AsString()) == (op == BinaryOp::kEq);
  }
  const int c = a.Compare(b);
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    default:
      return c >= 0;
  }
}

/// Whether a non-NULL `needle` is (or, negated, is not) in `list`.
bool InListHolds(const Value& needle, const std::vector<Value>& list,
                 bool negated) {
  for (const auto& v : list) {
    if (needle.SqlEquals(v)) return !negated;
  }
  return negated;
}

/// A column or constant operand, read where it lives; null for any other
/// kind (and for an out-of-range column, which Eval reports).
const Value* InPlace(const BoundExpr& e, const Tuple& tuple) {
  if (e.kind == BoundExprKind::kConstant) return &e.constant;
  if (e.kind == BoundExprKind::kColumn && e.column_idx < tuple.NumValues()) {
    return &tuple.At(e.column_idx);
  }
  return nullptr;
}

struct FuncDef {
  const char* name;
  ScalarFunction fn;
  size_t arity;
};
constexpr FuncDef kFuncs[] = {
    {"st_contains", ScalarFunction::kStContains, 2},
    {"st_dwithin", ScalarFunction::kStDWithin, 3},
    {"st_distance", ScalarFunction::kStDistance, 2},
    {"st_point", ScalarFunction::kStPoint, 2},
    {"cscore", ScalarFunction::kCScore, 2},
    {"abs", ScalarFunction::kAbs, 1},
};

std::string LiteralText(const Value& v) {
  return v.type() == TypeId::kString ? "'" + v.ToString() + "'"
                                     : v.ToString();
}

/// Coerce a value to geometry: pass geometry through, parse WKT strings.
Result<spatial::Geometry> AsGeom(const Value& v) {
  if (v.type() == TypeId::kGeometry) return v.AsGeometry();
  if (v.type() == TypeId::kString) {
    return spatial::Geometry::FromString(v.AsString());
  }
  return Status::ExecutionError("expected geometry, got " +
                                std::string(TypeIdToString(v.type())));
}

}  // namespace

Result<Value> BoundExpr::Eval(const Tuple& tuple) const {
  switch (kind) {
    case BoundExprKind::kConstant:
      return constant;
    case BoundExprKind::kColumn:
      if (column_idx >= tuple.NumValues()) {
        return Status::Internal("column index out of range");
      }
      return tuple.At(column_idx);
    case BoundExprKind::kBinary: {
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        RECDB_ASSIGN_OR_RETURN(bool holds, EvalPredicate(tuple));
        return Value::Bool(holds);
      }
      RECDB_ASSIGN_OR_RETURN(Value l, left->Eval(tuple));
      RECDB_ASSIGN_OR_RETURN(Value r, right->Eval(tuple));
      if (!IsComparison(op)) return EvalArith(op, l, r);
      if (l.is_null() || r.is_null()) return Value::Null();
      return Value::Bool(CompareHolds(op, l, r));
    }
    case BoundExprKind::kNot: {
      RECDB_ASSIGN_OR_RETURN(bool holds, EvalPredicate(tuple));
      return Value::Bool(holds);
    }
    case BoundExprKind::kNegate: {
      RECDB_ASSIGN_OR_RETURN(Value v, left->Eval(tuple));
      if (v.is_null()) return Value::Null();
      if (v.type() == TypeId::kInt64) return Value::Int(-v.AsInt());
      if (v.type() == TypeId::kDouble) return Value::Double(-v.AsDouble());
      return Status::ExecutionError("cannot negate non-numeric value");
    }
    case BoundExprKind::kFunction: {
      std::vector<Value> vals;
      vals.reserve(args.size());
      for (const auto& a : args) {
        RECDB_ASSIGN_OR_RETURN(Value v, a->Eval(tuple));
        vals.push_back(std::move(v));
      }
      switch (func) {
        case ScalarFunction::kStContains: {
          RECDB_ASSIGN_OR_RETURN(auto g1, AsGeom(vals[0]));
          RECDB_ASSIGN_OR_RETURN(auto g2, AsGeom(vals[1]));
          return Value::Bool(spatial::STContains(g1, g2));
        }
        case ScalarFunction::kStDWithin: {
          RECDB_ASSIGN_OR_RETURN(auto g1, AsGeom(vals[0]));
          RECDB_ASSIGN_OR_RETURN(auto g2, AsGeom(vals[1]));
          if (!vals[2].is_numeric()) {
            return Status::ExecutionError("ST_DWithin distance not numeric");
          }
          return Value::Bool(
              spatial::STDWithin(g1, g2, vals[2].AsNumeric()));
        }
        case ScalarFunction::kStDistance: {
          RECDB_ASSIGN_OR_RETURN(auto g1, AsGeom(vals[0]));
          RECDB_ASSIGN_OR_RETURN(auto g2, AsGeom(vals[1]));
          return Value::Double(spatial::STDistance(g1, g2));
        }
        case ScalarFunction::kStPoint: {
          if (!vals[0].is_numeric() || !vals[1].is_numeric()) {
            return Status::ExecutionError("ST_Point needs numeric args");
          }
          return Value::Geometry(spatial::Geometry::MakePoint(
              vals[0].AsNumeric(), vals[1].AsNumeric()));
        }
        case ScalarFunction::kCScore: {
          // Combined rating/proximity score (paper Query 8): monotone up in
          // predicted rating, down in distance.
          if (!vals[0].is_numeric() || !vals[1].is_numeric()) {
            return Status::ExecutionError("CScore needs numeric args");
          }
          double rating = vals[0].AsNumeric();
          double dist = vals[1].AsNumeric();
          if (dist < 0) return Status::ExecutionError("negative distance");
          return Value::Double(rating / (1.0 + dist));
        }
        case ScalarFunction::kAbs: {
          if (vals[0].is_null()) return Value::Null();
          if (vals[0].type() == TypeId::kInt64) {
            return Value::Int(std::llabs(vals[0].AsInt()));
          }
          if (vals[0].type() == TypeId::kDouble) {
            return Value::Double(std::fabs(vals[0].AsDouble()));
          }
          return Status::ExecutionError("ABS needs a numeric arg");
        }
      }
      return Status::Internal("unhandled function");
    }
    case BoundExprKind::kInList: {
      RECDB_ASSIGN_OR_RETURN(Value needle, left->Eval(tuple));
      if (needle.is_null()) return Value::Null();
      return Value::Bool(InListHolds(needle, in_values, negated));
    }
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> BoundExpr::EvalPredicate(const Tuple& tuple) const {
  // Connectives (Eval defers to this for them), and comparisons and
  // IN-lists over columns and constants, are decided without copying a
  // Value; anything else goes through Eval.
  // Either way a NULL comparison is false, as Eval's NULL is not truthy.
  switch (kind) {
    case BoundExprKind::kBinary: {
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
        RECDB_ASSIGN_OR_RETURN(bool l, left->EvalPredicate(tuple));
        if (l == (op == BinaryOp::kOr)) return l;
        return right->EvalPredicate(tuple);
      }
      if (!IsComparison(op)) break;
      const Value* l = InPlace(*left, tuple);
      const Value* r = InPlace(*right, tuple);
      if (l == nullptr || r == nullptr) break;
      return !l->is_null() && !r->is_null() && CompareHolds(op, *l, *r);
    }
    case BoundExprKind::kNot: {
      RECDB_ASSIGN_OR_RETURN(bool v, left->EvalPredicate(tuple));
      return !v;
    }
    case BoundExprKind::kInList: {
      const Value* needle = InPlace(*left, tuple);
      if (needle == nullptr) break;
      return !needle->is_null() && InListHolds(*needle, in_values, negated);
    }
    default:
      break;
  }
  RECDB_ASSIGN_OR_RETURN(Value v, Eval(tuple));
  return v.IsTruthy();
}

BoundExprPtr BoundExpr::Clone() const {
  auto e = std::make_unique<BoundExpr>();
  e->kind = kind;
  e->constant = constant;
  e->column_idx = column_idx;
  e->op = op;
  e->func = func;
  e->in_values = in_values;
  e->negated = negated;
  if (left) e->left = left->Clone();
  if (right) e->right = right->Clone();
  e->args.reserve(args.size());
  for (const auto& a : args) e->args.push_back(a->Clone());
  return e;
}

std::string BoundExpr::ToString(const ExecSchema& schema) const {
  switch (kind) {
    case BoundExprKind::kConstant:
      return LiteralText(constant);
    case BoundExprKind::kColumn: {
      if (column_idx >= schema.NumColumns()) return "?";
      const ExecColumn& c = schema.ColumnAt(column_idx);
      return c.table_alias.empty() ? c.name : c.table_alias + "." + c.name;
    }
    case BoundExprKind::kBinary:
      return "(" + left->ToString(schema) + " " + BinaryOpToString(op) + " " +
             right->ToString(schema) + ")";
    case BoundExprKind::kNot:
      return "NOT " + left->ToString(schema);
    case BoundExprKind::kNegate:
      return "-" + left->ToString(schema);
    case BoundExprKind::kFunction: {
      std::string out = "?";
      for (const auto& f : kFuncs) {
        if (f.fn == func) out = f.name;
      }
      out += "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString(schema);
      }
      return out + ")";
    }
    case BoundExprKind::kInList: {
      std::string out =
          left->ToString(schema) + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < in_values.size(); ++i) {
        if (i > 0) out += ", ";
        out += LiteralText(in_values[i]);
      }
      return out + ")";
    }
  }
  return "?";
}

void BoundExpr::CollectColumns(std::vector<size_t>* out) const {
  if (kind == BoundExprKind::kColumn) out->push_back(column_idx);
  if (left) left->CollectColumns(out);
  if (right) right->CollectColumns(out);
  for (const auto& a : args) a->CollectColumns(out);
}

Status BoundExpr::RemapColumns(const std::vector<int>& mapping) {
  if (kind == BoundExprKind::kColumn) {
    if (column_idx >= mapping.size() || mapping[column_idx] < 0) {
      return Status::Internal("column remap out of range");
    }
    column_idx = static_cast<size_t>(mapping[column_idx]);
  }
  if (left) RECDB_RETURN_NOT_OK(left->RemapColumns(mapping));
  if (right) RECDB_RETURN_NOT_OK(right->RemapColumns(mapping));
  for (const auto& a : args) RECDB_RETURN_NOT_OK(a->RemapColumns(mapping));
  return Status::OK();
}

BoundExprPtr BoundExpr::MakeConstant(Value v) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kConstant;
  e->constant = std::move(v);
  return e;
}

BoundExprPtr BoundExpr::MakeColumn(size_t idx) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kColumn;
  e->column_idx = idx;
  return e;
}

BoundExprPtr BoundExpr::MakeBinary(BinaryOp op, BoundExprPtr l,
                                   BoundExprPtr r) {
  auto e = std::make_unique<BoundExpr>();
  e->kind = BoundExprKind::kBinary;
  e->op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

Result<BoundExprPtr> BindExpr(const Expr& expr, const ExecSchema& schema) {
  auto out = std::make_unique<BoundExpr>();
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out->kind = BoundExprKind::kConstant;
      out->constant = expr.literal;
      return out;
    case ExprKind::kColumnRef: {
      RECDB_ASSIGN_OR_RETURN(size_t idx,
                             schema.Resolve(expr.qualifier, expr.column));
      out->kind = BoundExprKind::kColumn;
      out->column_idx = idx;
      return out;
    }
    case ExprKind::kBinary: {
      out->kind = BoundExprKind::kBinary;
      out->op = expr.op;
      RECDB_ASSIGN_OR_RETURN(out->left, BindExpr(*expr.left, schema));
      RECDB_ASSIGN_OR_RETURN(out->right, BindExpr(*expr.right, schema));
      return out;
    }
    case ExprKind::kNot: {
      out->kind = BoundExprKind::kNot;
      RECDB_ASSIGN_OR_RETURN(out->left, BindExpr(*expr.left, schema));
      return out;
    }
    case ExprKind::kNegate: {
      out->kind = BoundExprKind::kNegate;
      RECDB_ASSIGN_OR_RETURN(out->left, BindExpr(*expr.left, schema));
      return out;
    }
    case ExprKind::kFunctionCall: {
      out->kind = BoundExprKind::kFunction;
      const FuncDef* def = nullptr;
      for (const auto& f : kFuncs) {
        if (expr.func_name == f.name) {
          def = &f;
          break;
        }
      }
      if (def == nullptr) {
        return Status::BindError("unknown function " + expr.func_name);
      }
      if (expr.args.size() != def->arity) {
        return Status::BindError(
            expr.func_name + " expects " + std::to_string(def->arity) +
            " arguments, got " + std::to_string(expr.args.size()));
      }
      out->func = def->fn;
      for (const auto& a : expr.args) {
        RECDB_ASSIGN_OR_RETURN(auto bound, BindExpr(*a, schema));
        out->args.push_back(std::move(bound));
      }
      return out;
    }
    case ExprKind::kInList: {
      out->kind = BoundExprKind::kInList;
      out->negated = expr.negated;
      RECDB_ASSIGN_OR_RETURN(out->left, BindExpr(*expr.left, schema));
      for (const auto& item : expr.args) {
        if (item->kind != ExprKind::kLiteral) {
          return Status::BindError("IN list elements must be literals");
        }
        out->in_values.push_back(item->literal);
      }
      return out;
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

}  // namespace recdb
