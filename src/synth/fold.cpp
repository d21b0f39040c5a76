#include "synth/fold.h"

#include <vector>

#include "dcf/value.h"

namespace camad::synth {
namespace {

std::size_t folded_ops = 0;  // per-call accumulator (single-threaded)

}  // namespace

ExprPtr fold_expr(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return Expr::literal_of(e.literal);
    case ExprKind::kVariable:
      return Expr::variable(e.name);
    case ExprKind::kUnary: {
      ExprPtr operand = fold_expr(*e.lhs);
      if (operand->kind == ExprKind::kLiteral) {
        const std::vector<dcf::Value> in{dcf::Value(operand->literal)};
        const dcf::Value v = dcf::evaluate_op(dcf::Operation{e.op, 0}, in);
        if (v.defined()) {
          ++folded_ops;
          return Expr::literal_of(v.raw());
        }
      }
      return Expr::unary(e.op, std::move(operand));
    }
    case ExprKind::kMux: {
      ExprPtr cond = fold_expr(*e.lhs);
      ExprPtr a = fold_expr(*e.rhs);
      ExprPtr b = fold_expr(*e.third);
      // kMux evaluates all operands eagerly (⊥ in either branch poisons
      // the result), so folding is only sound when all three are known.
      if (cond->kind == ExprKind::kLiteral && a->kind == ExprKind::kLiteral &&
          b->kind == ExprKind::kLiteral) {
        ++folded_ops;
        return Expr::literal_of(cond->literal != 0 ? a->literal : b->literal);
      }
      return Expr::mux(std::move(cond), std::move(a), std::move(b));
    }
    case ExprKind::kBinary: {
      ExprPtr lhs = fold_expr(*e.lhs);
      ExprPtr rhs = fold_expr(*e.rhs);
      if (lhs->kind == ExprKind::kLiteral &&
          rhs->kind == ExprKind::kLiteral) {
        const std::vector<dcf::Value> in{dcf::Value(lhs->literal),
                                         dcf::Value(rhs->literal)};
        const dcf::Value v = dcf::evaluate_op(dcf::Operation{e.op, 0}, in);
        if (v.defined()) {
          ++folded_ops;
          return Expr::literal_of(v.raw());
        }
      }
      return Expr::binary(e.op, std::move(lhs), std::move(rhs));
    }
  }
  return Expr::literal_of(0);  // unreachable
}

namespace {

void fold_block(Block& block);

void fold_stmt(Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kAssign:
      stmt.value = fold_expr(*stmt.value);
      break;
    case StmtKind::kIf:
      stmt.cond = fold_expr(*stmt.cond);
      fold_block(stmt.body);
      fold_block(stmt.els);
      break;
    case StmtKind::kWhile:
      stmt.cond = fold_expr(*stmt.cond);
      fold_block(stmt.body);
      break;
    case StmtKind::kPar:
      for (Block& branch : stmt.branches) fold_block(branch);
      break;
  }
}

void fold_block(Block& block) {
  for (StmtPtr& stmt : block.stmts) fold_stmt(*stmt);
}

}  // namespace

std::size_t fold_constants(Program& program) {
  folded_ops = 0;
  fold_block(program.body);
  return folded_ops;
}

}  // namespace camad::synth
