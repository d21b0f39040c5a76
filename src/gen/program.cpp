#include "gen/program.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "dcf/ops.h"
#include "util/rng.h"

namespace camad::gen {
namespace {

using dcf::OpCode;
using synth::Block;
using synth::Expr;
using synth::ExprPtr;
using synth::Program;
using synth::Stmt;
using synth::StmtPtr;

/// Operators that always produce a defined value from defined operands —
/// safe inside branch conditions (a ⊥ guard deadlocks the net).
constexpr OpCode kTotalBinary[] = {
    OpCode::kAdd, OpCode::kSub, OpCode::kMul, OpCode::kAnd,
    OpCode::kOr,  OpCode::kXor, OpCode::kEq,  OpCode::kNe,
    OpCode::kLt,  OpCode::kLe,  OpCode::kGt,  OpCode::kGe,
};
/// Partial operators: ⊥ on divide-by-zero / out-of-range shift.
constexpr OpCode kPartialBinary[] = {
    OpCode::kDiv, OpCode::kMod, OpCode::kShl, OpCode::kShr,
};

/// What a generation context may touch. Arms of one branching construct
/// get disjoint `writable` and `inputs` sets (rule 1 + stream-race
/// freedom); `frozen` is readable state no concurrent arm writes.
struct Scope {
  std::vector<std::string> writable;
  std::vector<std::string> frozen;
  std::vector<std::string> inputs;

  [[nodiscard]] std::vector<std::string> readable_vars() const {
    std::vector<std::string> out = writable;
    out.insert(out.end(), frozen.begin(), frozen.end());
    return out;
  }
};

/// Operator nesting of a generated expression.
constexpr std::size_t kExprDepth = 2;

class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  Program run() {
    Program p;
    p.inputs = {"a0", "a1"};
    p.outputs = {"o0"};
    p.variables = {"v0", "v1", "v2", "v3"};

    Scope top{p.variables, {}, p.inputs};

    // Prologue: initialize every register from inputs/literals only (an
    // uninitialized sibling read would seed ⊥, which a later branch
    // condition would turn into a — legal but useless — deadlock).
    const Scope init_scope{{}, {}, p.inputs};
    for (const std::string& v : p.variables) {
      p.body.stmts.push_back(assign(v, leaf(init_scope)));
    }
    gen_block(p.body, top, /*depth=*/3);
    // Epilogue: every output observes something (external events exist).
    for (const std::string& o : p.outputs) {
      p.body.stmts.push_back(assign(o, gen_expr(top, 1, false)));
    }
    return p;
  }

 private:
  // --- small helpers --------------------------------------------------------
  StmtPtr assign(std::string target, ExprPtr value) {
    auto s = std::make_unique<Stmt>();
    s->kind = synth::StmtKind::kAssign;
    s->target = std::move(target);
    s->value = std::move(value);
    return s;
  }

  const std::string& pick(const std::vector<std::string>& v) {
    return v[rng_.below(v.size())];
  }

  /// Deterministic Fisher-Yates shuffle.
  void shuffle(std::vector<std::string>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng_.below(i)]);
    }
  }

  /// Splits `pool` into `parts` disjoint subsets. Every element lands in
  /// exactly one part or in the returned leftover ("frozen") set. The
  /// first `min_filled` parts are guaranteed non-empty when the pool is
  /// large enough.
  std::vector<std::vector<std::string>> partition(
      std::vector<std::string> pool, std::size_t parts,
      std::size_t min_filled, std::vector<std::string>* leftover) {
    shuffle(pool);
    std::vector<std::vector<std::string>> out(parts);
    std::size_t next = 0;
    for (std::size_t i = 0; i < min_filled && next < pool.size(); ++i) {
      out[i].push_back(pool[next++]);
    }
    for (; next < pool.size(); ++next) {
      // parts + 1 buckets: the extra one is the frozen leftover.
      const std::size_t bucket = rng_.below(parts + 1);
      if (bucket == parts) {
        if (leftover != nullptr) leftover->push_back(pool[next]);
      } else {
        out[bucket].push_back(pool[next]);
      }
    }
    return out;
  }

  // --- expressions ----------------------------------------------------------
  ExprPtr leaf(const Scope& scope) {
    const std::vector<std::string> vars = scope.readable_vars();
    // Bias toward variables/inputs so dataflow actually flows.
    const bool want_var = !vars.empty() && rng_.chance(0.45);
    if (want_var) return Expr::variable(pick(vars));
    const bool want_input = !scope.inputs.empty() && rng_.chance(0.5);
    if (want_input) return Expr::variable(pick(scope.inputs));
    if (!vars.empty() && rng_.chance(0.5)) return Expr::variable(pick(vars));
    return Expr::literal_of(rng_.range(0, 9));
  }

  ExprPtr gen_expr(const Scope& scope, std::size_t depth, bool condition) {
    if (depth == 0 || rng_.chance(0.35)) return leaf(scope);
    const double roll = rng_.uniform();
    if (roll < 0.12) {
      const OpCode op = rng_.chance(0.5) ? OpCode::kNeg : OpCode::kNot;
      return Expr::unary(op, gen_expr(scope, depth - 1, condition));
    }
    if (!condition && roll < 0.2) {
      return Expr::mux(gen_expr(scope, depth - 1, condition),
                       gen_expr(scope, depth - 1, condition),
                       gen_expr(scope, depth - 1, condition));
    }
    OpCode op;
    if (!condition && rng_.chance(0.12)) {
      op = kPartialBinary[rng_.below(std::size(kPartialBinary))];
    } else {
      op = kTotalBinary[rng_.below(std::size(kTotalBinary))];
    }
    return Expr::binary(op, gen_expr(scope, depth - 1, condition),
                        gen_expr(scope, depth - 1, condition));
  }

  // --- statements -----------------------------------------------------------
  void gen_block(Block& block, const Scope& scope, std::size_t depth) {
    const std::size_t n = 1 + rng_.below(3);
    for (std::size_t i = 0; i < n; ++i) gen_stmt(block, scope, depth);
  }

  void gen_stmt(Block& block, const Scope& scope, std::size_t depth) {
    const bool composite_ok = depth > 0 && scope.writable.size() >= 2;
    if (composite_ok && rng_.chance(0.2)) {
      gen_par(block, scope, depth);
      return;
    }
    if (composite_ok && rng_.chance(0.2)) {
      gen_while(block, scope, depth);
      return;
    }
    if (depth > 0 && !scope.writable.empty() && rng_.chance(0.25)) {
      gen_if(block, scope, depth);
      return;
    }
    if (scope.writable.empty()) return;  // nothing assignable here
    block.stmts.push_back(
        assign(pick(scope.writable), gen_expr(scope, kExprDepth, false)));
  }

  void gen_if(Block& block, const Scope& scope, std::size_t depth) {
    auto s = std::make_unique<Stmt>();
    s->kind = synth::StmtKind::kIf;
    s->cond = gen_expr(scope, kExprDepth, /*condition=*/true);

    // if/else arms are structurally parallel (Def 2.3 ∥): disjoint write
    // sets and disjoint input channels, shared reads only via `frozen`.
    std::vector<std::string> frozen = scope.frozen;
    const auto var_parts = partition(scope.writable, 2, 1, &frozen);
    std::vector<std::string> unused_inputs;
    const auto input_parts = partition(scope.inputs, 2, 0, &unused_inputs);

    const Scope then_scope{var_parts[0], frozen, input_parts[0]};
    gen_block(s->body, then_scope, depth - 1);
    if (!var_parts[1].empty() && rng_.chance(0.6)) {
      const Scope else_scope{var_parts[1], frozen, input_parts[1]};
      gen_block(s->els, else_scope, depth - 1);
    }
    block.stmts.push_back(std::move(s));
  }

  void gen_while(Block& block, const Scope& scope, std::size_t depth) {
    // Counted loop over a reserved counter: terminates by construction.
    Scope body_scope = scope;
    const std::size_t c = rng_.below(body_scope.writable.size());
    const std::string counter = body_scope.writable[c];
    body_scope.writable.erase(body_scope.writable.begin() +
                              static_cast<std::ptrdiff_t>(c));
    const auto iters = 1 + static_cast<std::int64_t>(rng_.below(3));
    block.stmts.push_back(assign(counter, Expr::literal_of(iters)));

    auto s = std::make_unique<Stmt>();
    s->kind = synth::StmtKind::kWhile;
    s->cond = Expr::binary(OpCode::kNe, Expr::variable(counter),
                           Expr::literal_of(0));
    gen_block(s->body, body_scope, depth - 1);
    s->body.stmts.push_back(assign(
        counter, Expr::binary(OpCode::kSub, Expr::variable(counter),
                              Expr::literal_of(1))));
    block.stmts.push_back(std::move(s));
  }

  void gen_par(Block& block, const Scope& scope, std::size_t depth) {
    // No more arms than writable variables, so each arm gets at least one.
    const std::size_t max_arms =
        std::min<std::size_t>(3, scope.writable.size());
    const std::size_t arms = 2 + rng_.below(max_arms - 1);

    std::vector<std::string> frozen = scope.frozen;
    const auto var_parts = partition(scope.writable, arms, arms, &frozen);
    std::vector<std::string> unused_inputs;
    const auto input_parts = partition(scope.inputs, arms, 0, &unused_inputs);

    auto s = std::make_unique<Stmt>();
    s->kind = synth::StmtKind::kPar;
    for (std::size_t i = 0; i < arms; ++i) {
      Block branch;
      gen_block(branch, Scope{var_parts[i], frozen, input_parts[i]},
                depth - 1);
      s->branches.push_back(std::move(branch));
    }
    block.stmts.push_back(std::move(s));
  }

  Rng rng_;
};

}  // namespace

synth::Program random_program(std::uint64_t seed) {
  synth::Program p = ProgramGen(seed).run();
  p.name = "gen_" + std::to_string(seed);
  return p;
}

}  // namespace camad::gen
