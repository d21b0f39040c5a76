// The operation set OP = SEQ ∪ COM (Def 2.1) and its interpretation.
//
// The paper leaves the algebraic structure abstract; we fix the standard
// interpretation over 64-bit two's-complement integers, which is what the
// CAMAD module library assumed for datapath synthesis. Division/modulo by
// zero yield ⊥ rather than trapping.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "dcf/value.h"

namespace camad::dcf {

enum class OpCode : std::uint8_t {
  // Combinatorial (COM)
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,
  kAnd,
  kOr,
  kXor,
  kNot,
  kShl,
  kShr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kMux,    // mux(sel, a, b) = sel ? a : b
  kPass,   // identity; models wires / channel vertices
  kConst,  // 0-ary, value from the immediate
  // Sequential (SEQ)
  kReg,    // register: output = latched state
  // Environment boundary
  kInput,  // 0-ary; value supplied by the environment stream
};

/// An operation instance: code plus immediate (used by kConst only).
struct Operation {
  OpCode code = OpCode::kPass;
  std::int64_t immediate = 0;

  friend bool operator==(const Operation&, const Operation&) = default;
};

/// Number of input ports the op consumes; kMux is 3, binary ops 2, etc.
int op_arity(OpCode code);

/// SEQ vs COM split of Def 2.1. kReg and kInput are sequential: their
/// output does not combinationally depend on present inputs.
bool op_is_sequential(OpCode code);

std::string_view op_name(OpCode code);
/// Inverse of op_name; throws ModelError on unknown names.
OpCode op_from_name(std::string_view name);

/// Combinational evaluation: OP(V(I(V))) per Def 3.1 rule 9.
/// `inputs.size()` must equal op_arity. Any undefined input (or div/mod by
/// zero, or shift out of range) yields ⊥. Must not be called for kReg or
/// kInput, whose values come from latched state / the environment.
Value evaluate_op(const Operation& op, std::span<const Value> inputs);

}  // namespace camad::dcf
