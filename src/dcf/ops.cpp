#include "dcf/ops.h"

#include <array>
#include <limits>

#include "util/error.h"

namespace camad::dcf {
namespace {

struct OpInfo {
  OpCode code;
  std::string_view name;
  int arity;
  bool sequential;
};

constexpr std::array kOps = {
    OpInfo{OpCode::kAdd, "add", 2, false},
    OpInfo{OpCode::kSub, "sub", 2, false},
    OpInfo{OpCode::kMul, "mul", 2, false},
    OpInfo{OpCode::kDiv, "div", 2, false},
    OpInfo{OpCode::kMod, "mod", 2, false},
    OpInfo{OpCode::kNeg, "neg", 1, false},
    OpInfo{OpCode::kAnd, "and", 2, false},
    OpInfo{OpCode::kOr, "or", 2, false},
    OpInfo{OpCode::kXor, "xor", 2, false},
    OpInfo{OpCode::kNot, "not", 1, false},
    OpInfo{OpCode::kShl, "shl", 2, false},
    OpInfo{OpCode::kShr, "shr", 2, false},
    OpInfo{OpCode::kEq, "eq", 2, false},
    OpInfo{OpCode::kNe, "ne", 2, false},
    OpInfo{OpCode::kLt, "lt", 2, false},
    OpInfo{OpCode::kLe, "le", 2, false},
    OpInfo{OpCode::kGt, "gt", 2, false},
    OpInfo{OpCode::kGe, "ge", 2, false},
    OpInfo{OpCode::kMux, "mux", 3, false},
    OpInfo{OpCode::kPass, "pass", 1, false},
    OpInfo{OpCode::kConst, "const", 0, false},
    OpInfo{OpCode::kReg, "reg", 1, true},
    OpInfo{OpCode::kInput, "input", 0, true},
};

const OpInfo& info(OpCode code) {
  for (const OpInfo& op : kOps) {
    if (op.code == code) return op;
  }
  throw ModelError("unknown OpCode");
}

}  // namespace

int op_arity(OpCode code) { return info(code).arity; }
bool op_is_sequential(OpCode code) { return info(code).sequential; }
std::string_view op_name(OpCode code) { return info(code).name; }

OpCode op_from_name(std::string_view name) {
  for (const OpInfo& op : kOps) {
    if (op.name == name) return op.code;
  }
  throw ModelError("op_from_name: unknown operation '" + std::string(name) +
                   "'");
}

Value evaluate_op(const Operation& op, std::span<const Value> inputs) {
  if (op.code == OpCode::kReg || op.code == OpCode::kInput) {
    throw ModelError("evaluate_op: " + std::string(op_name(op.code)) +
                     " has no combinational evaluation");
  }
  if (static_cast<int>(inputs.size()) != op_arity(op.code)) {
    throw ModelError("evaluate_op: arity mismatch for " +
                     std::string(op_name(op.code)));
  }
  if (op.code == OpCode::kConst) return Value(op.immediate);

  for (const Value& v : inputs) {
    if (!v.defined()) return Value::undef();
  }
  // Unsigned arithmetic for well-defined wrap-around, like hardware.
  auto u = [&](int i) { return static_cast<std::uint64_t>(inputs[i].raw()); };
  auto s = [&](int i) { return inputs[i].raw(); };
  auto wrap = [](std::uint64_t v) {
    return Value(static_cast<std::int64_t>(v));
  };

  switch (op.code) {
    case OpCode::kAdd: return wrap(u(0) + u(1));
    case OpCode::kSub: return wrap(u(0) - u(1));
    case OpCode::kMul: return wrap(u(0) * u(1));
    case OpCode::kDiv:
      if (s(1) == 0) return Value::undef();
      if (s(0) == std::numeric_limits<std::int64_t>::min() && s(1) == -1) {
        return Value(std::numeric_limits<std::int64_t>::min());
      }
      return Value(s(0) / s(1));
    case OpCode::kMod:
      if (s(1) == 0) return Value::undef();
      if (s(0) == std::numeric_limits<std::int64_t>::min() && s(1) == -1) {
        return Value(0);
      }
      return Value(s(0) % s(1));
    case OpCode::kNeg: return wrap(~u(0) + 1);
    case OpCode::kAnd: return wrap(u(0) & u(1));
    case OpCode::kOr: return wrap(u(0) | u(1));
    case OpCode::kXor: return wrap(u(0) ^ u(1));
    case OpCode::kNot: return Value(inputs[0].truthy() ? 0 : 1);
    case OpCode::kShl:
      if (s(1) < 0 || s(1) >= 64) return Value::undef();
      return wrap(u(0) << s(1));
    case OpCode::kShr:
      if (s(1) < 0 || s(1) >= 64) return Value::undef();
      return wrap(u(0) >> s(1));
    case OpCode::kEq: return Value(s(0) == s(1) ? 1 : 0);
    case OpCode::kNe: return Value(s(0) != s(1) ? 1 : 0);
    case OpCode::kLt: return Value(s(0) < s(1) ? 1 : 0);
    case OpCode::kLe: return Value(s(0) <= s(1) ? 1 : 0);
    case OpCode::kGt: return Value(s(0) > s(1) ? 1 : 0);
    case OpCode::kGe: return Value(s(0) >= s(1) ? 1 : 0);
    case OpCode::kMux: return inputs[0].truthy() ? inputs[1] : inputs[2];
    case OpCode::kPass: return inputs[0];
    case OpCode::kConst:
    case OpCode::kReg:
    case OpCode::kInput: break;  // handled above
  }
  throw ModelError("evaluate_op: unreachable");
}

}  // namespace camad::dcf
