#include "gen/sysgen.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <variant>

#include "dcf/builder.h"
#include "dcf/ops.h"
#include "util/error.h"

namespace camad::gen {
namespace {

using dcf::OpCode;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;
using petri::TransitionId;

/// Step operations: anything computable from general sources. Partial
/// ops (div/shift) are legal — ⊥ is a value, and both engines and all
/// transformations must agree on it.
constexpr OpCode kStepOps[] = {
    OpCode::kAdd, OpCode::kSub, OpCode::kMul, OpCode::kAnd, OpCode::kOr,
    OpCode::kXor, OpCode::kLt,  OpCode::kEq,  OpCode::kShl, OpCode::kDiv,
    OpCode::kMux, OpCode::kPass,
};

/// Complementary predicate pairs for kComparePair guards.
constexpr std::pair<OpCode, OpCode> kComparePairs[] = {
    {OpCode::kEq, OpCode::kNe},
    {OpCode::kLt, OpCode::kGe},
    {OpCode::kGt, OpCode::kLe},
};

/// Plain compare ops for the kNotUnit / kLatchedPair styles.
constexpr OpCode kCompareOps[] = {
    OpCode::kEq, OpCode::kNe, OpCode::kLt, OpCode::kLe,
    OpCode::kGt, OpCode::kGe,
};

using End = std::variant<PlaceId, TransitionId>;

struct Fragment {
  PlaceId entry;
  std::vector<End> ends;
};

/// Value sources visible to one build context. `regs` holds registers
/// written by *already-built* (hence sequentially preceding) states —
/// parallel arms each get a snapshot, so no arm reads a sibling's
/// registers. `inputs` are environment channels, partitioned round-robin
/// across arms so no two parallel states share a stream.
struct Pool {
  std::vector<PortId> regs;    ///< register output ports (+ constants)
  std::vector<PortId> inputs;  ///< input-vertex output ports

  [[nodiscard]] PortId select(std::uint32_t selector) const {
    const std::size_t total = regs.size() + inputs.size();
    const std::size_t k = selector % total;
    return k < regs.size() ? regs[k] : inputs[k - regs.size()];
  }
  /// Restricted to always-defined-early sources (constants sit at the
  /// front of `regs`) plus inputs — used by kLatchedPair guards, where a
  /// ⊥ compare would deadlock the branch forever.
  [[nodiscard]] PortId select_defined(std::uint32_t selector,
                                      std::size_t num_consts) const {
    const std::size_t total = num_consts + inputs.size();
    const std::size_t k = selector % total;
    return k < num_consts ? regs[k] : inputs[k - num_consts];
  }
};

class SysBuilder {
 public:
  SysBuilder(const SysPlan& plan, std::string name)
      : plan_(plan), name_(std::move(name)) {}

  dcf::System run() {
    Pool pool;
    for (const char* input : {"a0", "a1"}) {
      pool.inputs.push_back(b_.out(b_.input(input)));
    }
    // Constant seed sources, always defined from cycle zero.
    for (std::int64_t c : {2, 3, 5}) {
      pool.regs.push_back(
          b_.out(b_.constant(fresh("k" + std::to_string(c)), c)));
    }
    num_consts_ = pool.regs.size();

    Fragment body = build(plan_, pool);

    // Epilogue: observe the most recently written register (or a
    // constant if the plan degenerated to nothing).
    const VertexId out = b_.output("o0");
    const PlaceId s_out = b_.state(fresh("Sout"));
    b_.arc(pool.regs.back(), b_.in(out), {s_out});
    attach(body.ends, s_out);
    const TransitionId t_end = b_.transition(fresh("Tend"));
    b_.flow(s_out, t_end);  // empty post-set: terminates with zero tokens

    b_.controlnet().net().set_initial_tokens(body.entry, 1);
    return b_.build(name_);
  }

 private:
  std::string fresh(const std::string& base) {
    return base + "_" + std::to_string(counter_++);
  }

  void attach(const std::vector<End>& ends, PlaceId to) {
    for (const End& end : ends) {
      if (const auto* place = std::get_if<PlaceId>(&end)) {
        const TransitionId t = b_.transition(fresh("T"));
        b_.flow(*place, t);
        b_.flow(t, to);
      } else {
        b_.flow(std::get<TransitionId>(end), to);
      }
    }
  }

  Fragment build(const SysPlan& node, Pool& pool) {
    switch (node.kind) {
      case PlanKind::kStep: return build_step(node, pool);
      case PlanKind::kSeq: return build_seq(node, pool);
      case PlanKind::kPar: return build_par(node, pool);
      case PlanKind::kBranch: return build_branch(node, pool);
      case PlanKind::kLoop: return build_loop(node, pool);
    }
    throw ModelError("gen: unreachable plan kind");
  }

  Fragment build_step(const SysPlan& node, Pool& pool) {
    const OpCode op = kStepOps[node.op % std::size(kStepOps)];
    const PlaceId s = b_.state(fresh("Sstep"));
    const VertexId unit = b_.unit(fresh(std::string(dcf::op_name(op))), op);
    const std::uint32_t selectors[] = {node.src_a, node.src_b, node.src_c};
    const int arity = dcf::op_arity(op);
    for (int k = 0; k < arity; ++k) {
      b_.arc(pool.select(selectors[k]), b_.in(unit, static_cast<size_t>(k)),
             {s});
    }
    const VertexId reg = b_.reg(fresh("r"));
    b_.arc(b_.out(unit), b_.in(reg), {s});
    pool.regs.push_back(b_.out(reg));
    return Fragment{s, {End{s}}};
  }

  Fragment build_seq(const SysPlan& node, Pool& pool) {
    Fragment result;
    bool first = true;
    for (const SysPlan& child : node.children) {
      Fragment f = build(child, pool);
      if (first) {
        result.entry = f.entry;
        first = false;
      } else {
        attach(result.ends, f.entry);
      }
      result.ends = std::move(f.ends);
    }
    if (first) {
      const PlaceId s = b_.state(fresh("Snop"));
      result = Fragment{s, {End{s}}};
    }
    return result;
  }

  Fragment build_par(const SysPlan& node, Pool& pool) {
    const PlaceId s_fork = b_.state(fresh("Spar"));
    const TransitionId t_fork = b_.transition(fresh("Tfork"));
    b_.flow(s_fork, t_fork);
    const TransitionId t_join = b_.transition(fresh("Tjoin"));

    const std::size_t arms = node.children.size();
    std::vector<PortId> joined_regs;
    for (std::size_t i = 0; i < arms; ++i) {
      // Snapshot: arms never see sibling-created registers, and the
      // input channels are partitioned round-robin — no stream races.
      Pool arm_pool;
      arm_pool.regs = pool.regs;
      for (std::size_t k = i; k < pool.inputs.size(); k += arms) {
        arm_pool.inputs.push_back(pool.inputs[k]);
      }
      const std::size_t before = arm_pool.regs.size();
      const Fragment f = build(node.children[i], arm_pool);
      joined_regs.insert(joined_regs.end(),
                         arm_pool.regs.begin() +
                             static_cast<std::ptrdiff_t>(before),
                         arm_pool.regs.end());
      b_.flow(t_fork, f.entry);
      if (f.ends.size() == 1 && std::holds_alternative<PlaceId>(f.ends[0])) {
        b_.flow(std::get<PlaceId>(f.ends[0]), t_join);
      } else {
        const PlaceId collect = b_.state(fresh("Sjoin"));
        attach(f.ends, collect);
        b_.flow(collect, t_join);
      }
    }
    // After the join everything is sequential again: all arm results
    // become readable.
    pool.regs.insert(pool.regs.end(), joined_regs.begin(), joined_regs.end());
    return Fragment{s_fork, {End{t_join}}};
  }

  /// Builds the guard pair for a branch/loop test state. Returns the two
  /// ports guarding the positive / negative exits.
  std::pair<PortId, PortId> build_guard_pair(const SysPlan& node,
                                             PlaceId s_test, PortId lhs,
                                             PortId rhs) {
    if (node.guard == GuardStyle::kComparePair) {
      // One vertex, two complementary predicate outputs over shared
      // inputs — the second complementary pattern dcf::check proves.
      const auto [pos_op, neg_op] =
          kComparePairs[node.cmp_op % std::size(kComparePairs)];
      dcf::DataPath& dp = b_.datapath();
      const VertexId v = dp.add_vertex(fresh("cmp2"));
      dp.add_input_port(v, "l");
      dp.add_input_port(v, "r");
      const PortId pos = dp.add_output_port(v, {pos_op, 0}, "pos");
      const PortId neg = dp.add_output_port(v, {neg_op, 0}, "neg");
      b_.arc(lhs, b_.in(v, 0), {s_test});
      b_.arc(rhs, b_.in(v, 1), {s_test});
      // Rule 5: the test state must latch something sequential.
      const VertexId flag = b_.reg(fresh("flag"));
      b_.arc(pos, b_.in(flag), {s_test});
      return {pos, neg};
    }

    const OpCode cmp_op = kCompareOps[node.cmp_op % std::size(kCompareOps)];
    const VertexId cmp = b_.unit(fresh("cmp"), cmp_op);
    b_.arc(lhs, b_.in(cmp, 0), {s_test});
    b_.arc(rhs, b_.in(cmp, 1), {s_test});
    const VertexId inv = b_.unit(fresh("not"), OpCode::kNot);
    b_.arc(b_.out(cmp), b_.in(inv), {s_test});

    if (node.guard == GuardStyle::kLatchedPair) {
      // Condition registers: the branch fires one cycle after entry,
      // off the values latched at the end of the first test cycle.
      const VertexId rpos = b_.reg(fresh("cpos"));
      const VertexId rneg = b_.reg(fresh("cneg"));
      b_.arc(b_.out(cmp), b_.in(rpos), {s_test});
      b_.arc(b_.out(inv), b_.in(rneg), {s_test});
      return {b_.out(rpos), b_.out(rneg)};
    }

    // kNotUnit: combinational guards, flag register for rule 5.
    const VertexId flag = b_.reg(fresh("flag"));
    b_.arc(b_.out(cmp), b_.in(flag), {s_test});
    return {b_.out(cmp), b_.out(inv)};
  }

  Fragment build_branch(const SysPlan& node, Pool& pool) {
    const PlaceId s_test = b_.state(fresh("Sif"));
    // kLatchedPair compares only always-defined sources: a ⊥ condition
    // register would stall the branch forever.
    const bool latched = node.guard == GuardStyle::kLatchedPair;
    const PortId lhs = latched ? pool.select_defined(node.cmp_a, num_consts_)
                               : pool.select(node.cmp_a);
    const PortId rhs = latched ? pool.select_defined(node.cmp_b, num_consts_)
                               : pool.select(node.cmp_b);
    const auto [pos, neg] = build_guard_pair(node, s_test, lhs, rhs);

    // Arms get snapshots (exclusive at runtime, parallel under the
    // structural ∥ — same discipline as true parallelism).
    const std::size_t base = pool.regs.size();
    Pool then_pool;
    then_pool.regs = pool.regs;
    Pool else_pool;
    else_pool.regs = pool.regs;
    for (std::size_t k = 0; k < pool.inputs.size(); ++k) {
      (k % 2 == 0 ? then_pool : else_pool).inputs.push_back(pool.inputs[k]);
    }

    const Fragment then_frag = build(node.children.at(0), then_pool);
    const TransitionId t_then = b_.transition(fresh("Tthen"));
    b_.guard(t_then, pos);
    b_.flow(s_test, t_then);
    b_.flow(t_then, then_frag.entry);

    Fragment result{s_test, then_frag.ends};
    if (node.children.size() > 1) {
      const Fragment else_frag = build(node.children[1], else_pool);
      const TransitionId t_else = b_.transition(fresh("Telse"));
      b_.guard(t_else, neg);
      b_.flow(s_test, t_else);
      b_.flow(t_else, else_frag.entry);
      result.ends.insert(result.ends.end(), else_frag.ends.begin(),
                         else_frag.ends.end());
    } else {
      const TransitionId t_skip = b_.transition(fresh("Tskip"));
      b_.guard(t_skip, neg);
      b_.flow(s_test, t_skip);
      result.ends.push_back(End{t_skip});
    }
    // Registers written inside either arm become readable afterwards
    // (⊥ when the other path ran — a legal, deterministic value).
    for (Pool* p : {&then_pool, &else_pool}) {
      pool.regs.insert(pool.regs.end(),
                       p->regs.begin() + static_cast<std::ptrdiff_t>(base),
                       p->regs.end());
    }
    return result;
  }

  Fragment build_loop(const SysPlan& node, Pool& pool) {
    const std::uint32_t iters = std::max<std::uint32_t>(1, node.iters);
    // S_init: cnt := iters.
    const VertexId cnt = b_.reg(fresh("cnt"));
    const VertexId c_init = b_.constant(
        fresh("n" + std::to_string(iters)), static_cast<std::int64_t>(iters));
    const PlaceId s_init = b_.state(fresh("Sinit"));
    b_.arc(b_.out(c_init), b_.in(cnt), {s_init});

    // S_test: cnt != 0 (kNotUnit style — the counter is always defined).
    const PlaceId s_test = b_.state(fresh("Swhile"));
    const VertexId zero = b_.constant(fresh("z"), 0);
    const VertexId cmp = b_.unit(fresh("ne"), OpCode::kNe);
    b_.arc(b_.out(cnt), b_.in(cmp, 0), {s_test});
    b_.arc(b_.out(zero), b_.in(cmp, 1), {s_test});
    const VertexId inv = b_.unit(fresh("not"), OpCode::kNot);
    b_.arc(b_.out(cmp), b_.in(inv), {s_test});
    const VertexId flag = b_.reg(fresh("flag"));
    b_.arc(b_.out(cmp), b_.in(flag), {s_test});
    b_.chain(s_init, s_test, fresh("T"));

    // Body; the counter is *not* in the body pool (only this loop's init
    // and decrement states write it).
    const Fragment body = build(node.children.at(0), pool);
    const TransitionId t_body = b_.transition(fresh("Tloop"));
    b_.guard(t_body, b_.out(cmp));
    b_.flow(s_test, t_body);
    b_.flow(t_body, body.entry);

    // S_dec: cnt := cnt - 1, then back to the test.
    const PlaceId s_dec = b_.state(fresh("Sdec"));
    const VertexId one = b_.constant(fresh("one"), 1);
    const VertexId sub = b_.unit(fresh("dec"), OpCode::kSub);
    b_.arc(b_.out(cnt), b_.in(sub, 0), {s_dec});
    b_.arc(b_.out(one), b_.in(sub, 1), {s_dec});
    b_.arc(b_.out(sub), b_.in(cnt), {s_dec});
    attach(body.ends, s_dec);
    const TransitionId t_back = b_.transition(fresh("Tback"));
    b_.flow(s_dec, t_back);
    b_.flow(t_back, s_test);

    const TransitionId t_exit = b_.transition(fresh("Texit"));
    b_.guard(t_exit, b_.out(inv));
    b_.flow(s_test, t_exit);
    // The counter stays loop-private; body-created registers remain in
    // `pool` (the body ran at least... zero times — ⊥ reads are legal).
    return Fragment{s_init, {End{t_exit}}};
  }

  const SysPlan& plan_;
  std::string name_;
  dcf::SystemBuilder b_;
  std::size_t num_consts_ = 0;
  int counter_ = 0;
};

class PlanGen {
 public:
  explicit PlanGen(Rng& rng) : rng_(rng) {}

  SysPlan run() {
    SysPlan root = seq(/*depth=*/3);
    if (plan_size(root) == 0) {
      root.children.insert(root.children.begin(), step());
    }
    return root;
  }

 private:
  SysPlan step() {
    SysPlan p;
    p.kind = PlanKind::kStep;
    p.op = static_cast<std::uint32_t>(rng_.below(1u << 16));
    p.src_a = static_cast<std::uint32_t>(rng_.below(1u << 16));
    p.src_b = static_cast<std::uint32_t>(rng_.below(1u << 16));
    p.src_c = static_cast<std::uint32_t>(rng_.below(1u << 16));
    return p;
  }

  SysPlan seq(std::size_t depth) {
    SysPlan p;
    p.kind = PlanKind::kSeq;
    const std::size_t n = 1 + rng_.below(3);
    for (std::size_t i = 0; i < n; ++i) p.children.push_back(node(depth));
    return p;
  }

  SysPlan node(std::size_t depth) {
    if (depth == 0 || budget_ == 0 || rng_.chance(0.3)) return step();
    // par / branch / loop with chance 0.2 / 0.25 / 0.2.
    const double roll = rng_.uniform();
    if (roll < 0.2) {
      --budget_;
      SysPlan p;
      p.kind = PlanKind::kPar;
      const std::size_t arms = 2 + rng_.below(2);
      for (std::size_t i = 0; i < arms; ++i) {
        p.children.push_back(seq(depth - 1));
      }
      return p;
    }
    if (roll < 0.45) {
      --budget_;
      SysPlan p;
      p.kind = PlanKind::kBranch;
      const double style = rng_.uniform();
      p.guard = style < 0.5 ? GuardStyle::kNotUnit
                : style < 0.8 ? GuardStyle::kComparePair
                              : GuardStyle::kLatchedPair;
      p.cmp_op = static_cast<std::uint32_t>(rng_.below(1u << 16));
      p.cmp_a = static_cast<std::uint32_t>(rng_.below(1u << 16));
      p.cmp_b = static_cast<std::uint32_t>(rng_.below(1u << 16));
      p.children.push_back(seq(depth - 1));
      if (rng_.chance(0.6)) p.children.push_back(seq(depth - 1));
      return p;
    }
    if (roll < 0.65) {
      --budget_;
      SysPlan p;
      p.kind = PlanKind::kLoop;
      p.iters = 1 + static_cast<std::uint32_t>(rng_.below(3));
      p.children.push_back(seq(depth - 1));
      return p;
    }
    return step();
  }

  Rng& rng_;
  std::size_t budget_ = 8;  ///< composite-node cap: bounds system size
};

void print_plan(const SysPlan& p, std::ostringstream& os) {
  switch (p.kind) {
    case PlanKind::kStep:
      os << "(step op=" << p.op % std::size(kStepOps) << " a=" << p.src_a
         << " b=" << p.src_b << " c=" << p.src_c << ")";
      return;
    case PlanKind::kSeq: os << "(seq"; break;
    case PlanKind::kPar: os << "(par"; break;
    case PlanKind::kBranch:
      os << "(branch g=" << static_cast<int>(p.guard)
         << " op=" << p.cmp_op << " a=" << p.cmp_a << " b=" << p.cmp_b;
      break;
    case PlanKind::kLoop: os << "(loop n=" << p.iters; break;
  }
  for (const SysPlan& c : p.children) {
    os << ' ';
    print_plan(c, os);
  }
  os << ')';
}

}  // namespace

SysPlan random_plan(Rng& rng) { return PlanGen(rng).run(); }

dcf::System build_system(const SysPlan& plan, const std::string& name) {
  return SysBuilder(plan, name).run();
}

dcf::System random_system(std::uint64_t seed) {
  Rng rng(seed);
  return build_system(random_plan(rng), "gensys_" + std::to_string(seed));
}

std::string plan_to_string(const SysPlan& plan) {
  std::ostringstream os;
  print_plan(plan, os);
  return os.str();
}

std::size_t plan_size(const SysPlan& plan) {
  if (plan.kind == PlanKind::kStep) return 1;
  std::size_t n = 0;
  for (const SysPlan& c : plan.children) n += plan_size(c);
  return n;
}

}  // namespace camad::gen
