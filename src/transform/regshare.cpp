#include "transform/regshare.h"

#include <algorithm>
#include <cstdint>
#include <string>

#include "dcf/ops.h"
#include "obs/trace.h"
#include "petri/order.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;
using petri::TransitionId;

/// True for plain data registers: internal vertex, single input port,
/// single kReg output port. (Multi-output or exotic sequential vertices
/// are left alone.)
bool is_plain_register(const dcf::DataPath& dp, VertexId v) {
  return dp.kind(v) == dcf::VertexKind::kInternal &&
         dp.input_ports(v).size() == 1 && dp.output_ports(v).size() == 1 &&
         dp.operation(dp.output_ports(v)[0]).code == dcf::OpCode::kReg;
}

/// Partial COM operations: ⊥ on defined operands (divide by zero, shift
/// out of range), so a value flowing through them is never *definitely*
/// defined.
bool op_is_partial(dcf::OpCode code) {
  return code == dcf::OpCode::kDiv || code == dcf::OpCode::kMod ||
         code == dcf::OpCode::kShl || code == dcf::OpCode::kShr;
}

/// Evaluates whether the value at output port `p` is definitely defined
/// in one control state, walking the combinational cone through the arcs
/// that state controls. Leaves: constants and environment inputs are
/// defined (a non-exhausting environment is the Def 3.5 operating
/// contract), a register is defined iff `must_defined` says so here, and
/// anything partial, undriven, or cyclic is not definite.
class ConeDefinedness {
 public:
  ConeDefinedness(const dcf::DataPath& dp,
                  const std::vector<std::size_t>& reg_index)
      : dp_(dp),
        reg_index_(reg_index),
        driver_(dp.port_count(), PortId::invalid()),
        driver_epoch_(dp.port_count(), 0),
        memo_(dp.port_count(), 0),
        memo_epoch_(dp.port_count(), 0) {}

  /// Must be called when switching to a new state before defined().
  void begin_state(const dcf::System& system, PlaceId s) {
    ++epoch_;
    for (ArcId a : system.control().controlled_arcs(s)) {
      const PortId target = dp_.arc_target(a);
      driver_[target.index()] = dp_.arc_source(a);
      driver_epoch_[target.index()] = epoch_;
    }
  }

  [[nodiscard]] bool defined(PortId out, const DynamicBitset& must_defined) {
    const std::size_t i = out.index();
    if (memo_epoch_[i] == epoch_) return memo_[i] == 1;
    memo_epoch_[i] = epoch_;
    memo_[i] = 2;  // in-progress marker: a revisit means a cycle -> not definite
    bool ok = false;
    const dcf::Operation op = dp_.operation(out);
    switch (op.code) {
      case dcf::OpCode::kConst:
      case dcf::OpCode::kInput:
        ok = true;
        break;
      case dcf::OpCode::kReg: {
        const std::size_t r = reg_index_[dp_.owner(out).index()];
        ok = r != static_cast<std::size_t>(-1) && must_defined.test(r);
        break;
      }
      default: {
        if (op_is_partial(op.code)) break;
        const auto& ins = dp_.input_ports(dp_.owner(out));
        if (ins.size() != static_cast<std::size_t>(dcf::op_arity(op.code))) {
          break;
        }
        ok = true;
        for (PortId in : ins) {
          if (driver_epoch_[in.index()] != epoch_ ||
              !defined(driver_[in.index()], must_defined)) {
            ok = false;
            break;
          }
        }
        break;
      }
    }
    memo_[i] = ok ? 1 : 2;
    return ok;
  }

 private:
  const dcf::DataPath& dp_;
  const std::vector<std::size_t>& reg_index_;
  std::vector<PortId> driver_;
  std::vector<std::uint32_t> driver_epoch_;
  std::vector<std::uint8_t> memo_;
  std::vector<std::uint32_t> memo_epoch_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

LivenessResult analyze_liveness(const dcf::System& system) {
  const dcf::DataPath& dp = system.datapath();
  const petri::Net& net = system.control().net();
  const std::size_t nstates = net.place_count();

  LivenessResult result;
  std::vector<std::size_t> reg_index(dp.vertex_count(),
                                     static_cast<std::size_t>(-1));
  for (VertexId v : dp.vertices()) {
    if (is_plain_register(dp, v)) {
      reg_index[v.index()] = result.registers.size();
      result.registers.push_back(v);
    }
  }
  const std::size_t nregs = result.registers.size();

  result.reads.assign(nstates, DynamicBitset(nregs));
  result.writes.assign(nstates, DynamicBitset(nregs));
  result.live_in.assign(nstates, DynamicBitset(nregs));
  result.live_out.assign(nstates, DynamicBitset(nregs));

  for (PlaceId s : net.places()) {
    for (VertexId v : system.domain(s)) {
      const std::size_t r = reg_index[v.index()];
      if (r != static_cast<std::size_t>(-1)) result.reads[s.index()].set(r);
    }
    for (VertexId v : system.result_set(s)) {
      const std::size_t r = reg_index[v.index()];
      if (r != static_cast<std::size_t>(-1)) result.writes[s.index()].set(r);
    }
  }
  // Guards read register output ports while the transition's pre-states
  // are marked — invisible to C(S) but a use all the same (condition
  // registers latched in a test state are read by its exit guards).
  for (TransitionId t : net.transitions()) {
    for (dcf::PortId g : system.control().guards(t)) {
      const std::size_t r = reg_index[dp.owner(g).index()];
      if (r == static_cast<std::size_t>(-1)) continue;
      for (PlaceId pre : net.pre(t)) result.reads[pre.index()].set(r);
    }
  }

  // State successor graph: S -> S' via any transition.
  std::vector<std::vector<std::size_t>> succ(nstates);
  for (TransitionId t : net.transitions()) {
    for (PlaceId pre : net.pre(t)) {
      for (PlaceId post : net.post(t)) {
        succ[pre.index()].push_back(post.index());
      }
    }
  }

  // Forward must-assignment: assigned_in[s] = registers that *definitely
  // latched a defined value* on every state-graph path from an initially
  // marked place to s. A write only latches when its driven value is
  // defined (rule 10: ⊥ never latches), so writes through partial ops or
  // possibly-⊥ registers do not count — the two facts are mutually
  // recursive, hence one greatest fixpoint over both. A read of r in s
  // observes r's pre-latch value, so a same-state write does not help.
  // Parallel forks are approximated path-wise, which is conservative: a
  // register written only in a sibling branch never appears assigned.
  std::vector<std::vector<std::size_t>> pred(nstates);
  for (std::size_t s = 0; s < nstates; ++s) {
    for (std::size_t next : succ[s]) pred[next].push_back(s);
  }
  std::vector<DynamicBitset> assigned_in(nstates,
                                         DynamicBitset(nregs, true));
  for (PlaceId p : net.places()) {
    if (net.initial_tokens(p) > 0) assigned_in[p.index()].reset_all();
  }
  ConeDefinedness cone(dp, reg_index);
  std::vector<DynamicBitset> definite_writes(nstates, DynamicBitset(nregs));
  auto recompute_definite_writes = [&](std::size_t s) {
    const PlaceId place(static_cast<PlaceId::underlying_type>(s));
    DynamicBitset out(nregs);
    cone.begin_state(system, place);
    result.writes[s].for_each([&](std::size_t r) {
      const VertexId v = result.registers[r];
      for (ArcId a : dp.arcs_into(dp.input_ports(v)[0])) {
        const auto& controllers = system.control().controlling_states(a);
        if (std::find(controllers.begin(), controllers.end(), place) ==
            controllers.end()) {
          continue;
        }
        if (cone.defined(dp.arc_source(a), assigned_in[s])) out.set(r);
        break;
      }
    });
    definite_writes[s] = std::move(out);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = 0; s < nstates; ++s) recompute_definite_writes(s);
    for (std::size_t s = 0; s < nstates; ++s) {
      if (net.initial_tokens(
              PlaceId(static_cast<PlaceId::underlying_type>(s))) > 0) {
        continue;  // entry: nothing assigned yet
      }
      if (pred[s].empty()) continue;  // unreachable: stays all-ones
      DynamicBitset in(nregs, true);
      for (std::size_t p : pred[s]) {
        DynamicBitset out = assigned_in[p];
        out |= definite_writes[p];
        in &= out;
      }
      if (!(in == assigned_in[s])) {
        assigned_in[s] = std::move(in);
        changed = true;
      }
    }
  }
  result.maybe_undef_read = DynamicBitset(nregs);
  for (std::size_t s = 0; s < nstates; ++s) {
    result.reads[s].for_each([&](std::size_t r) {
      if (!assigned_in[s].test(r)) result.maybe_undef_read.set(r);
    });
  }

  // Backward may-liveness: live_out = ∪ live_in(succ);
  // live_in = reads ∪ (live_out \ kills). Only a *definite* write kills —
  // a write whose value may be ⊥ may fail to latch, leaving the previous
  // (possibly shared-away) content observable at the next read.
  changed = true;
  while (changed) {
    changed = false;
    for (std::size_t s = nstates; s-- > 0;) {
      DynamicBitset out(nregs);
      for (std::size_t next : succ[s]) out |= result.live_in[next];
      DynamicBitset in = out;
      in.and_not(definite_writes[s]);
      in |= result.reads[s];
      if (!(out == result.live_out[s]) || !(in == result.live_in[s])) {
        result.live_out[s] = std::move(out);
        result.live_in[s] = std::move(in);
        changed = true;
      }
    }
  }
  return result;
}

graph::UndirectedGraph interference_graph(
    const dcf::System& system, const LivenessResult& liveness,
    const semantics::AnalysisCache& cache) {
  if (!(cache.bound_to(system))) {
    throw Error("interference_graph: analysis cache bound to a different system");
  }
  const std::size_t nregs = liveness.registers.size();
  const std::size_t nstates = liveness.live_in.size();
  graph::UndirectedGraph graph(nregs);

  auto connect_cross = [&](const DynamicBitset& a, const DynamicBitset& b) {
    a.for_each([&](std::size_t r1) {
      b.for_each([&](std::size_t r2) {
        if (r1 != r2) graph.add_edge(r1, r2);
      });
    });
  };

  for (std::size_t s = 0; s < nstates; ++s) {
    // Written while another is live afterwards.
    connect_cross(liveness.writes[s], liveness.live_out[s]);
    // Two writes in one state would drive one physical input port twice.
    connect_cross(liveness.writes[s], liveness.writes[s]);
  }

  // ⊥ escape: a register that may be read before any write must keep
  // private storage — its undefined reads (and non-firing ⊥ guards) are
  // observable behaviour a colour-mate's stale value would overwrite.
  liveness.maybe_undef_read.for_each([&](std::size_t r1) {
    for (std::size_t r2 = 0; r2 < nregs; ++r2) {
      if (r1 != r2) graph.add_edge(r1, r2);
    }
  });

  // Parallel states: values coexist across concurrent branches. The
  // structural ∥ is cycle-blind — a loop's back edge makes concurrent
  // branch states inside the body F⁺-related both ways, hiding them from
  // ∥ — so the reachability-based co-marking relation is consulted too.
  const petri::OrderRelations& order = cache.order();
  for (std::size_t i = 0; i < nstates; ++i) {
    for (std::size_t j = i + 1; j < nstates; ++j) {
      const PlaceId si(static_cast<PlaceId::underlying_type>(i));
      const PlaceId sj(static_cast<PlaceId::underlying_type>(j));
      if (!order.parallel(si, sj) && !cache.co_marked(si, sj)) continue;
      DynamicBitset a = liveness.live_in[i];
      a |= liveness.writes[i];
      DynamicBitset b = liveness.live_in[j];
      b |= liveness.writes[j];
      connect_cross(a, b);
    }
  }
  return graph;
}

const LivenessResult& cached_liveness(const semantics::AnalysisCache& cache) {
  return cache.slot<LivenessResult>(
      semantics::Analysis::kLiveness,
      [](const dcf::System& system) { return analyze_liveness(system); });
}

semantics::PreservedAnalyses regshare_preserved_analyses() {
  return semantics::PreservedAnalyses::control_net();
}

dcf::System share_registers(const dcf::System& system, RegShareStats* stats) {
  const semantics::AnalysisCache cache(system);
  return share_registers(system, cache, stats);
}

dcf::System share_registers(const dcf::System& system,
                            const semantics::AnalysisCache& cache,
                            RegShareStats* stats) {
  if (!(cache.bound_to(system))) {
    throw Error("share_registers: analysis cache bound to a different system");
  }
  const obs::ObsSpan span("transform.regshare");
  const dcf::DataPath& dp = system.datapath();
  const LivenessResult& liveness = cached_liveness(cache);
  const graph::UndirectedGraph interference =
      interference_graph(system, liveness, cache);
  const graph::ColoringResult coloring = graph::color_dsatur(interference);

  RegShareStats local;
  local.registers_before = liveness.registers.size();
  local.registers_after = coloring.color_count;
  for (std::size_t v = 0; v < interference.node_count(); ++v) {
    local.interference_edges += interference.degree(v);
  }
  local.interference_edges /= 2;
  if (stats != nullptr) *stats = local;

  if (coloring.color_count == liveness.registers.size()) {
    return system;  // nothing shareable
  }

  // A colour-class collapse: every register folds onto the first member
  // of its class; the control net is untouched.
  std::vector<VertexId> representative = dp.vertices();
  std::vector<VertexId> first(coloring.color_count, VertexId::invalid());
  for (std::size_t r = 0; r < liveness.registers.size(); ++r) {
    VertexId& rep = first[coloring.color[r]];
    if (!rep.valid()) rep = liveness.registers[r];
    representative[liveness.registers[r].index()] = rep;
  }
  std::vector<PortId> port_map;
  dcf::DataPath shared = dp.fold(representative, port_map);
  return system.with_datapath(std::move(shared), port_map);
}

}  // namespace camad::transform
