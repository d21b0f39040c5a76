#include "sim/plan.h"

#include <algorithm>
#include <string>

namespace camad::sim {
namespace {

using dcf::ArcId;
using dcf::OpCode;
using dcf::Operation;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;
using petri::TransitionId;

constexpr std::uint32_t kNoDriver = 0xffffffffU;

}  // namespace

ConfigPlan compile_plan(const dcf::System& system, const dcf::PortGraph& graph,
                        const DynamicBitset& marked_bits,
                        CompileScratch& scratch) {
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const petri::Net& net = cn.net();
  const std::size_t ports = dp.port_count();

  ConfigPlan plan;
  marked_bits.for_each([&](std::size_t i) {
    plan.marked.emplace_back(static_cast<PlaceId::underlying_type>(i));
  });

  // Rule 8: arcs controlled by marked states open; the controller of an
  // arc is the first marked state (ascending) that controls it.
  plan.arc_active = DynamicBitset(dp.arc_count());
  plan.controller.assign(dp.arc_count(), PlaceId::invalid());
  for (PlaceId s : plan.marked) {
    for (ArcId a : cn.controlled_arcs(s)) {
      plan.arc_active.set(a.index());
      if (!plan.controller[a.index()].valid()) plan.controller[a.index()] = s;
    }
  }

  // In-degrees of the port graph under this configuration: the static
  // binding in-degrees plus one per active arc into an input port. An
  // input port's active fan-in is also what rule 10 judges.
  std::vector<std::uint32_t>& in_degree = scratch.in_degree;
  std::vector<std::uint32_t>& fan_in = scratch.fan_in;
  std::vector<std::uint32_t>& first_source = scratch.first_source;
  in_degree = graph.static_in_degrees();
  fan_in.assign(ports, 0);
  first_source.resize(ports);
  plan.arc_active.for_each([&](std::size_t i) {
    const ArcId a(static_cast<ArcId::underlying_type>(i));
    const std::size_t target = dp.arc_target(a).index();
    if (fan_in[target]++ == 0) first_source[target] = dp.arc_source(a).value();
    ++in_degree[target];
  });

  // Kahn's sort with a LIFO frontier, step for step the one
  // graph::topological_sort runs on the reference engine's port Digraph
  // (same seeds in port order, same out-edge order), so schedules and
  // drive-conflict lists come out in the reference order.
  std::vector<std::uint32_t>& order = scratch.order;
  std::vector<std::uint32_t>& frontier = scratch.frontier;
  order.clear();
  frontier.clear();
  for (std::size_t p = 0; p < ports; ++p) {
    if (in_degree[p] == 0) frontier.push_back(static_cast<std::uint32_t>(p));
  }
  while (!frontier.empty()) {
    const std::uint32_t p = frontier.back();
    frontier.pop_back();
    order.push_back(p);
    for (const dcf::PortEdge& e : graph.out_edges(p)) {
      if (e.arc.valid() && !plan.arc_active.test(e.arc.index())) continue;
      if (--in_degree[e.to] == 0) frontier.push_back(e.to);
    }
  }
  if (order.size() != ports) {
    plan.combinational_loop = true;
    return plan;
  }

  // Rule 10 per input port: 0 drivers -> ⊥, 1 -> copy, >1 -> conflict.
  // Conflicts are reported in evaluation order, like the reference path.
  auto unique_driver = [&](std::uint32_t p) {
    return fan_in[p] == 1 ? first_source[p] : kNoDriver;
  };
  for (const std::uint32_t p : order) {
    if (fan_in[p] > 1) {
      plan.drive_conflicts.push_back(
          "input port " + dp.name(PortId(p)) + " driven by " +
          std::to_string(fan_in[p]) + " simultaneously active arcs");
    }
  }

  // Candidate transitions: preset ⊆ marked support — the rule-3
  // enabledness test for any token counts sharing this support.
  plan.candidate_mask = DynamicBitset(net.transition_count());
  for (std::size_t i = 0; i < net.transition_count(); ++i) {
    const TransitionId t(static_cast<TransitionId::underlying_type>(i));
    bool candidate = true;
    for (PlaceId p : net.pre(t)) {
      if (!marked_bits.test(p.index())) {
        candidate = false;
        break;
      }
    }
    if (candidate) {
      plan.candidate_mask.set(t.index());
      plan.candidates.push_back(t);
    }
  }

  // Guard-conflict monitor sites (Def 3.2 rule 3, dynamic side): marked
  // places with >= 2 successors, restricted to enabled successors. Fewer
  // than two enabled successors can never conflict.
  for (PlaceId p : plan.marked) {
    if (net.post(p).size() < 2) continue;
    ConflictCheck check;
    check.place = p;
    for (TransitionId t : net.consumers(p)) {
      if (plan.candidate_mask.test(t.index())) check.candidates.push_back(t);
    }
    if (check.candidates.size() >= 2) {
      plan.conflict_checks.push_back(std::move(check));
    }
  }

  // Active external arcs in arc-id order (Def 3.4 event sites).
  for (ArcId a : graph.external_arcs()) {
    if (!plan.arc_active.test(a.index())) continue;
    plan.events.push_back(
        PlannedEvent{a, dp.arc_source(a).value(), plan.controller[a.index()]});
  }

  // Observation cone: guard ports of candidates, latch targets reachable
  // from candidate presets, event sources, and every environment-source
  // port (the reference engine polls env.current for each kInput output
  // every cycle, which also drives Environment::exhausted()).
  std::vector<std::uint8_t>& needed = scratch.needed;
  std::vector<std::uint32_t>& pending = scratch.pending;
  needed.assign(ports, 0);
  pending.clear();
  auto need = [&](PortId p) {
    if (!needed[p.index()]) {
      needed[p.index()] = 1;
      pending.push_back(p.value());
    }
  };
  for (TransitionId t : plan.candidates) {
    for (PortId g : cn.guards(t)) need(g);
    for (PlaceId p : net.pre(t)) {
      for (ArcId a : cn.controlled_arcs(p)) need(dp.arc_target(a));
    }
  }
  for (const PlannedEvent& e : plan.events) need(PortId(e.source_port));
  for (PortId p : graph.environment_sources()) need(p);
  while (!pending.empty()) {
    const PortId p(pending.back());
    pending.pop_back();
    if (dp.direction(p) == dcf::PortDir::kIn) {
      if (unique_driver(p.value()) != kNoDriver) {
        need(PortId(unique_driver(p.value())));
      }
      continue;
    }
    const Operation& op = dp.operation(p);
    if (dcf::op_is_sequential(op.code) || op.code == OpCode::kConst) continue;
    const int arity = dcf::op_arity(op.code);
    const auto& ins = dp.input_ports(dp.owner(p));
    for (int k = 0; k < arity; ++k) {
      need(ins[static_cast<std::size_t>(k)]);
    }
  }

  // Emit the schedule: cone ports only, in the full topological order.
  for (const std::uint32_t port : order) {
    if (!needed[port]) continue;
    const PortId p(port);
    EvalStep step;
    step.dst = port;
    if (dp.direction(p) == dcf::PortDir::kIn) {
      if (unique_driver(port) == kNoDriver) continue;  // stays ⊥
      step.kind = EvalStep::Kind::kCopy;
      step.src[0] = unique_driver(port);
    } else {
      const Operation& op = dp.operation(p);
      step.op = op;
      switch (op.code) {
        case OpCode::kReg:
          step.kind = EvalStep::Kind::kReg;
          break;
        case OpCode::kInput:
          step.kind = EvalStep::Kind::kInput;
          step.owner = dp.owner(p);
          break;
        case OpCode::kConst:
          step.kind = EvalStep::Kind::kConst;
          break;
        default: {
          step.kind = EvalStep::Kind::kOp;
          const int arity = dcf::op_arity(op.code);
          step.arity = static_cast<std::uint8_t>(arity);
          const auto& ins = dp.input_ports(dp.owner(p));
          for (int k = 0; k < arity; ++k) {
            step.src[k] = ins[static_cast<std::size_t>(k)].value();
          }
          break;
        }
      }
    }
    plan.schedule.push_back(step);
  }
  return plan;
}

void build_sparse_topology(ConfigPlan& plan) {
  SparseState& sp = plan.sparse;
  if (sp.topology_built) return;
  const std::size_t steps = plan.schedule.size();

  // Map port -> schedule index writing it (the schedule writes each cone
  // port at most once).
  std::size_t max_port = 0;
  for (const EvalStep& step : plan.schedule) {
    max_port = std::max<std::size_t>(max_port, step.dst);
    if (step.kind == EvalStep::Kind::kCopy) {
      max_port = std::max<std::size_t>(max_port, step.src[0]);
    } else if (step.kind == EvalStep::Kind::kOp) {
      for (std::uint8_t k = 0; k < step.arity; ++k) {
        max_port = std::max<std::size_t>(max_port, step.src[k]);
      }
    }
  }
  std::vector<std::uint32_t> writer(max_port + 1, kNoDriver);
  for (std::size_t i = 0; i < steps; ++i) {
    writer[plan.schedule[i].dst] = static_cast<std::uint32_t>(i);
  }

  // Leaves: the steps whose value can change between executions of this
  // plan while the support stays fixed. kConst/⊥-copy sources never do.
  sp.leaf_steps.clear();
  for (std::size_t i = 0; i < steps; ++i) {
    const EvalStep::Kind kind = plan.schedule[i].kind;
    if (kind == EvalStep::Kind::kReg || kind == EvalStep::Kind::kInput) {
      sp.leaf_steps.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Dependency CSR: for each step, the later steps reading its dst. Two
  // passes (count, fill) over the schedule's source lists.
  sp.dep_offsets.assign(steps + 1, 0);
  auto for_each_source = [&](const EvalStep& step, auto&& fn) {
    if (step.kind == EvalStep::Kind::kCopy) {
      fn(step.src[0]);
    } else if (step.kind == EvalStep::Kind::kOp) {
      for (std::uint8_t k = 0; k < step.arity; ++k) fn(step.src[k]);
    }
  };
  for (std::size_t i = 0; i < steps; ++i) {
    for_each_source(plan.schedule[i], [&](std::uint32_t src) {
      const std::uint32_t w = writer[src];
      if (w != kNoDriver) ++sp.dep_offsets[w + 1];
    });
  }
  for (std::size_t i = 0; i < steps; ++i) {
    sp.dep_offsets[i + 1] += sp.dep_offsets[i];
  }
  sp.dep_steps.assign(sp.dep_offsets[steps], 0);
  std::vector<std::uint32_t> cursor(sp.dep_offsets.begin(),
                                    sp.dep_offsets.end() - 1);
  for (std::size_t i = 0; i < steps; ++i) {
    for_each_source(plan.schedule[i], [&](std::uint32_t src) {
      const std::uint32_t w = writer[src];
      if (w != kNoDriver) {
        sp.dep_steps[cursor[w]++] = static_cast<std::uint32_t>(i);
      }
    });
  }
  sp.topology_built = true;
}

std::vector<TransitionActions> compile_transition_actions(
    const dcf::System& system) {
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const petri::Net& net = cn.net();

  std::vector<TransitionActions> actions(net.transition_count());
  for (TransitionId t : net.transitions()) {
    TransitionActions& act = actions[t.index()];
    for (PlaceId p : net.pre(t)) {
      for (ArcId a : cn.controlled_arcs(p)) {
        const VertexId src = dp.arc_source_vertex(a);
        if (dp.kind(src) == dcf::VertexKind::kInput) {
          act.consumes.push_back(src);  // deduplicated per cycle at run time
        }
        const PortId target = dp.arc_target(a);
        const VertexId dst = dp.owner(target);
        for (PortId o : dp.output_ports(dst)) {
          if (dp.operation(o).code != OpCode::kReg) continue;
          const auto& ins = dp.input_ports(dst);
          if (ins.empty() || ins.front() != target) continue;
          act.latches.emplace_back(target.value(), o.value());
        }
      }
    }
  }
  return actions;
}

std::size_t ConfigPlan::approx_bytes() const {
  const auto bitset_bytes = [](const DynamicBitset& bits) {
    return (bits.size() + 7) / 8;
  };
  std::size_t bytes = sizeof(ConfigPlan);
  bytes += marked.capacity() * sizeof(petri::PlaceId);
  bytes += bitset_bytes(arc_active);
  bytes += controller.capacity() * sizeof(petri::PlaceId);
  bytes += schedule.capacity() * sizeof(EvalStep);
  bytes += drive_conflicts.capacity() * sizeof(std::string);
  for (const std::string& conflict : drive_conflicts) {
    bytes += conflict.capacity();
  }
  bytes += events.capacity() * sizeof(PlannedEvent);
  bytes += bitset_bytes(candidate_mask);
  bytes += candidates.capacity() * sizeof(petri::TransitionId);
  bytes += conflict_checks.capacity() * sizeof(ConflictCheck);
  for (const ConflictCheck& check : conflict_checks) {
    bytes += check.candidates.capacity() * sizeof(petri::TransitionId);
  }
  bytes += sparse.leaf_steps.capacity() * sizeof(std::uint32_t);
  bytes += sparse.dep_offsets.capacity() * sizeof(std::uint32_t);
  bytes += sparse.dep_steps.capacity() * sizeof(std::uint32_t);
  bytes += sparse.values.capacity() * sizeof(dcf::Value);
  return bytes;
}

}  // namespace camad::sim
