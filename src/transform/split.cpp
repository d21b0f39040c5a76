#include "transform/split.h"

#include <algorithm>

#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;

/// Arcs touching any port of `v`.
std::vector<ArcId> arcs_of(const dcf::DataPath& dp, VertexId v) {
  std::vector<ArcId> out;
  for (PortId in : dp.input_ports(v)) {
    for (ArcId a : dp.arcs_into(in)) out.push_back(a);
  }
  for (PortId o : dp.output_ports(v)) {
    for (ArcId a : dp.arcs_from(o)) out.push_back(a);
  }
  return out;
}

bool is_moved(const std::vector<PlaceId>& moved, PlaceId s) {
  return std::find(moved.begin(), moved.end(), s) != moved.end();
}

}  // namespace

semantics::PreservedAnalyses split_preserved_analyses() {
  return semantics::PreservedAnalyses::control_net();
}

SplitCheck can_split(const dcf::System& system, VertexId v,
                     const std::vector<PlaceId>& moved_states) {
  const dcf::DataPath& dp = system.datapath();
  auto no = [](std::string why) { return SplitCheck{false, std::move(why)}; };

  if (v.index() >= dp.vertex_count()) return no("vertex out of range");
  if (dp.kind(v) != dcf::VertexKind::kInternal) {
    return no("cannot split an environment vertex");
  }
  if (dp.is_sequential_vertex(v)) {
    return no("splitting a register would fork its state");
  }
  if (moved_states.empty()) return no("no states to move");

  // Every port of v must be guard-free (splitting a guard source would
  // need a per-transition decision of which copy guards what).
  for (PortId o : dp.output_ports(v)) {
    for (petri::TransitionId t : system.control().net().transitions()) {
      const auto& guards = system.control().guards(t);
      if (std::find(guards.begin(), guards.end(), o) != guards.end()) {
        return no("port " + dp.name(o) + " guards transition " +
                  system.control().net().name(t));
      }
    }
  }

  // Each arc of v must be controlled entirely by moved or entirely by
  // kept states, and every moved state must actually use v.
  for (ArcId a : arcs_of(dp, v)) {
    const auto controllers = system.control().controlling_states(a);
    if (controllers.empty()) {
      return no("arc #" + std::to_string(a.value()) +
                " of the vertex is uncontrolled");
    }
    const bool first = is_moved(moved_states, controllers.front());
    for (PlaceId s : controllers) {
      if (is_moved(moved_states, s) != first) {
        return no("arc #" + std::to_string(a.value()) +
                  " is controlled by both moved and kept states");
      }
    }
  }
  for (PlaceId s : moved_states) {
    const auto assoc = system.associated_vertices(s);
    if (std::find(assoc.begin(), assoc.end(), v) == assoc.end()) {
      return no("state " + system.control().net().name(s) +
                " is not associated with " + dp.name(v));
    }
  }
  return SplitCheck{true, {}};
}

dcf::System split_vertex(const dcf::System& system, VertexId v,
                         const std::vector<PlaceId>& moved_states) {
  const SplitCheck check = can_split(system, v, moved_states);
  if (!check.legal) throw TransformError("split_vertex: " + check.why);
  const dcf::DataPath& dp = system.datapath();

  // Rebuild the data path with a copy of v appended.
  dcf::DataPath split;
  std::vector<PortId> port_map(dp.port_count(), PortId::invalid());
  for (VertexId u : dp.vertices()) {
    const VertexId nu = split.add_vertex(dp.name(u), dp.kind(u));
    for (PortId in : dp.input_ports(u)) {
      port_map[in.index()] = split.add_input_port(nu, dp.name(in));
    }
    for (PortId o : dp.output_ports(u)) {
      port_map[o.index()] = split.add_output_port(nu, dp.operation(o),
                                                  dp.name(o));
    }
  }
  const VertexId copy = split.add_vertex(dp.name(v) + "_split",
                                         dcf::VertexKind::kInternal);
  std::vector<PortId> copy_in, copy_out;
  for (PortId in : dp.input_ports(v)) {
    copy_in.push_back(split.add_input_port(copy, dp.name(in) + "_split"));
  }
  for (PortId o : dp.output_ports(v)) {
    copy_out.push_back(
        split.add_output_port(copy, dp.operation(o), dp.name(o) + "_split"));
  }

  // Redirect the moved arcs to the copy's ports.
  auto moved_port = [&](PortId old_port, ArcId arc) -> PortId {
    if (dp.owner(old_port) != v) return port_map[old_port.index()];
    const auto controllers = system.control().controlling_states(arc);
    if (!is_moved(moved_states, controllers.front())) {
      return port_map[old_port.index()];
    }
    const auto& ins = dp.input_ports(v);
    const auto& outs = dp.output_ports(v);
    for (std::size_t k = 0; k < ins.size(); ++k) {
      if (ins[k] == old_port) return copy_in[k];
    }
    for (std::size_t k = 0; k < outs.size(); ++k) {
      if (outs[k] == old_port) return copy_out[k];
    }
    throw TransformError("split_vertex: port mapping failure");
  };
  for (ArcId a : dp.arcs()) {
    split.add_arc(moved_port(dp.arc_source(a), a),
                  moved_port(dp.arc_target(a), a));
  }

  // Arc ids are preserved and v guards nothing: the control net is
  // untouched.
  return system.with_datapath(std::move(split), port_map);
}

}  // namespace camad::transform
