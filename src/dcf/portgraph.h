// The configuration-independent port graph of a data path.
//
// Under Def 2.1 the binding B of every output port to its vertex's input
// ports is fixed for a system; control (Def 3.1 rules 7-10) only decides
// which arcs are open. A PortGraph holds that static structure once, in
// flat arrays, so per-configuration work (sim::compile_plan) and
// per-state work (synth::state_path_delays) combine it with an active
// arc set instead of rebuilding a graph::Digraph each time:
//
//   * every port's out-edges in CSR form: an output port's arcs, each
//     open only while its arc is active, and an input port's
//     combinational edges to the outputs of its vertex that read it;
//   * each port's static in-degree (the operand count of a
//     combinational output; an input port's in-degree is its number of
//     active arcs, so it is 0 here);
//   * the external arcs (Def 3.3) and the environment-source ports.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dcf/datapath.h"

namespace camad::dcf {

/// One out-edge of a port: an arc, open only while `arc` is active, or a
/// combinational binding inside a vertex (`arc` invalid), always present.
struct PortEdge {
  std::uint32_t to = 0;  ///< target port index
  ArcId arc;
};

class PortGraph {
 public:
  explicit PortGraph(const DataPath& dp);

  [[nodiscard]] std::size_t port_count() const { return in_degree_.size(); }

  /// Out-edges of a port, in the order graph::topological_sort visits
  /// them on the equivalent Digraph (arcs added in arc-id order, then
  /// each vertex's bindings output by output): an output port's arcs in
  /// arc-id order; an input port's combinational edges in output-port
  /// order.
  [[nodiscard]] std::span<const PortEdge> out_edges(std::size_t port) const {
    return {edges_.data() + offsets_[port], edges_.data() + offsets_[port + 1]};
  }

  /// Per-port in-degree with no arc active.
  [[nodiscard]] const std::vector<std::uint32_t>& static_in_degrees() const {
    return in_degree_;
  }

  /// Arcs touching an external vertex, in arc-id order.
  [[nodiscard]] const std::vector<ArcId>& external_arcs() const {
    return external_arcs_;
  }

  /// Output ports of the kInput vertices, in vertex order.
  [[nodiscard]] const std::vector<PortId>& environment_sources() const {
    return environment_sources_;
  }

 private:
  std::vector<std::uint32_t> offsets_;  ///< port_count() + 1
  std::vector<PortEdge> edges_;
  std::vector<std::uint32_t> in_degree_;
  std::vector<ArcId> external_arcs_;
  std::vector<PortId> environment_sources_;
};

}  // namespace camad::dcf
