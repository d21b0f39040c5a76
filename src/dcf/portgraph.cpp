#include "dcf/portgraph.h"

namespace camad::dcf {

PortGraph::PortGraph(const DataPath& dp) {
  const std::size_t ports = dp.port_count();
  in_degree_.assign(ports, 0);
  offsets_.assign(ports + 1, 0);

  // Visits every edge grouped by source kind: arcs (output ports), then
  // bindings (input ports), each group in the order out_edges promises.
  auto for_each_edge = [&](auto&& fn) {
    for (std::size_t p = 0; p < ports; ++p) {
      const PortId port(static_cast<PortId::underlying_type>(p));
      if (dp.direction(port) != PortDir::kOut) continue;
      for (ArcId a : dp.arcs_from(port)) fn(port, dp.arc_target(a), a);
    }
    for (std::size_t i = 0; i < dp.vertex_count(); ++i) {
      const VertexId v(static_cast<VertexId::underlying_type>(i));
      const auto& ins = dp.input_ports(v);
      for (PortId o : dp.output_ports(v)) {
        const OpCode code = dp.operation(o).code;
        if (op_is_sequential(code)) continue;
        const int arity = op_arity(code);
        for (int k = 0; k < arity; ++k) {
          fn(ins[static_cast<std::size_t>(k)], o, ArcId::invalid());
        }
      }
    }
  };

  for_each_edge([&](PortId from, PortId to, ArcId arc) {
    ++offsets_[from.index() + 1];
    // Arcs open per configuration: only bindings count statically.
    if (!arc.valid()) ++in_degree_[to.index()];
  });
  for (std::size_t p = 0; p < ports; ++p) offsets_[p + 1] += offsets_[p];
  edges_.resize(offsets_[ports]);
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for_each_edge([&](PortId from, PortId to, ArcId arc) {
    edges_[cursor[from.index()]++] = PortEdge{to.value(), arc};
  });

  for (std::size_t a = 0; a < dp.arc_count(); ++a) {
    const ArcId arc(static_cast<ArcId::underlying_type>(a));
    if (dp.is_external_arc(arc)) external_arcs_.push_back(arc);
  }
  for (std::size_t i = 0; i < dp.vertex_count(); ++i) {
    const VertexId v(static_cast<VertexId::underlying_type>(i));
    if (dp.kind(v) == VertexKind::kInput) {
      environment_sources_.push_back(dp.the_output_port(v));
    }
  }
}

}  // namespace camad::dcf
