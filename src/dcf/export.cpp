#include "dcf/export.h"

#include "util/dot.h"

namespace camad::dcf {
namespace {

std::string vertex_label(const DataPath& dp, VertexId v) {
  std::string label = dp.name(v);
  switch (dp.kind(v)) {
    case VertexKind::kInput: return label + " [in]";
    case VertexKind::kOutput: return label + " [out]";
    case VertexKind::kInternal: break;
  }
  for (PortId o : dp.output_ports(v)) {
    const Operation& op = dp.operation(o);
    label += "\\n" + std::string(op_name(op.code));
    if (op.code == OpCode::kConst) label += "=" + std::to_string(op.immediate);
  }
  return label;
}

void emit_datapath(const DataPath& dp, DotWriter& dot) {
  for (VertexId v : dp.vertices()) {
    const char* shape = "box";
    if (dp.kind(v) != VertexKind::kInternal) shape = "invhouse";
    dot.add_node("v" + std::to_string(v.value()),
                 {{"shape", shape}, {"label", vertex_label(dp, v)}});
  }
  for (ArcId a : dp.arcs()) {
    dot.add_edge("v" + std::to_string(dp.arc_source_vertex(a).value()),
                 "v" + std::to_string(dp.arc_target_vertex(a).value()),
                 {{"label", "a" + std::to_string(a.value())}});
  }
}

}  // namespace

std::string system_to_dot(const System& system) {
  DotWriter dot(system.name());
  dot.begin_cluster("datapath", "data path");
  emit_datapath(system.datapath(), dot);
  dot.end_cluster();

  dot.begin_cluster("control", "control net");
  const auto& net = system.control().net();
  for (petri::PlaceId p : net.places()) {
    DotWriter::Attrs attrs{{"shape", "circle"}, {"label", net.name(p)}};
    if (net.initial_tokens(p) > 0) {
      attrs.emplace_back("style", "filled");
      attrs.emplace_back("fillcolor", "lightblue");
    }
    dot.add_node("s" + std::to_string(p.value()), attrs);
  }
  for (petri::TransitionId t : net.transitions()) {
    dot.add_node("t" + std::to_string(t.value()),
                 {{"shape", "box"}, {"label", net.name(t)}});
    for (petri::PlaceId p : net.pre(t)) {
      dot.add_edge("s" + std::to_string(p.value()),
                   "t" + std::to_string(t.value()));
    }
    for (petri::PlaceId p : net.post(t)) {
      dot.add_edge("t" + std::to_string(t.value()),
                   "s" + std::to_string(p.value()));
    }
  }
  dot.end_cluster();

  // Control mapping: dashed edge from state to the target vertex of each
  // controlled arc; guards as dotted edges from port-owning vertex.
  const DataPath& dp = system.datapath();
  for (petri::PlaceId p : net.places()) {
    for (ArcId a : system.control().controlled_arcs(p)) {
      dot.add_edge(
          "s" + std::to_string(p.value()),
          "v" + std::to_string(dp.arc_target_vertex(a).value()),
          {{"style", "dashed"}, {"color", "gray"},
           {"label", "a" + std::to_string(a.value())}});
    }
  }
  for (petri::TransitionId t : net.transitions()) {
    for (PortId g : system.control().guards(t)) {
      dot.add_edge("v" + std::to_string(dp.owner(g).value()),
                   "t" + std::to_string(t.value()),
                   {{"style", "dotted"}, {"color", "red"}});
    }
  }
  return dot.finish();
}

}  // namespace camad::dcf
