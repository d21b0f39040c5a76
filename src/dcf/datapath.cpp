#include "dcf/datapath.h"

#include <algorithm>

#include "util/error.h"

namespace camad::dcf {

VertexId DataPath::add_vertex(std::string name, VertexKind kind) {
  const VertexId id(static_cast<VertexId::underlying_type>(vertices_.size()));
  vertices_.push_back(Vertex{std::move(name), kind, {}, {}});
  return id;
}

PortId DataPath::add_input_port(VertexId v, std::string name) {
  if (v.index() >= vertices_.size()) {
    throw ModelError("add_input_port: vertex out of range");
  }
  const PortId id(static_cast<PortId::underlying_type>(ports_.size()));
  Vertex& vertex = vertices_[v.index()];
  if (name.empty()) {
    name = vertex.name + ".i" + std::to_string(vertex.inputs.size());
  }
  ports_.push_back(Port{std::move(name), PortDir::kIn, v, Operation{}, {}});
  vertex.inputs.push_back(id);
  return id;
}

PortId DataPath::add_output_port(VertexId v, Operation op, std::string name) {
  if (v.index() >= vertices_.size()) {
    throw ModelError("add_output_port: vertex out of range");
  }
  const PortId id(static_cast<PortId::underlying_type>(ports_.size()));
  Vertex& vertex = vertices_[v.index()];
  if (name.empty()) {
    name = vertex.name + ".o" + std::to_string(vertex.outputs.size());
  }
  ports_.push_back(Port{std::move(name), PortDir::kOut, v, op, {}});
  vertex.outputs.push_back(id);
  return id;
}

ArcId DataPath::add_arc(PortId from_output, PortId to_input) {
  if (from_output.index() >= ports_.size() ||
      to_input.index() >= ports_.size()) {
    throw ModelError("add_arc: port out of range");
  }
  if (direction(from_output) != PortDir::kOut) {
    throw ModelError("add_arc: source " + name(from_output) +
                     " is not an output port");
  }
  if (direction(to_input) != PortDir::kIn) {
    throw ModelError("add_arc: target " + name(to_input) +
                     " is not an input port");
  }
  const ArcId id(static_cast<ArcId::underlying_type>(arcs_.size()));
  arcs_.push_back(Arc{from_output, to_input});
  ports_[from_output.index()].arcs.push_back(id);
  ports_[to_input.index()].arcs.push_back(id);
  return id;
}

DataPath DataPath::fold(const std::vector<VertexId>& representative,
                        std::vector<PortId>& port_map) const {
  DataPath folded;
  port_map.assign(port_count(), PortId::invalid());
  for (VertexId v : vertices()) {
    if (representative[v.index()] != v) continue;
    const VertexId nv = folded.add_vertex(name(v), kind(v));
    for (PortId in : input_ports(v)) {
      port_map[in.index()] = folded.add_input_port(nv, name(in));
    }
    for (PortId out : output_ports(v)) {
      port_map[out.index()] =
          folded.add_output_port(nv, operation(out), name(out));
    }
  }
  for (VertexId v : vertices()) {
    const VertexId rep = representative[v.index()];
    if (rep == v) continue;
    for (std::size_t k = 0; k < input_ports(v).size(); ++k) {
      port_map[input_ports(v)[k].index()] =
          port_map[input_ports(rep)[k].index()];
    }
    for (std::size_t k = 0; k < output_ports(v).size(); ++k) {
      port_map[output_ports(v)[k].index()] =
          port_map[output_ports(rep)[k].index()];
    }
  }
  for (ArcId a : arcs()) {
    folded.add_arc(port_map[arc_source(a).index()],
                   port_map[arc_target(a).index()]);
  }
  return folded;
}

VertexId DataPath::add_input(std::string name) {
  const VertexId v = add_vertex(std::move(name), VertexKind::kInput);
  add_output_port(v, Operation{OpCode::kInput, 0});
  return v;
}

VertexId DataPath::add_output(std::string name) {
  const VertexId v = add_vertex(std::move(name), VertexKind::kOutput);
  add_input_port(v);
  return v;
}

VertexId DataPath::add_register(std::string name) {
  const VertexId v = add_vertex(std::move(name));
  add_input_port(v);
  add_output_port(v, Operation{OpCode::kReg, 0});
  return v;
}

VertexId DataPath::add_unit(std::string name, OpCode code) {
  if (op_is_sequential(code) || code == OpCode::kConst) {
    throw ModelError("add_unit: use the dedicated factory for " +
                     std::string(op_name(code)));
  }
  const VertexId v = add_vertex(std::move(name));
  for (int i = 0; i < op_arity(code); ++i) add_input_port(v);
  add_output_port(v, Operation{code, 0});
  return v;
}

VertexId DataPath::add_constant(std::string name, std::int64_t value) {
  const VertexId v = add_vertex(std::move(name));
  add_output_port(v, Operation{OpCode::kConst, value});
  return v;
}

const Operation& DataPath::operation(PortId output) const {
  const Port& port = ports_[output.index()];
  if (port.dir != PortDir::kOut) {
    throw ModelError("operation: " + port.name + " is not an output port");
  }
  return port.op;
}

bool DataPath::is_sequential_vertex(VertexId v) const {
  const Vertex& vertex = vertices_[v.index()];
  if (vertex.kind != VertexKind::kInternal) return true;
  return std::any_of(vertex.outputs.begin(), vertex.outputs.end(),
                     [this](PortId o) {
                       return op_is_sequential(ports_[o.index()].op.code);
                     });
}

bool DataPath::is_external_arc(ArcId a) const {
  return kind(arc_source_vertex(a)) != VertexKind::kInternal ||
         kind(arc_target_vertex(a)) != VertexKind::kInternal;
}

std::vector<ArcId> DataPath::external_arcs() const {
  std::vector<ArcId> out;
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    const ArcId a(static_cast<ArcId::underlying_type>(i));
    if (is_external_arc(a)) out.push_back(a);
  }
  return out;
}

PortId DataPath::the_output_port(VertexId input_vertex) const {
  const Vertex& vertex = vertices_[input_vertex.index()];
  if (vertex.kind != VertexKind::kInput || vertex.outputs.size() != 1) {
    throw ModelError("the_output_port: " + vertex.name +
                     " is not an input vertex");
  }
  return vertex.outputs.front();
}

std::vector<VertexId> DataPath::vertices() const {
  std::vector<VertexId> out;
  out.reserve(vertices_.size());
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    out.emplace_back(static_cast<VertexId::underlying_type>(i));
  }
  return out;
}

std::vector<ArcId> DataPath::arcs() const {
  std::vector<ArcId> out;
  out.reserve(arcs_.size());
  for (std::size_t i = 0; i < arcs_.size(); ++i) {
    out.emplace_back(static_cast<ArcId::underlying_type>(i));
  }
  return out;
}

VertexId DataPath::find_vertex(std::string_view name) const {
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    if (vertices_[i].name == name) {
      return VertexId(static_cast<VertexId::underlying_type>(i));
    }
  }
  return VertexId::invalid();
}

void DataPath::validate() const {
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vertex& v = vertices_[i];
    switch (v.kind) {
      case VertexKind::kInput:
        if (!v.inputs.empty() || v.outputs.size() != 1) {
          throw ModelError("validate: input vertex " + v.name +
                           " must have exactly one output port and none in");
        }
        if (ports_[v.outputs[0].index()].op.code != OpCode::kInput) {
          throw ModelError("validate: input vertex " + v.name +
                           " must carry the input op");
        }
        break;
      case VertexKind::kOutput:
        if (v.inputs.size() != 1 || !v.outputs.empty()) {
          throw ModelError("validate: output vertex " + v.name +
                           " must have exactly one input port and none out");
        }
        break;
      case VertexKind::kInternal:
        for (PortId o : v.outputs) {
          const Operation& op = ports_[o.index()].op;
          if (op.code == OpCode::kInput) {
            throw ModelError("validate: internal vertex " + v.name +
                             " carries the environment input op");
          }
          const int arity = op_arity(op.code);
          if (static_cast<int>(v.inputs.size()) < arity) {
            throw ModelError("validate: vertex " + v.name + " op " +
                             std::string(op_name(op.code)) + " needs " +
                             std::to_string(arity) + " input ports");
          }
        }
        break;
    }
  }
  for (const Arc& arc : arcs_) {
    if (ports_[arc.from.index()].dir != PortDir::kOut ||
        ports_[arc.to.index()].dir != PortDir::kIn) {
      throw ModelError("validate: arc with wrong port directions");
    }
  }
}

}  // namespace camad::dcf
