#include "dcf/system.h"

#include <algorithm>

#include "util/error.h"

namespace camad::dcf {
namespace {

void push_unique(std::vector<VertexId>& out, VertexId v) {
  if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
}

}  // namespace

System::System(DataPath datapath, ControlNet control, std::string name)
    : name_(std::move(name)),
      datapath_(std::make_shared<const DataPath>(std::move(datapath))),
      control_(std::make_shared<const ControlNet>(std::move(control))) {}

const DataPath& System::empty_datapath() {
  static const DataPath kEmpty;
  return kEmpty;
}

const ControlNet& System::empty_control() {
  static const ControlNet kEmpty;
  return kEmpty;
}

std::vector<VertexId> System::associated_vertices(
    petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (ArcId a : control().controlled_arcs(state)) {
    push_unique(out, datapath().arc_target_vertex(a));
  }
  return out;
}

std::vector<VertexId> System::domain(petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (ArcId a : control().controlled_arcs(state)) {
    push_unique(out, datapath().arc_source_vertex(a));
  }
  return out;
}

std::vector<VertexId> System::codomain(petri::PlaceId state) const {
  return associated_vertices(state);
}

std::vector<VertexId> System::result_set(petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (VertexId v : codomain(state)) {
    if (datapath().is_sequential_vertex(v)) push_unique(out, v);
  }
  return out;
}

bool System::touches_environment(petri::PlaceId state) const {
  const auto& arcs = control().controlled_arcs(state);
  return std::any_of(arcs.begin(), arcs.end(), [this](ArcId a) {
    return datapath().is_external_arc(a);
  });
}

void System::validate() const {
  datapath().validate();
  for (petri::PlaceId s : control().net().places()) {
    for (ArcId a : control().controlled_arcs(s)) {
      if (a.index() >= datapath().arc_count()) {
        throw ModelError("validate: C(" + control().net().name(s) +
                         ") references a nonexistent arc");
      }
    }
  }
  for (petri::TransitionId t : control().net().transitions()) {
    for (PortId p : control().guards(t)) {
      if (p.index() >= datapath().port_count()) {
        throw ModelError("validate: guard of " + control().net().name(t) +
                         " references a nonexistent port");
      }
      if (datapath().direction(p) != PortDir::kOut) {
        throw ModelError("validate: guard of " + control().net().name(t) +
                         " must be an output port (G : O -> 2^T)");
      }
    }
  }
}

System System::with_datapath(DataPath datapath,
                            const std::vector<PortId>& port_map) const {
  ControlNet control = this->control();
  control.remap_guards(port_map);
  System result(std::move(datapath), std::move(control), name_);
  result.validate();
  return result;
}

System System::with_control(ControlNet control) const {
  System result;
  result.name_ = name_;
  result.datapath_ = datapath_;
  result.control_ = std::make_shared<const ControlNet>(std::move(control));
  result.validate();
  return result;
}

}  // namespace camad::dcf
