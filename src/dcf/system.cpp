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
      datapath_(std::move(datapath)),
      control_(std::move(control)) {}

std::vector<VertexId> System::associated_vertices(
    petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (ArcId a : control_.controlled_arcs(state)) {
    push_unique(out, datapath_.arc_target_vertex(a));
  }
  return out;
}

std::vector<VertexId> System::domain(petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (ArcId a : control_.controlled_arcs(state)) {
    push_unique(out, datapath_.arc_source_vertex(a));
  }
  return out;
}

std::vector<VertexId> System::codomain(petri::PlaceId state) const {
  return associated_vertices(state);
}

std::vector<VertexId> System::result_set(petri::PlaceId state) const {
  std::vector<VertexId> out;
  for (VertexId v : codomain(state)) {
    if (datapath_.is_sequential_vertex(v)) push_unique(out, v);
  }
  return out;
}

bool System::touches_environment(petri::PlaceId state) const {
  const auto& arcs = control_.controlled_arcs(state);
  return std::any_of(arcs.begin(), arcs.end(), [this](ArcId a) {
    return datapath_.is_external_arc(a);
  });
}

void System::validate() const {
  datapath_.validate();
  for (petri::PlaceId s : control_.net().places()) {
    for (ArcId a : control_.controlled_arcs(s)) {
      if (a.index() >= datapath_.arc_count()) {
        throw ModelError("validate: C(" + control_.net().name(s) +
                         ") references a nonexistent arc");
      }
    }
  }
  for (petri::TransitionId t : control_.net().transitions()) {
    for (PortId p : control_.guards(t)) {
      if (p.index() >= datapath_.port_count()) {
        throw ModelError("validate: guard of " + control_.net().name(t) +
                         " references a nonexistent port");
      }
      if (datapath_.direction(p) != PortDir::kOut) {
        throw ModelError("validate: guard of " + control_.net().name(t) +
                         " must be an output port (G : O -> 2^T)");
      }
    }
  }
}

System System::with_datapath(DataPath datapath,
                            const std::vector<PortId>& port_map) const {
  ControlNet control = control_;
  control.remap_guards(port_map);
  System result(std::move(datapath), std::move(control), name_);
  result.validate();
  return result;
}

}  // namespace camad::dcf
