#include "dcf/control.h"

#include <algorithm>

#include "util/error.h"

namespace camad::dcf {

void ControlNet::sync_sizes() {
  control_.resize(net_.place_count());
  guards_.resize(net_.transition_count());
}

petri::PlaceId ControlNet::add_state(std::string name) {
  const petri::PlaceId id = net_.add_place(std::move(name));
  sync_sizes();
  return id;
}

petri::TransitionId ControlNet::add_transition(std::string name) {
  const petri::TransitionId id = net_.add_transition(std::move(name));
  sync_sizes();
  return id;
}

void ControlNet::control(petri::PlaceId state, ArcId arc) {
  if (state.index() >= control_.size()) {
    throw ModelError("ControlNet::control: state out of range");
  }
  auto& arcs = control_[state.index()];
  if (std::find(arcs.begin(), arcs.end(), arc) == arcs.end()) {
    arcs.push_back(arc);
  }
}

void ControlNet::guard(petri::TransitionId transition, PortId port) {
  if (transition.index() >= guards_.size()) {
    throw ModelError("ControlNet::guard: transition out of range");
  }
  auto& ports = guards_[transition.index()];
  if (std::find(ports.begin(), ports.end(), port) == ports.end()) {
    ports.push_back(port);
  }
}

void ControlNet::remap_guards(const std::vector<PortId>& port_map) {
  for (std::vector<PortId>& ports : guards_) {
    std::vector<PortId> mapped;
    for (PortId g : ports) {
      const PortId to = port_map[g.index()];
      if (std::find(mapped.begin(), mapped.end(), to) == mapped.end()) {
        mapped.push_back(to);
      }
    }
    ports = std::move(mapped);
  }
}

const std::vector<ArcId>& ControlNet::controlled_arcs(
    petri::PlaceId state) const {
  return control_[state.index()];
}

const std::vector<PortId>& ControlNet::guards(
    petri::TransitionId transition) const {
  return guards_[transition.index()];
}

std::vector<petri::PlaceId> ControlNet::controlling_states(ArcId arc) const {
  std::vector<petri::PlaceId> out;
  for (std::size_t i = 0; i < control_.size(); ++i) {
    const auto& arcs = control_[i];
    if (std::find(arcs.begin(), arcs.end(), arc) != arcs.end()) {
      out.emplace_back(static_cast<petri::PlaceId::underlying_type>(i));
    }
  }
  return out;
}

}  // namespace camad::dcf
