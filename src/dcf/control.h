// The control part of Γ = (D, S, T, F, C, G, M0) — Def 2.2.
//
// A marked Petri net extended with:
//   C : S → 2^A  each control state opens a set of data-path arcs while
//                marked (its control signal);
//   G : O → 2^T  transitions guarded by data-path output ports; a guarded
//                transition may fire only when the OR of its guard port
//                values is TRUE (Def 3.1 rule 4).
// Stored inverted (place → arcs, transition → ports) for execution.
#pragma once

#include <vector>

#include "dcf/datapath.h"
#include "petri/net.h"

namespace camad::dcf {

class ControlNet {
 public:
  /// The underlying Petri net (S, T, F, M0).
  [[nodiscard]] petri::Net& net() { return net_; }
  [[nodiscard]] const petri::Net& net() const { return net_; }

  petri::PlaceId add_state(std::string name = {});
  petri::TransitionId add_transition(std::string name = {});

  /// Registers arc ∈ C(state). Duplicates are ignored.
  void control(petri::PlaceId state, ArcId arc);
  /// Registers transition ∈ G(port); `port` must be an output port.
  void guard(petri::TransitionId transition, PortId port);
  /// Moves every guard port g to port_map[g]; ports that land on one
  /// port keep their first occurrence, as guard() would.
  void remap_guards(const std::vector<PortId>& port_map);

  /// C(S): arcs controlled by the state.
  [[nodiscard]] const std::vector<ArcId>& controlled_arcs(
      petri::PlaceId state) const;
  /// Guard ports of a transition (empty = unguarded, always fireable).
  [[nodiscard]] const std::vector<PortId>& guards(
      petri::TransitionId transition) const;

  /// States controlling a given arc (inverse of C). Computed lazily is not
  /// worth it at our sizes; scans C.
  [[nodiscard]] std::vector<petri::PlaceId> controlling_states(ArcId arc) const;

  [[nodiscard]] std::size_t state_count() const { return net_.place_count(); }
  [[nodiscard]] std::size_t transition_count() const {
    return net_.transition_count();
  }

 private:
  void sync_sizes();

  petri::Net net_;
  std::vector<std::vector<ArcId>> control_;  // place index -> arcs
  std::vector<std::vector<PortId>> guards_;  // transition index -> ports
};

}  // namespace camad::dcf
