// The complete data/control flow system Γ = (D, S, T, F, C, G, M0).
//
// Combines a DataPath with a ControlNet and exposes the derived sets the
// paper's definitions and transformations are phrased in:
//   * ASS(S)  — arcs in C(S) plus vertices associated via their input
//               ports (Defs 2.4/2.5);
//   * dom(S)  — vertices with an output port on a controlled arc;
//   * cod(S)  — vertices with an input port on a controlled arc;
//   * R(S)    — sequential subset of cod(S), the state's result set
//               (Def 4.2).
//
// A built System is immutable except for its name. It holds D and the
// control part (S, T, F, C, G, M0) as shared parts, so a copy shares
// both, and each transformation class shares the half it leaves alone:
// a data-invariant rebuild (Thm 4.1) returns with_control(), a new
// control net over this data path; a vertex merger (Thm 4.2) returns
// with_datapath(), a new data path under a copy of this control net.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dcf/control.h"
#include "dcf/datapath.h"

namespace camad::dcf {

class System {
 public:
  /// The empty system. Like a moved-from System, it holds no parts and
  /// allocates nothing; its accessors return empty ones.
  System() = default;
  System(DataPath datapath, ControlNet control, std::string name = "system");

  [[nodiscard]] const DataPath& datapath() const {
    return datapath_ != nullptr ? *datapath_ : empty_datapath();
  }
  [[nodiscard]] const ControlNet& control() const {
    return control_ != nullptr ? *control_ : empty_control();
  }
  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Vertices associated with a control state (Def 2.4): those with an
  /// input port hit by a controlled arc. Output-side vertices are *not*
  /// associated — fanout from one output port never conflicts.
  [[nodiscard]] std::vector<VertexId> associated_vertices(
      petri::PlaceId state) const;

  /// dom(S): vertices whose output port feeds an arc in C(S).
  [[nodiscard]] std::vector<VertexId> domain(petri::PlaceId state) const;
  /// cod(S): vertices whose input port is fed by an arc in C(S).
  [[nodiscard]] std::vector<VertexId> codomain(petri::PlaceId state) const;
  /// R(S): sequential vertices in cod(S).
  [[nodiscard]] std::vector<VertexId> result_set(petri::PlaceId state) const;

  /// True iff C(S) contains an external arc (used by Def 4.3 clause e).
  [[nodiscard]] bool touches_environment(petri::PlaceId state) const;

  /// Cross-structure referential integrity: C maps into real arcs, G into
  /// real output ports, and the data path itself validates. Throws.
  void validate() const;

  /// The control-invariant rebuild (Def 4.6, Thm 4.2): this system's
  /// control net — S, T, F with its weights, C and M0 — over `datapath`,
  /// each guard port g re-anchored to port_map[g]. `datapath` must keep
  /// every arc id, so C stays valid. The result is validated.
  [[nodiscard]] System with_datapath(DataPath datapath,
                                     const std::vector<PortId>& port_map) const;

  /// The data-invariant rebuild (Defs 4.3-4.5, Thm 4.1): `control` over
  /// this system's data path, which the result shares. `control` must
  /// refer only to this data path's arcs and output ports. The result is
  /// validated.
  [[nodiscard]] System with_control(ControlNet control) const;

 private:
  static const DataPath& empty_datapath();
  static const ControlNet& empty_control();

  std::string name_ = "system";
  std::shared_ptr<const DataPath> datapath_;
  std::shared_ptr<const ControlNet> control_;
};

}  // namespace camad::dcf
