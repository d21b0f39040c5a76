// Lifting external control nets into checkable dcf::Systems.
//
// A PNML import is a bare marked Petri net — the control half of the
// paper's Γ = (D, S, T, F, C, G, M0) with no data path attached. To run
// it through machinery that expects a full System (camadc verify, the
// oracle battery, transforms), we wrap it with a synthesized data-path
// stub: the compositional control/data split means the checker's verdicts
// on the control net are unaffected by what the stub computes, while the
// C-mapping still gets exercised end to end.
#pragma once

#include <string>

#include "dcf/system.h"
#include "petri/net.h"

namespace camad::gen {

/// Shape of the synthesized data path.
enum class StubStyle {
  /// Control net only; the data path stays empty. Lightest option — the
  /// model checker never looks at the data path.
  kNone,
  /// One shared environment input plus one register per control state,
  /// each latching through an arc controlled by its state. Every state
  /// has a nonempty C(S), so C-mapping plumbing is exercised.
  kRegisterPerState,
};

struct LiftOptions {
  StubStyle stub = StubStyle::kRegisterPerState;
};

/// Replays `control` (states, transitions, weighted flow arcs, initial
/// marking, names) into a fresh System with a synthesized data path.
/// Place/transition ids are preserved index-for-index. The result is
/// validated before it is returned.
dcf::System lift_control_net(const petri::Net& control,
                             const LiftOptions& options = {},
                             const std::string& name = "imported");

/// Loads a design from file text: a saved `camad-system v1` file, a PNML
/// net (text starting with '<') lifted with the default stub and named by
/// its net id, or `fallback_name` when it has none, or else BDL source.
/// Throws camad::Error / ParseError on malformed input. camadc and
/// camadd's upload both load through it.
dcf::System parse_design_text(const std::string& text,
                              const std::string& fallback_name);

}  // namespace camad::gen
