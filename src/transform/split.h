// Vertex splitting — the inverse of the Def 4.6 merger.
//
// Moves a subset of a shared functional unit's uses onto a fresh copy of
// the unit, un-serializing them so a later parallelization can overlap
// the users. Control-invariant in the same sense as the merger: arcs are
// re-anchored (identities preserved), the control structure is
// untouched, and the two units compute the same function. The split
// builds its own data path and hands it to dcf::System::with_datapath,
// the merger's control-net copy.
#pragma once

#include <string>
#include <vector>

#include "dcf/system.h"
#include "semantics/analysis.h"

namespace camad::transform {

struct SplitCheck {
  bool legal = false;
  std::string why;
};

/// Like the merger it inverts, splitting copies the control net verbatim:
/// every Petri-net analysis of the input stays valid for the output.
[[nodiscard]] semantics::PreservedAnalyses split_preserved_analyses();

/// Checks that `moved_states`' uses of `v` can move to a fresh copy:
/// `v` must be a combinatorial internal unit, every moved state must be
/// associated with it, and no controlled arc of `v` may be shared
/// between a moved and a kept state (each arc's controllers must fall
/// entirely on one side). Ports of `v` must not guard any transition
/// adjacent to a kept state only... guards are rejected entirely for
/// simplicity (condition cones are never shared units in compiled
/// designs).
SplitCheck can_split(const dcf::System& system, dcf::VertexId v,
                     const std::vector<petri::PlaceId>& moved_states);

/// Performs the split; the copy is named `<v>_split`. Throws
/// TransformError unless can_split passes.
dcf::System split_vertex(const dcf::System& system, dcf::VertexId v,
                         const std::vector<petri::PlaceId>& moved_states);

}  // namespace camad::transform
