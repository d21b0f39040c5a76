// Control-net cleanup: eliding pass-through control-only states.
//
// Compilation and parallelization leave *control-only* states (C(S) = ∅):
// empty else-branches, par entry places, fork/join helpers. A
// control-only state whose token merely passes from one transition to
// the next costs a cycle without doing work; when it sits in a plain
// 1-in/1-out position, the two surrounding transitions can fuse.
//
// The elision never touches states with controlled arcs, never removes
// guards (the fused transition inherits both guard sets — only legal
// when at most one side is guarded), and preserves external events
// (control-only states observe nothing). It keeps a place that a
// weighted arc fills with several tokens at once, and copies every other
// arc's weight.
#pragma once

#include <cstddef>

#include "dcf/system.h"

namespace camad::transform {

struct CleanupStats {
  std::size_t states_removed = 0;
};

/// Repeatedly elides eligible control-only states until a fixpoint.
dcf::System cleanup_control(const dcf::System& system,
                            CleanupStats* stats = nullptr);

}  // namespace camad::transform
