// Register sharing: the sound sequential-vertex merger.
//
// Def 4.6's precondition (same operation + port structure, users in
// sequential order) is *not* sufficient for registers: two registers
// hold distinct live values, and merging them is only safe when their
// value lifetimes never overlap. This module supplies the missing
// analysis — classical may-liveness over the control net's state graph —
// and shares registers by colouring the interference graph (DSATUR),
// exactly the register-allocation step a CAMAD-era synthesis system ran
// after scheduling. Sharing itself is the merger's rebuild applied per
// colour class: one vertex collapse (dcf::DataPath::fold) under
// dcf::System::with_datapath, which copies the control net unchanged.
//
// Interference rules (conservative, hence sound):
//   * r1 is written in a state where r2 is live-out            (overlap)
//   * r1 and r2 are written in the same state                  (port clash)
//   * r1 and r2 are live or written in structurally parallel or
//     reachably co-markable states (they coexist in time across
//     branches; ∥ alone is cycle-blind inside loops)           (Def 2.3 ∥)
//   * r1 may be read while still undefined                     (⊥ escape)
//
// The last rule has no classical analogue: compilers treat reads of
// uninitialized variables as undefined behaviour, but here ⊥ is a
// first-class *observable* value (Def 3.1 rule 10) — a register read
// before any write must yield ⊥, and a guard reading ⊥ must not fire.
// Merging such a register would substitute a stale defined value from its
// colour class, changing events and even branch timing. Registers not
// definitely assigned before every use (forward must-assignment over the
// state graph; guard reads count as uses at the transition's pre-states)
// therefore interfere with everything and keep private storage.
//
// "Assigned" is definedness-aware: ⊥ never latches (Def 3.1 rule 10), so
// a write only counts — both as a must-assignment and as a liveness
// kill — when the cone driving the register is *definitely* defined:
// constants and environment inputs are defined (a non-exhausting
// environment is the Def 3.5 operating contract), total COM ops
// propagate definedness, and partial ops (div/mod/shift) never do.
#pragma once

#include <vector>

#include "dcf/system.h"
#include "graph/coloring.h"
#include "semantics/analysis.h"
#include "util/bitset.h"

namespace camad::transform {

/// Liveness of registers across control states. Register sets are
/// indexed positionally into `registers`.
struct LivenessResult {
  std::vector<dcf::VertexId> registers;   ///< analyzed register vertices
  std::vector<DynamicBitset> live_in;     ///< state index -> register set
  std::vector<DynamicBitset> live_out;
  std::vector<DynamicBitset> reads;       ///< dom-side + guard register uses
  std::vector<DynamicBitset> writes;      ///< R(S) registers
  /// Registers some state (or guard) may read before any write reached
  /// them — their ⊥ is observable, so they must not share storage.
  DynamicBitset maybe_undef_read;
};

/// Backward may-liveness to a fixpoint over the state graph (S -> S'
/// whenever some transition consumes S and produces S').
LivenessResult analyze_liveness(const dcf::System& system);

/// Liveness memoized in `cache` (Analysis::kLiveness slot) — computed at
/// most once per cache generation.
const LivenessResult& cached_liveness(const semantics::AnalysisCache& cache);

/// Interference graph over `liveness.registers`, with the structural
/// order and co-marking relation from `cache` (bound to `system`).
graph::UndirectedGraph interference_graph(
    const dcf::System& system, const LivenessResult& liveness,
    const semantics::AnalysisCache& cache);

struct RegShareStats {
  std::size_t registers_before = 0;
  std::size_t registers_after = 0;
  std::size_t interference_edges = 0;
};

/// Analyses that stay valid across share_registers: the control net is
/// copied verbatim, so all Petri-net analyses carry over. Dependence and
/// liveness do not (vertex ids are renumbered, supports merge).
[[nodiscard]] semantics::PreservedAnalyses regshare_preserved_analyses();

/// Allocates physical registers by colouring and rebuilds the system with
/// each colour class folded onto its first register. Arc identities are
/// preserved (C mappings stay valid); guard ports are re-anchored.
dcf::System share_registers(const dcf::System& system,
                            RegShareStats* stats = nullptr);
dcf::System share_registers(const dcf::System& system,
                            const semantics::AnalysisCache& cache,
                            RegShareStats* stats = nullptr);

}  // namespace camad::transform
