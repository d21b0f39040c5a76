// Canonical structural design hash for search-space de-duplication.
//
// The Pareto explorer reaches the same serial master along many action
// orders (merge A then B ≡ merge B then A, a split undoes a merge, …).
// Re-measuring each arrival would multiply the search cost by the number
// of permutations, so candidates are de-duplicated by a hash of the
// design's *structure*: a Weisfeiler-Lehman-style iterative label
// refinement over the typed union graph of data path (vertices, ports,
// arcs) and control net (places, transitions, C, G, flow with weights).
//
// Invariances, by construction:
//   * renumbering — vertex/port/arc/place/transition ids never enter a
//     label; neighbours contribute as sorted multisets;
//   * internal renaming — only *external* vertex names (the nominal
//     environment interface) are hashed; merge "a into b" and "b into a"
//     therefore collide, which is exactly the dedup the search wants.
// Operand order stays significant (a port's position in its owner's
// input list is part of its label — `a - b` never collides with
// `b - a` unless the channels themselves are isomorphic).
//
// Equal hashes do not certify isomorphism: a collision only costs the
// search one unexplored (behaviourally equivalent) route, never
// soundness — every reported point is still Def 4.1-checked against the
// seed. tests/optimizer_test.cpp sweeps 500 generated designs asserting
// hash-equal ⇒ differential-equivalence-equal and reports the observed
// collision rate.
//
// Cost: the Pareto search hashes every successor, so one call builds the
// union graph as CSR in buffers local to the call, mixes and sorts each
// neighbourhood in place in one flat array, and takes each round's
// distinct-label count with an exact open-addressing pass. None of this
// changes a value: the hash is the one camadd design ids and frontier
// JSON `hash` fields have always carried, and tests/optimizer_test.cpp
// pins it on the bench corpus and on generated programs.
#pragma once

#include <cstdint>

#include "dcf/system.h"

namespace camad::synth {

/// Canonical structural hash of a system (see file comment for the
/// invariance contract). Deterministic across runs and platforms: mixes
/// with fixed 64-bit constants, never std::hash.
[[nodiscard]] std::uint64_t design_hash(const dcf::System& system);

}  // namespace camad::synth
