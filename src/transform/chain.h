// Control-state chaining: merging adjacent control states.
//
// The third way to change the schedule (besides reordering and resource
// sharing): two consecutive states S1 -> t -> S2 linked the way a linear
// segment is (transform::linear_successor) can execute as *one* state
// when parallelize's ordering rule (transform::ordering_edges) puts no
// edge between them:
//   * they are data-independent (every Def 4.3 clause — in particular
//     clause (e): if both touch the environment, merging would turn an
//     ordered ≺ pair of external events into a concurrent ≈ pair and
//     change the semantics), and
//   * their association sets are disjoint (no shared input ports).
//
// The merged state opens C(S1) ∪ C(S2); the cycle count drops by one per
// merge while the cycle time is unchanged (the two active subgraphs are
// disjoint, so the critical path is their max, not their sum). Weighted
// flow arcs elsewhere in the net keep their weights.
#pragma once

#include <cstddef>

#include "dcf/system.h"
#include "semantics/analysis.h"

namespace camad::transform {

struct ChainStats {
  std::size_t states_merged = 0;  ///< number of removed states
};

/// Repeatedly chains every eligible adjacent pair until a fixpoint: S2
/// (linear_successor of S1) is chained into S1 when ordering_edges
/// leaves them unordered, under every Def 4.3 clause.
/// Chaining rewrites the control net, so it preserves *no* analyses; the
/// cached overload only serves the first fixpoint iteration (bound to the
/// input system) — later iterations recompute on the rewritten net.
dcf::System chain_states(const dcf::System& system,
                         ChainStats* stats = nullptr);
dcf::System chain_states(const dcf::System& system,
                         const semantics::AnalysisCache& cache,
                         ChainStats* stats = nullptr);

}  // namespace camad::transform
