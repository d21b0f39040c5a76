// Chain parallelization — the data-invariant transformation (Defs
// 4.3-4.5, Thm 4.1) in the direction Section 5 uses it: "adding one more
// control flow path in the Petri net ... will allow more operation units
// to operate at the same time".
//
// The transformation finds *linear segments* of the control net — maximal
// runs S_1 → t → S_2 → ... → S_m of non-initial states linked by
// unguarded 1-in/1-out transitions — computes the dependence DAG over
// each segment (data dependence per Def 4.3 plus resource conflicts, so
// the result stays properly designed per Def 3.2 rule 1), and replaces
// the run by a fork/join realization of the DAG's transitive reduction:
//
//   * every transition that fed S_1 now feeds all DAG roots (fork);
//   * S_m is constrained to stay the unique sink, so the segment's exit
//     transitions — whose guards may read condition ports computed while
//     S_m is marked — are left untouched;
//   * DAG edges become direct transitions where 1:1, otherwise
//     control-only helper places carry the synchronization.
//
// Data-invariance by construction: dependent pairs keep their ⇒ order
// (every dependence edge is realized as a directed path), and only
// independent, conflict-free pairs lose it.
#pragma once

#include <cstddef>

#include "dcf/system.h"
#include "semantics/analysis.h"
#include "semantics/dependence.h"
#include "util/bitset.h"

namespace camad::transform {

struct ParallelizeOptions {
  semantics::DependenceOptions dependence;
  /// Use the literal Def 4.4 closure ◇ (freezes whole components; ablation
  /// knob for E1).
  bool strict_transitive = false;
  /// Also order states whose association sets overlap (Def 3.2 rule 1);
  /// disable only to demonstrate the resulting design-rule violations.
  bool respect_resource_conflicts = true;
  /// Minimum segment length worth transforming.
  std::size_t min_segment = 2;
};

struct ParallelizeStats {
  std::size_t segments_found = 0;
  std::size_t segments_transformed = 0;
  std::size_t states_in_segments = 0;
  std::size_t dependence_edges = 0;   ///< after transitive reduction
  std::size_t helper_places = 0;
};

/// Returns the transformed system; the original is untouched. The result
/// keeps every original state (same names, same C, same M0), so
/// semantics::check_data_invariant can compare the two directly.
/// Parallelization rewrites the control net (fork/join realization), so
/// it preserves no analyses; the cached overload (cache bound to
/// `system`) reuses the input's dependence relation, the only analysis
/// the transformation consumes.
dcf::System parallelize(const dcf::System& system,
                        const ParallelizeOptions& options = {},
                        ParallelizeStats* stats = nullptr);
dcf::System parallelize(const dcf::System& system,
                        const semantics::AnalysisCache& cache,
                        const ParallelizeOptions& options = {},
                        ParallelizeStats* stats = nullptr);

/// A maximal linear run of non-initial states linked by unguarded
/// 1-in/1-out transitions — the unit the transformation (and the
/// synth::schedule bound analysis) operates on.
struct LinearSegment {
  std::vector<petri::PlaceId> states;
  std::vector<petri::TransitionId> interior;  ///< |states| - 1 transitions
};

/// All maximal linear segments with at least `min_states` states.
std::vector<LinearSegment> find_linear_segments(const dcf::System& system,
                                                std::size_t min_states = 2);

/// Def 3.2 rule 1 over a run of states: element i holds the vertices
/// states[i] is associated with (the targets of its controlled arcs).
/// Two states' association sets overlap exactly when their elements
/// intersect, since a shared controlled arc implies a shared target
/// vertex.
std::vector<DynamicBitset> association_sets(
    const dcf::System& system, const std::vector<petri::PlaceId>& states);

}  // namespace camad::transform
