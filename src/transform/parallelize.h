// Chain parallelization — the data-invariant transformation (Defs
// 4.3-4.5, Thm 4.1) in the direction Section 5 uses it: "adding one more
// control flow path in the Petri net ... will allow more operation units
// to operate at the same time".
//
// The transformation finds *linear segments* of the control net — maximal
// runs S_1 → t → S_2 → ... → S_m of non-initial states linked by
// unguarded 1-in/1-out transitions (linear_successor) — orders each
// segment by one rule (ordering_edges: data dependence per Def 4.3 plus
// resource conflicts, so the result stays properly designed per Def 3.2
// rule 1), and replaces the run by a fork/join realization of the
// ordering DAG's transitive reduction:
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
// independent, conflict-free pairs lose it. Weighted flow arcs (imported
// P/T nets) keep their weights through the rebuild.
//
// The same link and the same ordering rule serve chain_states, which
// fuses two linked states exactly when no ordering edge joins them, and
// synth::analyze_schedules, which bounds the schedule of each segment.
#pragma once

#include <cstddef>
#include <optional>
#include <utility>

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

/// The link a linear segment runs along and chaining fuses: p's only
/// consumer t is unguarded with one input and one output place q ≠ p,
/// t is q's only producer, and q holds no initial token. Returns (t, q).
std::optional<std::pair<petri::TransitionId, petri::PlaceId>>
linear_successor(const dcf::System& system, petri::PlaceId p);

/// A maximal linear run of non-initial states linked by unguarded
/// 1-in/1-out transitions — the unit the transformation (and the
/// synth::schedule bound analysis) operates on.
struct LinearSegment {
  std::vector<petri::PlaceId> states;
  std::vector<petri::TransitionId> interior;  ///< |states| - 1 transitions
};

/// All maximal linear segments of at least two states.
std::vector<LinearSegment> find_linear_segments(const dcf::System& system);

/// Def 3.2 rule 1 over a run of states: element i holds the vertices
/// states[i] is associated with (the targets of its controlled arcs).
/// Two states' association sets overlap exactly when their elements
/// intersect, since a shared controlled arc implies a shared target
/// vertex.
std::vector<DynamicBitset> association_sets(
    const dcf::System& system, const std::vector<petri::PlaceId>& states);

/// Thm 4.1's ordering rule over a run of states: row i holds every j > i
/// that states[i] must stay ahead of — a direct dependence (Def 4.3), or
/// the Def 4.4 closure ◇ under `strict_transitive`, or overlapping
/// association sets (Def 3.2 rule 1).
std::vector<DynamicBitset> ordering_edges(
    const dcf::System& system, const semantics::DependenceRelation& dep,
    const std::vector<petri::PlaceId>& states, bool strict_transitive = false);

}  // namespace camad::transform
