// Reference explicit-state reachability explorer.
//
// Production state-space questions go to mc::model_check (through
// semantics::AnalysisCache for dcf::check and the transformations). This
// explorer is the independent reference mc is checked against: the gen
// oracle's `mc` stage (`camad-gen --mc-crosscheck`), McDiffSweep and
// McCorpusDiff (tests/mc_diff_test.cpp) and experiment E5. Exploration
// treats every transition as fireable (guards ignored), which
// over-approximates the guarded behaviour: if the unguarded net is safe,
// the guarded one is too. ReachabilityOptions is also the budget type
// dcf::CheckOptions and semantics::AnalysisCache take.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "petri/marking.h"
#include "petri/net.h"

namespace camad::petri {

struct ReachabilityOptions {
  /// Exploration stops (incomplete) after this many distinct markings.
  std::size_t max_markings = 1u << 20;
  /// A place exceeding this token count makes the net reported unbounded
  /// (exploration of that branch is cut off).
  std::uint32_t token_bound = 8;
  /// Interleaving semantics: explore single-transition successors. This is
  /// sufficient for safety/boundedness of ordinary nets.

  friend bool operator==(const ReachabilityOptions&,
                         const ReachabilityOptions&) = default;
};

struct ReachabilityResult {
  bool complete = false;   ///< full state space was explored
  bool safe = true;        ///< every reached marking is 0/1 per place
  bool bounded = true;     ///< no place exceeded token_bound
  bool deadlock = false;   ///< a non-terminal dead marking was reached
  bool can_terminate = false;  ///< the zero marking is reachable
  std::size_t marking_count = 0;
  std::optional<Marking> unsafe_witness;
  std::optional<Marking> deadlock_witness;
};

/// Breadth-first exploration from the initial marking.
/// A dead marking with zero tokens total is *termination* (Def 3.1 rule 6),
/// not deadlock; any other dead marking counts as deadlock.
ReachabilityResult explore(const Net& net,
                           const ReachabilityOptions& options = {});

/// Bounded marking collection: exploration status plus every *visited*
/// marking. Never throws on a budget cutoff — check
/// `exploration.complete` to tell a full enumeration from a prefix.
struct MarkingSet {
  ReachabilityResult exploration;
  std::vector<Marking> markings;
};
MarkingSet collect_markings(const Net& net,
                            const ReachabilityOptions& options = {});

/// Bounded concurrency relation: `concurrent[i*|S|+j]` is true iff some
/// visited marking marks both place i and place j (and `i*|S|+i` iff
/// some visited marking puts >= 2 tokens on place i) — the *semantic*
/// refinement of the paper's structural ∥ relation (petri/order.h). When
/// `exploration.complete` is false the relation is an under-approximation
/// over the visited prefix.
struct ConcurrencyRelation {
  ReachabilityResult exploration;
  std::vector<bool> concurrent;
};
ConcurrencyRelation concurrent_places_bounded(
    const Net& net, const ReachabilityOptions& options = {});

}  // namespace camad::petri
