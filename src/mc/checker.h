// Parallel guard-aware explicit-state model checker with counterexample
// traces.
//
// model_check() runs a level-synchronized parallel BFS over the control
// net's interleaving (single-transition) successor relation — exactly the
// relation petri::explore walks — optionally refined by the guard
// commitment abstraction of mc/guards.h. Properties are evaluated
// on-the-fly per expanded state: safeness (with a canonical unsafe
// witness), termination vs deadlock, dead transitions, the exact place
// concurrency relation, and reachable guard conflicts (Def 3.2 rule 3
// evaluated per reachable state instead of statically; every guard-aware
// run collects them).
//
// Determinism: results are identical for any thread count. Levels are
// barriers (sim::parallel_jobs joins per depth), every aggregate is a
// commutative union, witnesses are the lexicographically least packed
// state of the shallowest level where the property holds, and parent
// pointers canonically keep the least (parent state, transition id) among
// same-depth discoverers — so traces are schedule-independent too.
//
// Degradation: a run that exceeds max_states stops at the next level
// boundary and returns complete = false with a cutoff_reason instead of
// throwing; verdicts then cover the expanded prefix.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "petri/marking.h"
#include "petri/net.h"

namespace camad::serve {
class Budget;  // serve/budget.h — std-only, safe for any layer
}

namespace camad::mc {

struct McOptions {
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Level-granular state budget: the search stops (incomplete) at the
  /// first level boundary where the store exceeds this.
  std::size_t max_states = std::size_t{1} << 20;
  /// Mirror of petri::ReachabilityOptions::token_bound — a place
  /// exceeding it marks the net unbounded and cuts off that branch.
  std::uint32_t token_bound = 8;
  /// Apply the guard-commitment refinement (system overload only).
  bool use_guards = true;
  /// Compute the exact place-concurrency relation.
  bool compute_concurrency = true;
  /// Keep parent pointers usable and reconstruct witness traces.
  bool collect_traces = true;
  /// Visited-store shards (0 = auto from thread count; rounded to pow2).
  std::size_t shards = 0;
  /// Per-request deadline/cancellation, polled at every level boundary
  /// (the same granularity as max_states). Null = unlimited. A
  /// budget-stopped run returns complete == false with cutoff_reason
  /// "budget-deadline" / "budget-cancelled".
  const serve::Budget* budget = nullptr;

  friend bool operator==(const McOptions&, const McOptions&) = default;
};

/// A reachable state where two guard-allowed transitions compete for one
/// place without statically provable exclusivity.
struct McConflict {
  petri::PlaceId place;
  petri::TransitionId a;
  petri::TransitionId b;
  /// At least one competitor carries no guard at all (a rule-3 violation
  /// rather than an unprovable warning).
  bool unguarded = false;
  petri::Marking marking;
  std::vector<petri::TransitionId> trace;

  friend bool operator==(const McConflict&, const McConflict&) = default;
};

struct McStats {
  std::size_t threads = 1;
  std::size_t shard_count = 1;
  std::size_t max_frontier = 0;
  std::size_t max_shard_entries = 0;
  std::size_t max_probe_length = 0;
  /// Resident bytes of the visited store at the end of the run (slot
  /// tables + records of packed states and trace metadata + the newest
  /// depth's frontier positions) — the numerator of bytes per state.
  std::size_t store_bytes = 0;
  /// Final entry count per shard (occupancy histogram).
  std::vector<std::size_t> shard_entries;
  /// The search's work: successors handed to the store, those that found
  /// their state already stored at their own depth or at a smaller one,
  /// and same-depth ones that became the state's canonical parent. The
  /// first three do not depend on the schedule; the replacements depend
  /// on the order successors arrive in, so they repeat at one thread.
  std::size_t successors = 0;
  std::size_t same_depth_rediscoveries = 0;
  std::size_t older_rediscoveries = 0;
  std::size_t parent_replacements = 0;
  double seconds = 0.0;
  double states_per_second = 0.0;
};

struct McResult {
  bool complete = false;
  std::string cutoff_reason;  ///< empty when complete ("max-states" else)
  bool safe = true;
  bool bounded = true;
  bool deadlock = false;
  bool can_terminate = false;
  /// Distinct (marking, commitments) states expanded.
  std::size_t state_count = 0;
  /// Distinct marking projections among them (== state_count when no
  /// commitment cells are tracked).
  std::size_t marking_count = 0;
  /// BFS levels fully expanded beyond the initial state.
  std::size_t depth = 0;
  /// Commitment cells the guard model tracked (0 = plain unguarded BFS).
  std::size_t tracked_cells = 0;
  std::optional<petri::Marking> unsafe_witness;
  std::optional<petri::Marking> deadlock_witness;
  /// Firing sequences from M0 to the witnesses (empty when traces are
  /// disabled or the property holds).
  std::vector<petri::TransitionId> unsafe_trace;
  std::vector<petri::TransitionId> deadlock_trace;
  /// Row-major |S|×|S| reachable co-marking relation (empty when
  /// compute_concurrency is off).
  std::vector<bool> concurrency;
  /// Transitions that fired in no expanded state (ascending ids; an
  /// over-approximation when the run is incomplete).
  std::vector<petri::TransitionId> dead_transitions;
  std::vector<McConflict> conflicts;
  /// Distinct conflict triples beyond the reporting cap (reported ones
  /// are the canonically least keys).
  std::size_t conflicts_truncated = 0;
  McStats stats;

  [[nodiscard]] bool ok() const {
    return complete && safe && !deadlock && conflicts.empty();
  }
};

/// Thread-count-invariance comparison: every verdict field (stats
/// excluded, which legitimately vary with scheduling).
bool same_verdicts(const McResult& a, const McResult& b);

/// Unguarded model check of a bare net — explores exactly the relation
/// petri::explore does.
McResult model_check(const petri::Net& net, const McOptions& options = {});

/// Guard-aware model check of a system's control net. With
/// options.use_guards == false this equals the bare-net overload.
McResult model_check(const dcf::System& system, const McOptions& options = {});

/// Replays a firing sequence from M0 through petri::fire; returns the
/// reached marking, or nullopt if some step is not enabled.
std::optional<petri::Marking> replay_trace(
    const petri::Net& net, const std::vector<petri::TransitionId>& trace);

}  // namespace camad::mc
