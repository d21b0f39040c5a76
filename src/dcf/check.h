// "Properly designed" well-formedness checks — Def 3.2.
//
// A data/control flow system is properly designed iff
//   (1) parallel control states have disjoint association sets,
//   (2) the control net is safe,
//   (3) transitions competing for one place have mutually exclusive guards
//       (conflict-freedom),
//   (4) no control state's active subgraph contains a combinatorial loop,
//   (5) every control state's association set contains a sequential vertex.
//
// Rules (1) and (3) need relations that are undecidable in full
// generality; the checker implements the decidable procedures the paper's
// synthesis flow relies on:
//   * (1) uses the structural parallel relation ∥ of Def 2.3 by default
//     (conservative: exclusive if/else branches count as parallel), or the
//     reachable co-marking relation when `use_reachable_concurrency` is
//     set — an ablation measured in E5;
//   * (2) accepts a P-invariant safety certificate and otherwise explores
//     the unguarded control net;
//   * (3) statically recognizes the complement pattern the compiler emits
//     (two condition registers latched from a predicate port and its
//     negation in the same state); other guard pairs are reported as
//     *warnings* and left to the simulator's runtime conflict monitor.
//
// Every state-space question goes through semantics::AnalysisCache, that
// is, through one unguarded mc::model_check run of the control net. A run
// the budget (`reachability.max_markings`) cuts short never weakens a
// verdict: rule 1 falls back to the structural relation with a warning and
// rule 2 reports that safety was not established. The guard-aware
// verdicts (safety under guards, reachable rule-3 conflicts) are
// `camadc verify`'s, from semantics::AnalysisCache::model_check().
#pragma once

#include <string>
#include <vector>

#include "dcf/system.h"
#include "petri/reachability.h"

namespace camad::semantics {
class AnalysisCache;
}  // namespace camad::semantics

namespace camad::dcf {

enum class Rule : std::uint8_t {
  kParallelDisjoint = 1,
  kSafety = 2,
  kConflictFree = 3,
  kNoCombLoop = 4,
  kSequentialResult = 5,
};

std::string_view rule_name(Rule rule);

struct Violation {
  Rule rule;
  std::string message;
};

struct CheckOptions {
  /// Refine ∥ with reachability instead of the paper's structural relation.
  bool use_reachable_concurrency = false;
  /// Rule 5 exemption for *control-only* states (C(S) = ∅). Fork/join
  /// realizations of general dependence DAGs need pure synchronization
  /// places that latch nothing; the paper's rule predates them. Set to
  /// false for the literal Def 3.2 reading.
  bool allow_control_only_states = true;
  petri::ReachabilityOptions reachability;
};

struct CheckReport {
  std::vector<Violation> violations;
  /// Conditions that could not be established statically (rule 3 guard
  /// pairs); a properly designed system may legitimately have these.
  std::vector<Violation> warnings;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Runs all five checks; never throws on rule violations (only on
/// malformed models). The first overload builds a local AnalysisCache.
/// The cached overload reuses reachability / concurrency / order results
/// from `cache` (which must be bound to `system`) for rules 1, 2 and 4 —
/// but only when the cache was built with the same ReachabilityOptions as
/// `options.reachability`; on a mismatch it recomputes with a local cache
/// rather than report against a different budget.
CheckReport check_properly_designed(const System& system,
                                    const CheckOptions& options = {});
CheckReport check_properly_designed(const System& system,
                                    const semantics::AnalysisCache& cache,
                                    const CheckOptions& options = {});

/// Throws DesignRuleError with the report text unless `ok()`.
void require_properly_designed(const System& system,
                               const CheckOptions& options = {});

}  // namespace camad::dcf
