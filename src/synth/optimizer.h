// CAMAD-style iterative design-space exploration (Sec 5).
//
// The optimizer holds the compiler's serial "preliminary design" as the
// master and explores *merge sets*: which control-invariant vertex
// mergers (Def 4.6) to apply before re-deriving the parallel schedule
// with the data-invariant chain parallelization (Defs 4.3-4.5).
// Serialization never needs its own transformation — the serial master
// already carries the total order, and resource conflicts introduced by
// a merger automatically keep the unit's users sequential when the
// design is re-parallelized. This mirrors the paper's loop: "the
// synthesis algorithm starts with a preliminary design and transforms it
// step by step towards an optimal one", guided by cost analysis.
//
// Each candidate configuration is evaluated on real numbers: estimated
// area (module library + steering muxes) and measured execution time
// (simulated cycles × estimated cycle time). Two strategies walk this
// space: `optimize`, a greedy descent on one λ-weighted objective (the
// default of `camadc synth`, and what synth::synthesize calls), and
// `optimize_pareto`, a beam search whose frontier is the area/time
// trade-off curve (E3). The frontier weakly dominates the greedy
// endpoint on every bench design; docs/TRANSFORMATIONS.md says why
// both are kept.
#pragma once

#include <string>
#include <vector>

#include "dcf/system.h"
#include "semantics/analysis.h"
#include "semantics/equivalence.h"
#include "synth/cost.h"
#include "synth/frontier.h"
#include "synth/library.h"

namespace camad::serve {
class Budget;  // serve/budget.h — std-only, safe for any layer
}

namespace camad::synth {

struct OptimizerOptions {
  /// Objective = λ·(area/area₀) + (1-λ)·(time/time₀); λ ∈ [0,1].
  double area_weight = 0.5;
  std::size_t max_steps = 64;
  MeasureOptions measure;
  /// Verify each accepted step by differential simulation (slow, for
  /// tests and paranoid runs).
  bool verify_steps = false;
  /// Worker threads for candidate evaluation (0 = hardware concurrency,
  /// 1 = serial). Candidates are independent and selection is a
  /// deterministic earliest-index argmin, so results are identical
  /// whatever the count.
  std::size_t eval_threads = 0;
};

struct OptimizerStep {
  std::string description;
  Metrics metrics;
  double objective = 0;
};

struct OptimizerResult {
  dcf::System best;            ///< parallelized best configuration
  dcf::System serial_master;   ///< merged serial design behind `best`
  Metrics initial;             ///< parallelized, no mergers
  Metrics final;
  std::vector<OptimizerStep> steps;
  std::size_t merges_applied = 0;
  /// Search-wide telemetry: plan-cache activity summed over every
  /// candidate measurement, the shared analysis cache's lifetime
  /// hit/miss/transfer counts, and the number of candidate evaluations.
  sim::SimStats sim_stats;
  semantics::AnalysisCacheStats analysis_stats;
  std::size_t candidates_evaluated = 0;
};

/// `sim_stats`, when non-null, receives the measurement's summed
/// plan-cache activity.
Metrics evaluate(const dcf::System& system, const ModuleLibrary& lib,
                 const MeasureOptions& options,
                 sim::SimStats* sim_stats = nullptr);

/// The schedule every search strategy derives from a serial master:
/// chain parallelization followed by control cleanup (the fork/join
/// realization and compilation leave pass-through control-only states).
/// The cached overload (cache bound to `master`) reuses the master's
/// dependence relation.
dcf::System derive_schedule(const dcf::System& master);
dcf::System derive_schedule(const dcf::System& master,
                            const semantics::AnalysisCache& cache);

/// Greedy steepest descent from a *serial* compiled design. Each step
/// applies the mergeable pair whose schedule has the lowest objective
/// (earliest pair on ties) while that improves on the current design.
/// Then the post-passes run: register sharing (live-range coalescing,
/// saving register and mux area but possibly serializing the schedule
/// through the shared registers), state chaining (merging independent
/// adjacent states, saving cycles at no area cost) and both in turn,
/// each kept only when it improves the objective. One
/// semantics::AnalysisCache follows the master across accepted steps:
/// the Def 4.6 merger preserves the control net, so reachability,
/// concurrency and structural order are explored once per step, not
/// once per candidate. Throws TransformError if verification is enabled
/// and a step fails it.
OptimizerResult optimize(const dcf::System& serial, const ModuleLibrary& lib,
                         const OptimizerOptions& options = {});

/// Reference corner for the normalized hypervolume: (area, time) are
/// divided by the initial (parallelized, untransformed) metrics, and the
/// dominated region is measured against (1.1, 1.1) — a 10% margin so the
/// initial point itself contributes positively.
inline constexpr double kHypervolumeRef = 1.1;

struct ParetoOptions {
  /// Candidates carried between generations. The frontier itself is not
  /// truncated to the beam — every evaluated successor competes for it.
  std::size_t beam_width = 6;
  /// Generation cap. The search also stops when two generations in a
  /// row insert nothing into the frontier (merge-rich designs insert
  /// every generation until the merge supply is exhausted, so this
  /// triggers only at convergence).
  std::size_t generations = 64;
  MeasureOptions measure;
  /// Worker threads for expansion/measurement fan-out (0 = hardware).
  /// The frontier is byte-identical at any count: jobs are enumerated in
  /// a fixed total order, workers only fill indexed slots, and every
  /// dedup / insertion / selection decision happens serially in job
  /// order (the PR 3 argmin discipline, generalized).
  std::size_t eval_threads = 0;
  /// Check every reported frontier point equivalent to the seed via the
  /// Def 4.1 differential oracle; a failure throws TransformError naming
  /// the point's provenance.
  bool verify_frontier = true;
  semantics::DifferentialOptions verify;
  /// Scalarization grid for the reserved beam slots: for each λ the
  /// earliest-index argmin of λ·area_norm + (1-λ)·time_norm survives,
  /// so the beam always carries the pure-area, pure-time and balanced
  /// descent directions; remaining slots fill by non-domination rank.
  std::vector<double> lambda_grid = {0.0, 0.25, 0.5, 0.75, 1.0};
  /// Per-request deadline/cancellation, polled at every generation
  /// boundary. Null = unlimited. A budget-stopped search returns the
  /// frontier accumulated so far (always well-formed — it contains at
  /// least the initial point) with ParetoResult::budget_exhausted set.
  const serve::Budget* budget = nullptr;
};

struct ParetoResult {
  /// Non-dominated points in area-ascending order, every one verified
  /// against the seed when verify_frontier is set.
  std::vector<FrontierPoint> frontier;
  Metrics initial;  ///< parallelized, no transformations
  /// Normalized staircase hypervolume w.r.t. kHypervolumeRef (see
  /// above); larger is better, 0 means even the initial point fell
  /// outside the reference box.
  double hypervolume = 0;
  std::size_t candidates_evaluated = 0;  ///< measured schedules
  std::size_t dedup_hits = 0;   ///< successors skipped by design_hash
  std::size_t generations_run = 0;
  std::size_t verified_points = 0;
  sim::SimStats sim_stats;
  semantics::AnalysisCacheStats analysis_stats;
  /// The search stopped because ParetoOptions::budget was exhausted; the
  /// frontier is the well-formed prefix explored before the cutoff.
  bool budget_exhausted = false;
  /// Why the generation loop ended: "converged" (stall), "generations"
  /// (cap reached), or the budget's reason ("budget-deadline" /
  /// "budget-cancelled").
  std::string stop_reason;
};

/// Multi-objective beam search over the transformation vocabulary
/// (merge / split / regshare / chain) from a *serial* compiled design.
/// Deterministic at any eval_threads; throws TransformError if a
/// frontier point fails the Def 4.1 check.
ParetoResult optimize_pareto(const dcf::System& serial,
                             const ModuleLibrary& lib,
                             const ParetoOptions& options = {});

/// Deterministic JSON rendering of a ParetoResult (design name, initial
/// metrics, hypervolume, per-point metrics + provenance + design hash).
/// Shared by `camadc optimize --frontier-out`, bench_optimizer and the
/// thread-invariance tests, which byte-compare it across thread counts.
std::string frontier_to_json(const ParetoResult& result,
                             const std::string& design_name);

}  // namespace camad::synth
