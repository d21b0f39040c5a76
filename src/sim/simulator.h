// Cycle-accurate executor of the Def 3.1 behaviour rules.
//
// One cycle:
//   1. if no token exists anywhere, execution has terminated (rule 6);
//   2. the arcs controlled by marked states open (rule 8);
//   3. port values propagate combinationally over the active subgraph in
//      topological order (rules 7-10): register and environment outputs
//      are state, combinatorial outputs recompute, inactive inputs are ⊥;
//   4. an external event (A, w) is appended to the trace's event list for
//      every active external arc (Def 3.4);
//   5. transitions whose input states are all marked and whose OR-ed
//      guard value is TRUE fire as a step (rules 3-5) under the selected
//      policy;
//   6. sequential outputs latch their input value if it is defined
//      (rule 9's "last defined value");
//   7. the environment stream of every input vertex read this cycle
//      advances.
//
// Two engines implement these rules (see docs/PERF.md):
//   * kCompiled (default) — the plan engine: compiles each distinct
//     marked-place set into a ConfigPlan (active-arc mask, cone-restricted
//     evaluation schedule, event/guard/latch tables) and replays it with
//     an allocation-free steady-state cycle loop. Each plan snapshots its
//     cone values after executing; on re-entry only the steps downstream
//     of a changed leaf (register, stream head) are re-evaluated, in a
//     levelized wavefront, or in a linear sweep when most of the plan
//     changed last time;
//   * kReference — the direct per-cycle transcription of the rules; the
//     differential-testing baseline the plan engine must match
//     bit-for-bit (traces, violations, terminations, final registers).
//
// Firing policies exist to *test* the confluence claim behind Def 3.2:
// for properly designed systems every policy must produce the same
// external event structure; for improper ones they may diverge (E7).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dcf/system.h"
#include "sim/environment.h"
#include "sim/trace.h"

namespace camad::serve {
class Budget;  // serve/budget.h — std-only, safe for any layer
}

namespace camad::sim {

enum class FiringPolicy : std::uint8_t {
  kMaximalStep,   ///< fire every enabled+guarded transition, id order
  kRandomOrder,   ///< maximal step in a seed-shuffled order
  kSingleRandom,  ///< fire exactly one randomly chosen transition per cycle
};

enum class SimEngine : std::uint8_t {
  kCompiled,   ///< configuration-plan engine (default)
  kReference,  ///< naive per-cycle rule transcription (differential oracle)
};

/// "compiled" / "reference" (CLI spelling).
[[nodiscard]] std::string_view engine_name(SimEngine engine);
/// Inverse of engine_name; nullopt for unknown spellings.
[[nodiscard]] std::optional<SimEngine> engine_from_name(std::string_view name);

struct SimOptions {
  std::uint64_t max_cycles = 100000;
  FiringPolicy policy = FiringPolicy::kMaximalStep;
  std::uint64_t seed = 1;  ///< for the random policies
  /// Keep one CycleRecord per cycle (marked states, fired transitions,
  /// post-latch register state): a debugging view for `camadc sim
  /// --trace`, the VCD waveform writer and the engine differential. The
  /// external events, the run's Def 3.4 observable, are recorded either
  /// way, in one flat list.
  bool record_cycles = false;
  /// Which executor to use; both are observationally identical.
  SimEngine engine = SimEngine::kCompiled;
  /// LRU bound on memoized configurations (compiled plans / evaluation
  /// orders). 0 = unbounded. Reachable marked sets can be exponential in
  /// |S| for pathological nets; the cap keeps memory flat.
  std::size_t plan_cache_capacity = 1024;
  /// Per-request deadline/cancellation, polled once per cycle by every
  /// engine. Null (the default) means unlimited and costs nothing; a
  /// budget-stopped run sets SimResult::budget_exhausted and returns
  /// whatever prefix of the trace was executed — it is a cutoff, not an
  /// error, exactly like hitting max_cycles.
  const serve::Budget* budget = nullptr;
};

/// Configuration-cache diagnostics for one run. Hit/miss splits depend on
/// cache warmth when a Simulator (or batch worker) is reused across runs.
struct SimStats {
  std::uint64_t plan_cache_hits = 0;
  /// Distinct configurations compiled (plan-cache misses) during the run.
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t plan_cache_evictions = 0;
  std::uint64_t plan_cache_size = 0;  ///< resident entries after the run
  /// Approximate resident bytes of the plan cache after the run (vector
  /// capacities of every cached plan, value snapshots included).
  std::uint64_t plan_cache_bytes = 0;

  // --- plan engine (zero under kReference) ---
  /// Schedule steps actually executed / proven byte-identical to the
  /// plan's previous execution and skipped. evaluated+skipped sums the
  /// cone sizes over all cycles, so evaluated/(evaluated+skipped) is the
  /// run's activity factor.
  std::uint64_t steps_evaluated = 0;
  std::uint64_t steps_skipped = 0;
  /// Per-cycle wavefront sizes (steps re-evaluated), power-of-two
  /// buckets: bucket 0 counts empty wavefronts, bucket i >= 1 counts
  /// sizes in [2^(i-1), 2^i), the last bucket absorbs the tail.
  static constexpr std::size_t kWavefrontBuckets = 16;
  std::array<std::uint64_t, kWavefrontBuckets> wavefront_hist{};

  /// Fraction of cone steps re-evaluated per cycle; 0 when the step
  /// counters are empty (kReference).
  [[nodiscard]] double activity_factor() const;

  /// Aggregation across runs: counts sum; size keeps the largest resident
  /// footprint seen (sizes of distinct caches are not additive).
  SimStats& operator+=(const SimStats& other);

  /// One-line human-readable summary for CLI output.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const SimStats&, const SimStats&) = default;
};

struct SimResult {
  Trace trace;
  bool terminated = false;       ///< zero-token marking reached (rule 6)
  bool deadlocked = false;       ///< tokens remain but nothing can fire and
                                 ///< nothing will change (guard-stuck)
  std::uint64_t cycles = 0;
  /// Runtime design-rule violations observed while executing: input-port
  /// drive conflicts, guard conflicts at shared places, unsafe markings.
  std::vector<std::string> violations;
  /// Final register states by vertex id (diagnostics).
  std::vector<dcf::Value> final_registers;
  /// The run stopped because SimOptions::budget was exhausted; the trace
  /// is the well-formed prefix executed before the cutoff.
  bool budget_exhausted = false;
  /// Engine diagnostics (not part of the observable semantics).
  SimStats stats;
};

/// Runs the system against the environment. The environment is mutated
/// (streams advance); rewind() it to reuse.
SimResult simulate(const dcf::System& system, Environment& env,
                   const SimOptions& options = {});

/// Reusable simulation engine bound to one system.
///
/// Compiled configuration plans and all cycle-loop scratch buffers persist
/// across run() calls, so repeated simulation of the same system (the
/// optimizer's inner loop, multi-seed sweeps) pays plan compilation only
/// on the first visit of each configuration. Not thread-safe: use one
/// Simulator per thread (simulate_batch in sim/batch.h does exactly that).
/// The referenced system must outlive the Simulator and stay unmodified.
class Simulator {
 public:
  explicit Simulator(const dcf::System& system);
  ~Simulator();

  /// Runs one simulation. Honors every SimOptions field, including
  /// `engine` (kReference bypasses the plan cache) and
  /// `plan_cache_capacity` (applied to the persistent cache).
  SimResult run(Environment& env, const SimOptions& options = {});

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace camad::sim
