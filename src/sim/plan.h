// Compiled configuration plans.
//
// Every per-cycle quantity of the Def 3.1 rules except the data values
// themselves is a pure function of the *control configuration* — the set
// of marked places. Loop bodies revisit the same configurations every
// iteration, so the simulator compiles each distinct marked set once into
// a ConfigPlan and replays it thereafter:
//
//   * the active-arc mask and per-arc controlling state (rule 8);
//   * a cone-restricted combinational schedule (rules 7-10): only ports
//     that feed an observation — candidate-transition guards, external
//     events, latch targets, environment polls — are evaluated, in a
//     topological order fixed at compile time;
//   * the rule-10 drive-conflict violations (static per configuration);
//   * the active external arcs with their controllers (Def 3.4);
//   * the candidate transitions (preset ⊆ marked support — exactly the
//     rule-3 enabledness test for any token counts with this support) and
//     the guard-conflict monitor checklist (Def 3.2 rule 3).
//
// Latch and stream-advance actions (rules 9 and the Def 3.5 environment
// contract) depend only on which transitions fire, not on the marking, so
// they are compiled once per system into TransitionActions.
//
// Plans live in an LRU-capped cache keyed by the marked-set bitset; for
// nets whose reachability space outgrows the cap, cold configurations are
// recompiled on return.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcf/portgraph.h"
#include "dcf/system.h"
#include "petri/net.h"
#include "util/bitset.h"
#include "util/lru.h"

namespace camad::sim {

/// One step of the cone-restricted combinational schedule.
struct EvalStep {
  enum class Kind : std::uint8_t {
    kCopy,   ///< input port := its unique active driver (rule 10)
    kOp,     ///< combinational output := OP over owner inputs (rule 9)
    kReg,    ///< register output := latched state
    kInput,  ///< environment-source output := stream head
    kConst,  ///< constant output := immediate
  };
  Kind kind = Kind::kCopy;
  std::uint8_t arity = 0;          ///< kOp operand count (<= 3)
  std::uint32_t dst = 0;           ///< destination port index
  std::uint32_t src[3] = {};       ///< kCopy: src[0]; kOp: operand ports
  dcf::Operation op;               ///< kOp / kConst
  dcf::VertexId owner;             ///< kInput: the environment vertex
};

/// An external arc active under this configuration (Def 3.4 event site).
struct PlannedEvent {
  dcf::ArcId arc;
  std::uint32_t source_port = 0;
  petri::PlaceId controller;
};

/// Guard-conflict monitor entry: a marked place with >= 2 successor
/// transitions, restricted to the ones enabled under this configuration.
struct ConflictCheck {
  petri::PlaceId place;
  std::vector<petri::TransitionId> candidates;
};

/// Change-propagation metadata and memoized cone values. A plan's cone
/// values are a pure function of its leaf inputs — register state,
/// environment stream heads and constants — so the engine snapshots them
/// after each execution of the plan and, on re-entry, re-evaluates only
/// the steps downstream of a leaf whose input actually changed. Lives
/// inside the plan so the LRU cap bounds it too.
struct SparseState {
  /// The topology (leaf_steps + dependency CSR) is built the first time
  /// the plan takes the wavefront path; plans that only ever run cold or
  /// as a dense sweep never build it.
  bool topology_built = false;
  /// Schedule indices of kReg / kInput steps (the only steps whose value
  /// can change while the marking support stays fixed).
  std::vector<std::uint32_t> leaf_steps;
  /// CSR over schedule indices: step i's value feeds steps
  /// dep_steps[dep_offsets[i] .. dep_offsets[i+1]) — all with index > i,
  /// because the schedule is topologically ordered.
  std::vector<std::uint32_t> dep_offsets;
  std::vector<std::uint32_t> dep_steps;
  /// Port values as of the plan's most recent execution, full port-count
  /// sized (non-cone ports stay ⊥ forever). Empty until first executed.
  std::vector<dcf::Value> values;
  /// Engine epoch at which `values` was last brought up to date; compared
  /// against per-register change stamps to seed the wavefront.
  std::uint64_t snap_epoch = 0;
  /// Change-extent of the plan's previous execution (wavefront size on
  /// the wavefront path, changed-step count in a dense sweep). Drives the
  /// adaptive mode switch: when most of the schedule changed last time,
  /// the next execution runs a straight linear sweep instead of paying
  /// the worklist bookkeeping for no skips.
  std::uint32_t last_wavefront = 0;
};

struct ConfigPlan {
  std::vector<petri::PlaceId> marked;  ///< ascending place list
  /// Active combinational cycle: execution must abort with a violation.
  bool combinational_loop = false;
  DynamicBitset arc_active;                ///< |A| bits
  std::vector<petri::PlaceId> controller;  ///< per arc; invalid if inactive
  std::vector<EvalStep> schedule;          ///< topological order
  /// Rule-10 multi-driver violations, in evaluation order; emitted
  /// verbatim every cycle this configuration holds.
  std::vector<std::string> drive_conflicts;
  std::vector<PlannedEvent> events;     ///< active external arcs, id order
  DynamicBitset candidate_mask;         ///< |T| bits: preset ⊆ marked
  std::vector<petri::TransitionId> candidates;  ///< ascending
  std::vector<ConflictCheck> conflict_checks;   ///< ascending by place
  SparseState sparse;  ///< change-propagation state (lazily built)

  /// Approximate resident footprint in bytes (struct + vector
  /// capacities + bitsets + the value snapshot) — the unit behind the
  /// sim.plan_cache.bytes memory gauge.
  [[nodiscard]] std::size_t approx_bytes() const;
};

/// Latch commits and stream advances triggered by one transition firing;
/// marking-independent (derived from F, C and the data path alone).
struct TransitionActions {
  /// (input port read, register output written), in the reference
  /// engine's nesting order so repeated-target overwrites agree.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> latches;
  /// kInput vertices whose stream advances when this transition fires.
  std::vector<dcf::VertexId> consumes;
};

/// Buffers compile_plan reuses across calls (one set per simulator), so
/// a compile allocates only the plan it returns.
struct CompileScratch {
  std::vector<std::uint32_t> in_degree;      ///< Kahn's remaining in-degree
  std::vector<std::uint32_t> fan_in;         ///< active arcs into each port
  std::vector<std::uint32_t> first_source;   ///< source of the first one
  std::vector<std::uint32_t> order;          ///< topological port order
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint8_t> needed;          ///< observation-cone membership
  std::vector<std::uint32_t> pending;
};

/// Compiles the plan for one marked-place support set. `graph` must be
/// the port graph of `system`'s data path. The schedule and the rule-10
/// drive conflicts follow graph::topological_sort's order on the
/// equivalent port Digraph, which is the reference engine's order.
ConfigPlan compile_plan(const dcf::System& system, const dcf::PortGraph& graph,
                        const DynamicBitset& marked_bits,
                        CompileScratch& scratch);

/// Builds the plan's SparseState topology (leaf steps + dependency CSR)
/// from its schedule. Idempotent; does not touch the value snapshot.
void build_sparse_topology(ConfigPlan& plan);

/// Static per-transition latch/consume tables, indexed by transition.
std::vector<TransitionActions> compile_transition_actions(
    const dcf::System& system);

using PlanCache = LruCache<DynamicBitset, ConfigPlan, DynamicBitsetHash>;

}  // namespace camad::sim
