#include "sim/simulator.h"

#include <algorithm>
#include <array>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "obs/trace.h"
#include "petri/exec.h"
#include "petri/marking.h"
#include "serve/budget.h"
#include "sim/plan.h"
#include "util/bitset.h"
#include "util/error.h"
#include "util/lru.h"
#include "util/rng.h"

namespace camad::sim {
namespace {

using dcf::ArcId;
using dcf::OpCode;
using dcf::Operation;
using dcf::PortId;
using dcf::Value;
using dcf::VertexId;
using petri::PlaceId;
using petri::TransitionId;

// ---------------------------------------------------------------------------
// Reference engine: the direct per-cycle transcription of the Def 3.1
// rules. Deliberately naive — it re-derives the active configuration every
// cycle — and kept as the differential baseline the plan engine must
// match bit-for-bit.

/// Per-cycle combinational evaluation over the active subgraph.
///
/// The evaluation *order* depends only on the active arc set, which is a
/// function of the marked place set — loop bodies revisit the same
/// markings every iteration, so orders are memoized per marked-set key
/// (LRU-capped: reachable marked sets can be exponential in |S|).
class PortEvaluator {
 public:
  PortEvaluator(const dcf::System& system, std::size_t cache_capacity)
      : system_(system),
        dp_(system.datapath()),
        order_cache_(cache_capacity) {}

  /// Evaluates all port values for the given set of active arcs.
  /// `reg_state` is indexed by output-port id (kReg ports only);
  /// env supplies kInput vertex values. Throws SimulationError on an
  /// active combinational loop.
  std::vector<Value> evaluate(const DynamicBitset& marked_bits,
                              const std::vector<bool>& arc_active,
                              const std::vector<Value>& reg_state,
                              const Environment& env,
                              std::vector<std::string>& violations) {
    const std::size_t ports = dp_.port_count();
    const std::vector<PortId>& order = order_for(marked_bits, arc_active);

    std::vector<Value> value(ports, Value::undef());
    std::vector<Value> operand_buffer;
    for (const PortId port : order) {
      if (dp_.direction(port) == dcf::PortDir::kIn) {
        // Rule 10: value of an input port is defined only when exactly one
        // pending arc is active; multiple active drivers are a conflict.
        PortId source = PortId::invalid();
        int active_count = 0;
        for (ArcId a : dp_.arcs_into(port)) {
          if (!arc_active[a.index()]) continue;
          ++active_count;
          source = dp_.arc_source(a);
        }
        if (active_count > 1) {
          violations.push_back("input port " + dp_.name(port) + " driven by " +
                               std::to_string(active_count) +
                               " simultaneously active arcs");
          value[port.index()] = Value::undef();
        } else if (active_count == 1) {
          value[port.index()] = value[source.index()];
        }
        continue;
      }
      const Operation& op = dp_.operation(port);
      switch (op.code) {
        case OpCode::kInput:
          value[port.index()] = env.current(dp_.owner(port));
          break;
        case OpCode::kReg:
          value[port.index()] = reg_state[port.index()];
          break;
        default: {
          const int arity = dcf::op_arity(op.code);
          const auto& ins = dp_.input_ports(dp_.owner(port));
          operand_buffer.clear();
          for (int k = 0; k < arity; ++k) {
            operand_buffer.push_back(
                value[ins[static_cast<std::size_t>(k)].index()]);
          }
          value[port.index()] = dcf::evaluate_op(op, operand_buffer);
          break;
        }
      }
    }
    return value;
  }

  [[nodiscard]] const LruCache<DynamicBitset, std::vector<PortId>,
                               DynamicBitsetHash>&
  cache() const {
    return order_cache_;
  }

 private:
  /// Memoized topological evaluation order per marked-set key.
  const std::vector<PortId>& order_for(const DynamicBitset& marked_bits,
                                       const std::vector<bool>& arc_active) {
    if (const std::vector<PortId>* hit = order_cache_.find(marked_bits)) {
      return *hit;
    }

    // Dependency graph: active arcs (out -> in), plus in -> out inside
    // each vertex for combinatorial output ports. Registers/environment
    // sources have no incoming dependency edges — they break cycles.
    const std::size_t ports = dp_.port_count();
    graph::Digraph deps(ports);
    for (ArcId a : dp_.arcs()) {
      if (!arc_active[a.index()]) continue;
      deps.add_edge(graph::NodeId(dp_.arc_source(a).value()),
                    graph::NodeId(dp_.arc_target(a).value()));
    }
    for (VertexId v : dp_.vertices()) {
      for (PortId o : dp_.output_ports(v)) {
        const Operation& op = dp_.operation(o);
        if (dcf::op_is_sequential(op.code)) continue;
        const int arity = dcf::op_arity(op.code);
        const auto& ins = dp_.input_ports(v);
        for (int k = 0; k < arity; ++k) {
          deps.add_edge(
              graph::NodeId(ins[static_cast<std::size_t>(k)].value()),
              graph::NodeId(o.value()));
        }
      }
    }
    const auto sorted = graph::topological_sort(deps);
    if (!sorted) {
      throw SimulationError("active combinational loop during evaluation");
    }
    std::vector<PortId> order;
    order.reserve(sorted->size());
    for (graph::NodeId node : *sorted) order.emplace_back(node.value());
    return order_cache_.insert(marked_bits, std::move(order));
  }

  const dcf::System& system_;
  const dcf::DataPath& dp_;
  LruCache<DynamicBitset, std::vector<PortId>, DynamicBitsetHash>
      order_cache_;
};

SimResult simulate_reference(const dcf::System& system, Environment& env,
                             const SimOptions& options) {
  const obs::ObsSpan run_span("sim.run.reference");
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const petri::Net& net = cn.net();

  SimResult result;
  petri::Marking marking = petri::Marking::initial(net);
  PortEvaluator evaluator(system, options.plan_cache_capacity);

  // Latched state per kReg output port; ⊥ at power-up.
  std::vector<Value> reg_state(dp.port_count(), Value::undef());

  // Tenure tracking: events fire when a token *arrives* in a state.
  std::vector<bool> arrival(net.place_count(), false);
  for (PlaceId p : net.places()) {
    if (net.initial_tokens(p) > 0) arrival[p.index()] = true;
  }

  // The external-arc set is static; scan it once, not every cycle.
  const std::vector<ArcId> external_arcs = dp.external_arcs();

  DynamicBitset marked_bits;
  Rng rng(options.seed);
  bool reported_unsafe = false;

  for (std::uint64_t cycle = 0; cycle < options.max_cycles; ++cycle) {
    if (marking.total() == 0) {  // rule 6
      result.terminated = true;
      break;
    }
    if (options.budget != nullptr && options.budget->exhausted()) {
      result.budget_exhausted = true;
      break;
    }
    result.cycles = cycle + 1;
    if (!marking.is_safe() && !reported_unsafe) {
      result.violations.push_back("unsafe marking reached at cycle " +
                                  std::to_string(cycle));
      reported_unsafe = true;
    }

    // 1. Active arcs and their controlling (marked) state.
    std::vector<bool> arc_active(dp.arc_count(), false);
    std::vector<PlaceId> controller(dp.arc_count(), PlaceId::invalid());
    const std::vector<PlaceId> marked = marking.marked_places();
    marking.marked_into(marked_bits);
    for (PlaceId s : marked) {
      for (ArcId a : cn.controlled_arcs(s)) {
        arc_active[a.index()] = true;
        if (!controller[a.index()].valid()) controller[a.index()] = s;
      }
    }

    // 2. Combinational propagation (rules 7-10).
    std::vector<Value> port_value;
    try {
      port_value = evaluator.evaluate(marked_bits, arc_active, reg_state, env,
                                      result.violations);
    } catch (const SimulationError& e) {
      result.violations.push_back(e.what());
      break;
    }

    // 3. External events for arriving tenures (Def 3.4).
    for (ArcId a : external_arcs) {
      if (!arc_active[a.index()]) continue;
      const PlaceId s = controller[a.index()];
      if (!s.valid() || !arrival[s.index()]) continue;
      result.trace.add_event(ExternalEvent{
          a, port_value[dp.arc_source(a).index()], cycle, s});
    }

    // 4. Guard evaluation (rule 4: OR over guard ports, ⊥ is not TRUE).
    auto guard_true = [&](TransitionId t) {
      const auto& guards = cn.guards(t);
      if (guards.empty()) return true;
      return std::any_of(guards.begin(), guards.end(), [&](PortId g) {
        return port_value[g.index()].truthy();
      });
    };

    // Guard-conflict monitor (Def 3.2 rule 3, dynamic side).
    for (PlaceId p : marked) {
      if (net.post(p).size() < 2) continue;
      int fireable = 0;
      for (TransitionId t : net.consumers(p)) {
        if (petri::is_enabled(net, marking, t) && guard_true(t)) ++fireable;
      }
      if (fireable > 1) {
        result.violations.push_back("guard conflict at place " + net.name(p) +
                                    " (cycle " + std::to_string(cycle) + ")");
      }
    }

    // 5. Fire (rules 3-5) under the selected policy.
    std::vector<TransitionId> order = net.transitions();
    if (options.policy == FiringPolicy::kRandomOrder) {
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng.below(i)]);
      }
    } else if (options.policy == FiringPolicy::kSingleRandom) {
      std::vector<TransitionId> fireable;
      for (TransitionId t : order) {
        if (petri::is_enabled(net, marking, t) && guard_true(t)) {
          fireable.push_back(t);
        }
      }
      order.clear();
      if (!fireable.empty()) {
        order.push_back(fireable[rng.below(fireable.size())]);
      }
    }
    const std::vector<TransitionId> fired =
        petri::fire_step_in_order(net, marking, order, guard_true);

    // 6. Latch sequential outputs when their controlling tenure *ends*
    // (rule 9: ":=" commits the last defined value as control advances).
    // Latching only at departure — not every marked cycle — matters for
    // self-referential updates (n := n - 1): a state waiting at a join
    // must not re-execute its operation each cycle.
    std::vector<std::pair<std::size_t, Value>> latches;
    std::unordered_set<VertexId> consume;
    for (TransitionId t : fired) {
      for (PlaceId p : net.pre(t)) {
        for (ArcId a : cn.controlled_arcs(p)) {
          const VertexId src = dp.arc_source_vertex(a);
          if (dp.kind(src) == dcf::VertexKind::kInput) consume.insert(src);

          const PortId target = dp.arc_target(a);
          const VertexId dst = dp.owner(target);
          for (PortId o : dp.output_ports(dst)) {
            if (dp.operation(o).code != OpCode::kReg) continue;
            const auto& ins = dp.input_ports(dst);
            if (ins.empty() || ins.front() != target) continue;
            if (port_value[target.index()].defined()) {
              latches.emplace_back(o.index(), port_value[target.index()]);
            }
          }
        }
      }
    }
    bool any_reg_changed = false;
    for (const auto& [index, value] : latches) {
      if (reg_state[index] != value) any_reg_changed = true;
      reg_state[index] = value;
    }

    // 7. Environment streams advance when the reading tenure ends
    // (collected above alongside the latches).
    for (VertexId v : consume) env.consume(v);

    // 8. Next cycle's arrivals = post-sets of fired transitions.
    std::fill(arrival.begin(), arrival.end(), false);
    for (TransitionId t : fired) {
      for (PlaceId p : net.post(t)) arrival[p.index()] = true;
    }

    if (options.record_cycles) {
      result.trace.cycles.push_back({cycle, marked, fired, reg_state});
    }

    // Stuck detection: nothing fired, no register changed and no stream
    // advanced — the configuration can never evolve again.
    if (fired.empty() && !any_reg_changed && consume.empty() &&
        marking.total() > 0) {
      result.deadlocked = true;
      break;
    }
  }

  result.final_registers.assign(dp.vertex_count(), Value::undef());
  for (VertexId v : dp.vertices()) {
    for (PortId o : dp.output_ports(v)) {
      if (dp.operation(o).code == OpCode::kReg) {
        result.final_registers[v.index()] = reg_state[o.index()];
        break;
      }
    }
  }
  result.stats.plan_cache_hits = evaluator.cache().hits();
  result.stats.plan_cache_misses = evaluator.cache().misses();
  result.stats.plan_cache_evictions = evaluator.cache().evictions();
  result.stats.plan_cache_size = evaluator.cache().size();
  evaluator.cache().for_each(
      [&](const DynamicBitset& key, const std::vector<PortId>& order) {
        result.stats.plan_cache_bytes +=
            (key.size() + 7) / 8 + order.capacity() * sizeof(PortId);
      });
  return result;
}

// ---------------------------------------------------------------------------
// Plan engine (SimEngine::kCompiled): compiled configuration plans driven
// by change-propagation wavefronts.
//
// Consecutive cycles almost always change the marking (tokens move), so
// incrementality is keyed per *plan*, not per cycle: each ConfigPlan
// keeps a snapshot of its cone's port values from the last time it
// executed (plan.sparse.values). A plan's cone is a pure function of its
// leaf inputs — register state, environment stream heads, constants — so
// on re-entry the engine:
//
//   1. seeds a dirty worklist with the leaf steps whose input changed
//      since the snapshot (registers via monotonic change stamps,
//      streams by polling, constants never);
//   2. propagates the wavefront through the plan's dependency CSR in
//      schedule order — the schedule is topological, so every step fires
//      at most once per cycle (levelized);
//   3. stops propagating wherever a re-evaluated step reproduces its
//      snapshot value byte-for-byte.
//
// Cones whose leaves are all unchanged are skipped entirely. When most of
// a plan's schedule changed on its previous execution, a straight linear
// sweep replaces the worklist (see docs/PERF.md for activity factors per
// design).
//
// Observables are bit-identical to kReference, including the
// Environment::exhausted() side effect: the leaf check polls every
// in-cone stream head every cycle, exactly the set the schedule's kInput
// steps read.

/// Reusable cycle-loop buffers. Everything the steady-state loop touches
/// is hoisted here so that, once the buffers reach their high-water marks,
/// a cycle performs zero heap allocations when per-cycle records are off
/// (events land in the trace's one flat list, which grows geometrically).
struct SimScratch {
  DynamicBitset marked_bits;            ///< plan-cache key, refilled per cycle
  std::vector<Value> reg_state;         ///< per port (kReg outputs)
  std::vector<std::uint8_t> arrival;    ///< per place: token arrived this cycle
  petri::Marking marking;
  std::vector<TransitionId> order;      ///< policy-specific firing order
  std::vector<TransitionId> fireable;   ///< kSingleRandom candidates
  std::vector<TransitionId> fired;
  std::vector<std::uint8_t> guard_value;     ///< per-cycle guard memo
  std::vector<std::uint64_t> guard_epoch;
  std::vector<std::uint64_t> consume_epoch;  ///< per-vertex dedup stamp
  std::vector<VertexId> consume_list;
  std::uint64_t epoch = 0;  ///< monotonic across cycles and runs
  DynamicBitset dirty_steps;  ///< wavefront worklist per cycle
  /// Per-port epoch of the last *value-changing* latch of each kReg
  /// output; a plan snapshot older than a register's stamp must
  /// re-evaluate that register's leaf step.
  std::vector<std::uint64_t> reg_stamp;
};

/// Everything a persistent Simulator keeps across runs: the plan cache
/// (schedules plus their value snapshots), the static port graph and
/// transition tables, and the compile and cycle-loop scratch.
struct SimulatorState {
  explicit SimulatorState(const dcf::System& sys)
      : system(sys),
        graph(sys.datapath()),
        actions(compile_transition_actions(sys)),
        all_transitions(sys.control().net().transitions()) {}

  const dcf::System& system;
  dcf::PortGraph graph;
  std::vector<TransitionActions> actions;  ///< static latch/consume tables
  std::vector<TransitionId> all_transitions;
  PlanCache plans;
  CompileScratch compile_scratch;
  SimScratch scratch;
};

/// Executes schedule step `i` of `plan` against `vals`, returning true
/// when the destination value changed (and updating the snapshot).
inline bool eval_step(const ConfigPlan& plan, std::size_t i,
                      std::vector<Value>& vals,
                      const std::vector<Value>& reg_state,
                      const Environment& env) {
  const EvalStep& step = plan.schedule[i];
  Value next;
  switch (step.kind) {
    case EvalStep::Kind::kCopy:
      next = vals[step.src[0]];
      break;
    case EvalStep::Kind::kReg:
      next = reg_state[step.dst];
      break;
    case EvalStep::Kind::kInput:
      next = env.current(step.owner);
      break;
    case EvalStep::Kind::kConst:
      next = Value(step.op.immediate);
      break;
    case EvalStep::Kind::kOp: {
      std::array<Value, 3> operands;
      for (std::uint8_t k = 0; k < step.arity; ++k) {
        operands[k] = vals[step.src[k]];
      }
      next = dcf::evaluate_op(
          step.op, std::span<const Value>(operands.data(), step.arity));
      break;
    }
  }
  if (next == vals[step.dst]) return false;
  vals[step.dst] = next;
  return true;
}

/// Histogram bucket for one cycle's wavefront size (see
/// SimStats::wavefront_hist).
std::size_t wavefront_bucket(std::uint64_t size) {
  std::size_t bucket = 0;
  while (size != 0 && bucket + 1 < SimStats::kWavefrontBuckets) {
    ++bucket;
    size >>= 1;
  }
  return bucket;
}

SimResult run_plans(SimulatorState& state, Environment& env,
                    const SimOptions& options) {
  const obs::ObsSpan run_span("sim.run");
  const dcf::DataPath& dp = state.system.datapath();
  const dcf::ControlNet& cn = state.system.control();
  const petri::Net& net = cn.net();
  const std::size_t places = net.place_count();
  const std::size_t transitions = net.transition_count();
  const std::size_t ports = dp.port_count();
  SimScratch& s = state.scratch;

  state.plans.set_capacity(options.plan_cache_capacity);
  const std::uint64_t hits0 = state.plans.hits();
  const std::uint64_t misses0 = state.plans.misses();
  const std::uint64_t evictions0 = state.plans.evictions();

  SimResult result;

  // Per-run (re)initialization; buffer capacity persists across runs.
  // Register change stamps are bumped wholesale: relative to any plan
  // snapshot from an earlier run, every register "changed" at power-up
  // (snapshots survive across runs; the value compare in eval_step stops
  // the wavefront where the replayed value coincides).
  ++s.epoch;
  s.reg_state.assign(ports, Value::undef());
  s.guard_value.assign(transitions, 0);
  s.guard_epoch.assign(transitions, 0);
  s.consume_epoch.assign(dp.vertex_count(), 0);
  if (s.reg_stamp.size() != ports) s.reg_stamp.assign(ports, 0);
  std::fill(s.reg_stamp.begin(), s.reg_stamp.end(), s.epoch);
  s.arrival.assign(places, 0);
  s.marking = petri::Marking::initial(net);
  std::uint64_t total_tokens = 0;
  bool unsafe_now = false;
  for (PlaceId p : net.places()) {
    const std::uint32_t tokens = net.initial_tokens(p);
    total_tokens += tokens;
    if (tokens > 1) unsafe_now = true;
    if (tokens > 0) s.arrival[p.index()] = 1;
  }

  Rng rng(options.seed);
  bool reported_unsafe = false;

  // Plan pointer reuse across cycles in which nothing fired (the marking
  // — hence the plan — cannot have changed). Invalidated by evictions:
  // LRU values are address-stable until evicted.
  ConfigPlan* plan = nullptr;
  bool marking_dirty = true;

  for (std::uint64_t cycle = 0; cycle < options.max_cycles; ++cycle) {
    if (total_tokens == 0) {  // rule 6
      result.terminated = true;
      break;
    }
    if (options.budget != nullptr && options.budget->exhausted()) {
      result.budget_exhausted = true;
      break;
    }
    result.cycles = cycle + 1;
    if (unsafe_now && !reported_unsafe) {
      result.violations.push_back("unsafe marking reached at cycle " +
                                  std::to_string(cycle));
      reported_unsafe = true;
    }

    // 1. Look up (or compile) this configuration's plan. When the
    // previous cycle fired nothing the marking is unchanged and the
    // cached pointer short-circuits the bitset refill + hash probe.
    if (marking_dirty || plan == nullptr) {
      s.marking.marked_into(s.marked_bits);
      plan = state.plans.find(s.marked_bits);
      if (plan == nullptr) {
        const obs::ObsSpan compile_span("sim.compile_plan");
        plan = &state.plans.insert(
            s.marked_bits, compile_plan(state.system, state.graph,
                                        s.marked_bits, state.compile_scratch));
      }
      marking_dirty = false;
    } else {
      // Count the short-circuit as a cache hit so hit+miss keeps
      // matching the cycle count.
      state.plans.note_hit();
    }
    if (plan->combinational_loop) {
      result.violations.push_back(
          "active combinational loop during evaluation");
      break;
    }

    ++s.epoch;

    // 2. Combinational values via change propagation against the plan's
    // snapshot (rules 7-10); static rule-10 conflicts replay verbatim.
    SparseState& sp = plan->sparse;
    const std::size_t steps = plan->schedule.size();
    std::uint64_t wavefront = 0;
    const bool first = sp.values.empty();
    if (first || 4 * static_cast<std::size_t>(sp.last_wavefront) >= steps) {
      // Linear sweep of the whole schedule. On the plan's first execution
      // it fills a fresh snapshot (non-cone ports stay ⊥ forever), which
      // counts as fully changed. Afterwards it is dense mode: the plan's
      // previous execution touched at least a quarter of its schedule, so
      // worklist bookkeeping cannot pay for itself (the sweep is correct
      // regardless of stamp state, since every step is recomputed). The
      // changed-step count re-probes sparsity: once it drops below the
      // threshold, the next execution switches back to the wavefront
      // path. The cutover point was measured, not derived: at ~50%
      // activity the linear sweep already wins on every bench design.
      if (first) sp.values.assign(ports, Value::undef());
      std::size_t changed = 0;
      for (std::size_t i = 0; i < steps; ++i) {
        if (eval_step(*plan, i, sp.values, s.reg_state, env)) ++changed;
      }
      wavefront = steps;
      sp.last_wavefront = static_cast<std::uint32_t>(first ? steps : changed);
    } else {
      // The dependency topology is built the first time a plan takes
      // this path: plans that only ever run cold or dense (one-shot
      // candidate measurements) never pay for it.
      if (!sp.topology_built) build_sparse_topology(*plan);
      // One worklist, sized to the longest schedule seen, serves every
      // plan; only bits below `steps` are ever set.
      if (s.dirty_steps.size() < steps) {
        s.dirty_steps = DynamicBitset(steps);
      } else {
        s.dirty_steps.reset_all();
      }
      for (const std::uint32_t leaf : sp.leaf_steps) {
        const EvalStep& step = plan->schedule[leaf];
        if (step.kind == EvalStep::Kind::kReg) {
          // Stamp newer than the snapshot means the register may have
          // changed since this plan last ran.
          if (s.reg_stamp[step.dst] > sp.snap_epoch) s.dirty_steps.set(leaf);
        } else {  // kInput: poll the stream head (cheap; few inputs)
          if (env.current(step.owner) != sp.values[step.dst]) {
            s.dirty_steps.set(leaf);
          }
        }
      }
      for (std::size_t i = s.dirty_steps.find_next(0); i < steps;
           i = s.dirty_steps.find_next(i + 1)) {
        ++wavefront;
        if (!eval_step(*plan, i, sp.values, s.reg_state, env)) continue;
        for (std::uint32_t d = sp.dep_offsets[i]; d < sp.dep_offsets[i + 1];
             ++d) {
          s.dirty_steps.set(sp.dep_steps[d]);
        }
      }
      sp.last_wavefront = static_cast<std::uint32_t>(wavefront);
    }
    sp.snap_epoch = s.epoch;
    result.stats.steps_evaluated += wavefront;
    result.stats.steps_skipped += steps - wavefront;
    ++result.stats.wavefront_hist[wavefront_bucket(wavefront)];
    const std::vector<Value>& vals = sp.values;
    for (const std::string& conflict : plan->drive_conflicts) {
      result.violations.push_back(conflict);
    }

    // Per-cycle guard memo (rule 4: OR over guard ports, ⊥ is not TRUE).
    auto guard_true = [&](TransitionId t) {
      if (s.guard_epoch[t.index()] == s.epoch) {
        return s.guard_value[t.index()] != 0;
      }
      const auto& guards = cn.guards(t);
      bool value = guards.empty();
      for (std::size_t g = 0; !value && g < guards.size(); ++g) {
        value = vals[guards[g].index()].truthy();
      }
      s.guard_epoch[t.index()] = s.epoch;
      s.guard_value[t.index()] = value ? 1 : 0;
      return value;
    };

    // 3. External events for arriving tenures (Def 3.4).
    for (const PlannedEvent& e : plan->events) {
      if (!s.arrival[e.controller.index()]) continue;
      result.trace.add_event(
          ExternalEvent{e.arc, vals[e.source_port], cycle, e.controller});
    }

    // 4. Guard-conflict monitor (Def 3.2 rule 3, dynamic side).
    for (const ConflictCheck& check : plan->conflict_checks) {
      int fireable_count = 0;
      for (TransitionId t : check.candidates) {
        if (guard_true(t)) ++fireable_count;
      }
      if (fireable_count > 1) {
        result.violations.push_back("guard conflict at place " +
                                    net.name(check.place) + " (cycle " +
                                    std::to_string(cycle) + ")");
      }
    }

    // 5. Fire (rules 3-5) under the selected policy. Candidates are the
    // transitions whose preset is marked; the plan's mask filters the
    // policy order in O(1) per transition.
    s.fired.clear();
    const std::vector<TransitionId>* order = &plan->candidates;
    if (options.policy == FiringPolicy::kRandomOrder) {
      s.order.assign(state.all_transitions.begin(),
                     state.all_transitions.end());
      for (std::size_t i = s.order.size(); i > 1; --i) {
        std::swap(s.order[i - 1], s.order[rng.below(i)]);
      }
      order = &s.order;
    } else if (options.policy == FiringPolicy::kSingleRandom) {
      s.fireable.clear();
      for (TransitionId t : plan->candidates) {
        if (guard_true(t)) s.fireable.push_back(t);
      }
      s.order.clear();
      if (!s.fireable.empty()) {
        s.order.push_back(s.fireable[rng.below(s.fireable.size())]);
      }
      order = &s.order;
    }
    // Pre-sets are debited from s.marking as transitions fire, so the
    // enabledness test reads exactly Def 3.1's "available" marking:
    // production only becomes visible after the whole step (added below,
    // merged with the arrival/token bookkeeping).
    for (TransitionId t : *order) {
      if (!plan->candidate_mask.test(t.index())) continue;
      bool enabled = true;
      for (PlaceId p : net.pre(t)) {
        if (s.marking.tokens(p) == 0) {
          enabled = false;
          break;
        }
      }
      if (!enabled || !guard_true(t)) continue;
      for (PlaceId p : net.pre(t)) s.marking.remove_token(p);
      s.fired.push_back(t);
    }
    if (!s.fired.empty()) marking_dirty = true;

    // 6+7. Latch sequential outputs and advance environment streams when
    // the controlling tenure ends (rule 9 / Def 3.5), via the static
    // per-transition tables. Register change stamps advance here — they
    // are what seeds the next wavefronts.
    bool any_reg_changed = false;
    s.consume_list.clear();
    for (TransitionId t : s.fired) {
      const TransitionActions& act = state.actions[t.index()];
      for (VertexId v : act.consumes) {
        if (s.consume_epoch[v.index()] != s.epoch) {
          s.consume_epoch[v.index()] = s.epoch;
          s.consume_list.push_back(v);
        }
      }
      for (const auto& [target, reg_out] : act.latches) {
        const Value value = vals[target];
        if (!value.defined()) continue;
        if (s.reg_state[reg_out] != value) {
          any_reg_changed = true;
          s.reg_stamp[reg_out] = s.epoch + 1;  // visible from next cycle on
        }
        s.reg_state[reg_out] = value;
      }
    }
    for (VertexId v : s.consume_list) env.consume(v);

    // 8. Post-set production plus next cycle's arrivals, token total and
    // safety — all derivable from the fired transitions alone (a place
    // can only exceed one token via a post-set production, so checking
    // after each add sees the same maximum a final scan would).
    if (!s.fired.empty()) {
      std::fill(s.arrival.begin(), s.arrival.end(), 0);
      for (TransitionId t : s.fired) {
        total_tokens -= net.pre(t).size();
        for (PlaceId p : net.post(t)) {
          s.marking.add_token(p);
          s.arrival[p.index()] = 1;
          ++total_tokens;
          if (s.marking.tokens(p) > 1) unsafe_now = true;
        }
      }
    } else if (std::find(s.arrival.begin(), s.arrival.end(), 1) !=
               s.arrival.end()) {
      std::fill(s.arrival.begin(), s.arrival.end(), 0);
    }

    if (options.record_cycles) {
      result.trace.cycles.push_back(
          {cycle, plan->marked, s.fired, s.reg_state});
    }

    // Stuck detection: nothing fired, no register changed and no stream
    // advanced — the configuration can never evolve again. (Tokens
    // remain: total > 0 was established at the top of the cycle.)
    if (s.fired.empty() && !any_reg_changed && s.consume_list.empty()) {
      result.deadlocked = true;
      break;
    }
  }

  result.final_registers.assign(dp.vertex_count(), Value::undef());
  for (VertexId v : dp.vertices()) {
    for (PortId o : dp.output_ports(v)) {
      if (dp.operation(o).code == OpCode::kReg) {
        result.final_registers[v.index()] = s.reg_state[o.index()];
        break;
      }
    }
  }
  result.stats.plan_cache_hits = state.plans.hits() - hits0;
  result.stats.plan_cache_misses = state.plans.misses() - misses0;
  result.stats.plan_cache_evictions = state.plans.evictions() - evictions0;
  result.stats.plan_cache_size = state.plans.size();
  state.plans.for_each([&](const DynamicBitset&, const ConfigPlan& cached) {
    result.stats.plan_cache_bytes += cached.approx_bytes();
  });
  if (obs::TraceSession* session = obs::TraceSession::active()) {
    // Cumulative across the simulator's lifetime, so repeated runs form a
    // monotone counter track.
    session->counter("sim.plan_cache.hits",
                     static_cast<double>(state.plans.hits()));
    session->counter("sim.plan_cache.misses",
                     static_cast<double>(state.plans.misses()));
    session->counter("sim.plan_cache.size",
                     static_cast<double>(state.plans.size()));
  }
  return result;
}

}  // namespace

std::string_view engine_name(SimEngine engine) {
  switch (engine) {
    case SimEngine::kCompiled:
      return "compiled";
    case SimEngine::kReference:
      return "reference";
  }
  return "unknown";
}

std::optional<SimEngine> engine_from_name(std::string_view name) {
  if (name == "compiled") return SimEngine::kCompiled;
  if (name == "reference") return SimEngine::kReference;
  return std::nullopt;
}

double SimStats::activity_factor() const {
  const std::uint64_t total = steps_evaluated + steps_skipped;
  if (total == 0) return 0.0;
  return static_cast<double>(steps_evaluated) / static_cast<double>(total);
}

SimStats& SimStats::operator+=(const SimStats& other) {
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  plan_cache_evictions += other.plan_cache_evictions;
  plan_cache_size = std::max(plan_cache_size, other.plan_cache_size);
  // Like size: distinct caches are not additive, keep the largest
  // resident footprint seen.
  plan_cache_bytes = std::max(plan_cache_bytes, other.plan_cache_bytes);
  steps_evaluated += other.steps_evaluated;
  steps_skipped += other.steps_skipped;
  for (std::size_t i = 0; i < kWavefrontBuckets; ++i) {
    wavefront_hist[i] += other.wavefront_hist[i];
  }
  return *this;
}

std::string SimStats::to_string() const {
  std::string out = "plan cache: " + std::to_string(plan_cache_hits) +
                    " hits, " + std::to_string(plan_cache_misses) +
                    " misses, " + std::to_string(plan_cache_evictions) +
                    " evictions, " + std::to_string(plan_cache_size) +
                    " resident";
  if (plan_cache_bytes > 0) {
    out += " (" + std::to_string(plan_cache_bytes) + " bytes)";
  }
  if (steps_evaluated + steps_skipped > 0) {
    const double percent = 100.0 * activity_factor();
    const std::string rounded = std::to_string(percent);
    out += "; steps: " + std::to_string(steps_evaluated) + " evaluated, " +
           std::to_string(steps_skipped) + " skipped (activity " +
           rounded.substr(0, rounded.find('.') + 2) + "%)";
  }
  return out;
}

struct Simulator::Impl {
  explicit Impl(const dcf::System& system) : state(system) {}
  SimulatorState state;
};

Simulator::Simulator(const dcf::System& system)
    : impl_(std::make_unique<Impl>(system)) {}
Simulator::~Simulator() = default;

SimResult Simulator::run(Environment& env, const SimOptions& options) {
  if (options.engine == SimEngine::kReference) {
    return simulate_reference(impl_->state.system, env, options);
  }
  return run_plans(impl_->state, env, options);
}

SimResult simulate(const dcf::System& system, Environment& env,
                   const SimOptions& options) {
  if (options.engine == SimEngine::kReference) {
    return simulate_reference(system, env, options);
  }
  SimulatorState state(system);
  return run_plans(state, env, options);
}

}  // namespace camad::sim
