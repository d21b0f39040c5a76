#include "dcf/check.h"

#include <algorithm>
#include <sstream>

#include "dcf/guardinfo.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "mc/checker.h"
#include "petri/invariants.h"
#include "petri/order.h"
#include "semantics/analysis.h"
#include "util/error.h"

namespace camad::dcf {
namespace {

using petri::PlaceId;
using petri::TransitionId;

/// Human-readable arc rendering: "src_vertex.oK -> dst_vertex.iK". Arc
/// ids are rebuilt by every transformation, so diagnostics name the
/// endpoints instead.
std::string arc_label(const DataPath& dp, ArcId a) {
  return dp.name(dp.arc_source(a)) + " -> " + dp.name(dp.arc_target(a));
}

/// The ∥ relation rules 1 and 4 quantify over: structural (Def 2.3) by
/// default, reachability-refined when requested. Def 3.2 rule 1
/// quantifies over *pairs* of parallel states, and two states' association
/// sets are jointly active in some reachable marking iff the states are
/// co-marked there, so the pairwise check over the reachable relation
/// equals a disjointness check per whole reachable marking
/// (tests/mc_test.cpp Rule1PairwiseEqualsWholeMarking).
class ParallelRelation {
 public:
  /// A reachability-refined relation that cannot be completed within the
  /// exploration budget is an under-approximation (unsound for rules 1
  /// and 4), so that path degrades to the structural relation and leaves
  /// a warning in `report` instead of throwing.
  ParallelRelation(const CheckOptions& options,
                   const semantics::AnalysisCache& cache, CheckReport& report)
      : n_(cache.system().control().net().place_count()) {
    if (options.use_reachable_concurrency) {
      if (cache.reachability().complete) {
        conc_ = &cache.concurrency();
        return;
      }
      report.warnings.push_back(
          {Rule::kParallelDisjoint,
           "reachable-concurrency refinement exceeded the exploration "
           "budget; using the structural parallel relation instead"});
    }
    order_ = &cache.order();
  }

  [[nodiscard]] bool operator()(PlaceId a, PlaceId b) const {
    if (order_ != nullptr) return order_->parallel(a, b);
    return (*conc_)[a.index() * n_ + b.index()];
  }

 private:
  std::size_t n_;
  const std::vector<bool>* conc_ = nullptr;
  const petri::OrderRelations* order_ = nullptr;
};

void check_parallel_disjoint(const System& system,
                             const ParallelRelation& parallel,
                             CheckReport& report) {
  const auto& net = system.control().net();
  const std::size_t n = net.place_count();

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const PlaceId si(static_cast<PlaceId::underlying_type>(i));
      const PlaceId sj(static_cast<PlaceId::underlying_type>(j));
      if (!parallel(si, sj)) continue;

      // ASS = controlled arcs + associated (input-side) vertices.
      const auto& arcs_i = system.control().controlled_arcs(si);
      const auto& arcs_j = system.control().controlled_arcs(sj);
      for (ArcId a : arcs_i) {
        if (std::find(arcs_j.begin(), arcs_j.end(), a) != arcs_j.end()) {
          report.violations.push_back(
              {Rule::kParallelDisjoint,
               "states " + net.name(si) + " and " + net.name(sj) +
                   " are parallel but both control arc " +
                   arc_label(system.datapath(), a)});
        }
      }
      const auto verts_i = system.associated_vertices(si);
      const auto verts_j = system.associated_vertices(sj);
      for (VertexId v : verts_i) {
        if (std::find(verts_j.begin(), verts_j.end(), v) != verts_j.end()) {
          report.violations.push_back(
              {Rule::kParallelDisjoint,
               "states " + net.name(si) + " and " + net.name(sj) +
                   " are parallel but share vertex " +
                   system.datapath().name(v)});
        }
      }
    }
  }
}

void check_safety(const System& system,
                  const semantics::AnalysisCache& cache,
                  CheckReport& report) {
  const auto& net = system.control().net();
  // Initial marking itself must be safe.
  for (PlaceId p : net.places()) {
    if (net.initial_tokens(p) > 1) {
      report.violations.push_back(
          {Rule::kSafety, "initial marking puts " +
                              std::to_string(net.initial_tokens(p)) +
                              " tokens on " + net.name(p)});
      return;
    }
  }
  // The polynomial P-invariant certificate first, explicit reachability
  // only when it cannot cover the net.
  try {
    if (petri::covered_by_safe_invariants(net)) return;  // certified safe
  } catch (const Error&) {
    // Farkas row explosion: fall through to reachability.
  }
  const mc::McResult& result = cache.reachability();
  if (!result.safe) {
    std::string marked;
    for (PlaceId p : result.unsafe_witness->marked_places()) {
      marked += " " + net.name(p) + "(" +
                std::to_string(result.unsafe_witness->tokens(p)) + ")";
    }
    report.violations.push_back(
        {Rule::kSafety, "net is unsafe; witness marking:" + marked});
  } else if (!result.complete) {
    report.violations.push_back(
        {Rule::kSafety,
         "state space exceeded exploration budget; safety not established"});
  }
}

void check_conflict_free(const System& system, CheckReport& report) {
  const auto& net = system.control().net();
  for (PlaceId p : net.places()) {
    const std::vector<TransitionId> succs = net.consumers(p);
    if (succs.size() < 2) continue;
    for (std::size_t i = 0; i < succs.size(); ++i) {
      for (std::size_t j = i + 1; j < succs.size(); ++j) {
        const auto& gi = system.control().guards(succs[i]);
        const auto& gj = system.control().guards(succs[j]);
        if (gi.empty() || gj.empty()) {
          report.violations.push_back(
              {Rule::kConflictFree,
               "place " + net.name(p) + " has competing transitions " +
                   net.name(succs[i]) + ", " + net.name(succs[j]) +
                   " of which at least one is unguarded"});
          continue;
        }
        // Provable exclusivity: some guard of one complements some guard
        // of the other and each side is singly guarded.
        const bool provable = gi.size() == 1 && gj.size() == 1 &&
                              complementary_guard_ports(system, gi[0], gj[0]);
        if (!provable) {
          report.warnings.push_back(
              {Rule::kConflictFree,
               "guards of " + net.name(succs[i]) + " and " +
                   net.name(succs[j]) + " from place " + net.name(p) +
                   " not statically provable exclusive; verify dynamically"});
        }
      }
    }
  }
}

void check_no_comb_loop(const System& system,
                        const ParallelRelation& parallel,
                        CheckReport& report) {
  const DataPath& dp = system.datapath();
  const auto& net = system.control().net();

  // Internal in->out edges of COM operations, shared by every
  // configuration graph (registers break loops and contribute none).
  std::vector<std::pair<PortId, PortId>> com_edges;
  for (VertexId v : dp.vertices()) {
    for (PortId o : dp.output_ports(v)) {
      const Operation& op = dp.operation(o);
      if (op_is_sequential(op.code)) continue;
      const int arity = op_arity(op.code);
      const auto& ins = dp.input_ports(v);
      for (int k = 0; k < arity; ++k) {
        com_edges.emplace_back(ins[static_cast<std::size_t>(k)], o);
      }
    }
  }

  // Port-level digraph for one set of simultaneously active states:
  // controlled arcs connect out->in across vertices; COM operations
  // connect in->out inside one. Returns the name of a port on an active
  // cycle, or empty.
  auto active_loop_port =
      [&](std::initializer_list<PlaceId> states) -> std::string {
    graph::Digraph g(dp.port_count());
    std::vector<bool> port_active(dp.port_count(), false);
    for (PlaceId s : states) {
      for (ArcId a : system.control().controlled_arcs(s)) {
        g.add_edge(graph::NodeId(dp.arc_source(a).value()),
                   graph::NodeId(dp.arc_target(a).value()));
        port_active[dp.arc_source(a).index()] = true;
        port_active[dp.arc_target(a).index()] = true;
      }
    }
    for (const auto& [in, out] : com_edges) {
      g.add_edge(graph::NodeId(in.value()), graph::NodeId(out.value()));
    }
    // A loop is only *active* if it passes through a controlled arc;
    // internal in->out edges alone cannot form a cycle (ports are
    // distinct). Detect cycles among nodes touching active ports.
    if (!graph::has_cycle(g)) return {};
    const auto scc = graph::strongly_connected_components(g);
    std::vector<std::size_t> size(scc.count, 0);
    for (std::size_t node = 0; node < dp.port_count(); ++node) {
      ++size[scc.component[node]];
    }
    for (std::size_t node = 0; node < dp.port_count(); ++node) {
      if (size[scc.component[node]] > 1 && port_active[node]) {
        return dp.name(PortId(static_cast<PortId::underlying_type>(node)));
      }
    }
    return {};
  };

  const std::size_t n = net.place_count();
  std::vector<bool> loops_alone(n, false);
  for (PlaceId s : net.places()) {
    const std::string port = active_loop_port({s});
    if (!port.empty()) {
      loops_alone[s.index()] = true;
      report.violations.push_back(
          {Rule::kNoCombLoop, "state " + net.name(s) +
                                  " activates a combinatorial loop "
                                  "through port " +
                                  port});
    }
  }

  // A configuration is the union of all marked states' arc sets (Def
  // 3.2), so a loop may close only when parallel states are active
  // together. Pairs are an under-approximation of full configurations but
  // catch the split-loop case; skip pairs where a state is already
  // looping alone.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const PlaceId si(static_cast<PlaceId::underlying_type>(i));
      const PlaceId sj(static_cast<PlaceId::underlying_type>(j));
      if (!parallel(si, sj)) continue;
      if (loops_alone[i] || loops_alone[j]) continue;
      const std::string port = active_loop_port({si, sj});
      if (!port.empty()) {
        report.violations.push_back(
            {Rule::kNoCombLoop,
             "parallel states " + net.name(si) + " and " + net.name(sj) +
                 " jointly activate a combinatorial loop through port " +
                 port});
      }
    }
  }
}

void check_sequential_result(const System& system, const CheckOptions& options,
                             CheckReport& report) {
  const auto& net = system.control().net();
  for (PlaceId s : net.places()) {
    if (options.allow_control_only_states &&
        system.control().controlled_arcs(s).empty()) {
      continue;
    }
    if (system.result_set(s).empty()) {
      report.violations.push_back(
          {Rule::kSequentialResult,
           "ASS(" + net.name(s) + ") contains no sequential vertex" +
               (system.control().controlled_arcs(s).empty()
                    ? " (state controls no arcs)"
                    : "")});
    }
  }
}

}  // namespace

std::string_view rule_name(Rule rule) {
  switch (rule) {
    case Rule::kParallelDisjoint: return "parallel-disjoint";
    case Rule::kSafety: return "safety";
    case Rule::kConflictFree: return "conflict-free";
    case Rule::kNoCombLoop: return "no-comb-loop";
    case Rule::kSequentialResult: return "sequential-result";
  }
  return "?";
}

std::string CheckReport::to_string() const {
  std::ostringstream os;
  if (ok()) {
    os << "properly designed";
  } else {
    os << violations.size() << " violation(s):\n";
    for (const Violation& v : violations) {
      os << "  [" << rule_name(v.rule) << "] " << v.message << '\n';
    }
  }
  if (!warnings.empty()) {
    if (ok()) os << '\n';
    os << warnings.size() << " warning(s):\n";
    for (const Violation& v : warnings) {
      os << "  [" << rule_name(v.rule) << "] " << v.message << '\n';
    }
  }
  return os.str();
}

namespace {

CheckReport check_properly_designed_impl(
    const System& system, const CheckOptions& options,
    const semantics::AnalysisCache& cache) {
  system.validate();
  CheckReport report;
  const ParallelRelation parallel(options, cache, report);
  check_parallel_disjoint(system, parallel, report);
  check_safety(system, cache, report);
  check_conflict_free(system, report);
  check_no_comb_loop(system, parallel, report);
  check_sequential_result(system, options, report);
  return report;
}

}  // namespace

CheckReport check_properly_designed(const System& system,
                                    const CheckOptions& options) {
  const semantics::AnalysisCache cache(system, options.reachability);
  return check_properly_designed_impl(system, options, cache);
}

CheckReport check_properly_designed(const System& system,
                                    const semantics::AnalysisCache& cache,
                                    const CheckOptions& options) {
  if (!cache.bound_to(system)) {
    throw Error(
        "check_properly_designed: analysis cache bound to a different "
        "system");
  }
  // A cache built with a different exploration budget would answer rules
  // 1, 2 and 4 against markings the caller did not ask about; recompute.
  if (cache.reachability_options() != options.reachability) {
    return check_properly_designed(system, options);
  }
  return check_properly_designed_impl(system, options, cache);
}

void require_properly_designed(const System& system,
                               const CheckOptions& options) {
  const CheckReport report = check_properly_designed(system, options);
  if (!report.ok()) {
    throw DesignRuleError("system '" + system.name() +
                          "' is not properly designed: " + report.to_string());
  }
}

}  // namespace camad::dcf
