#include "transform/parallelize.h"

#include <vector>

#include "obs/trace.h"
#include "util/bitset.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using petri::PlaceId;
using petri::TransitionId;

using Segment = LinearSegment;

}  // namespace

std::vector<LinearSegment> find_linear_segments(const dcf::System& system) {
  const petri::Net& net = system.control().net();
  const std::size_t n = net.place_count();

  // successor[p] = q when linear_successor(p) links p to q.
  std::vector<PlaceId> successor(n, PlaceId::invalid());
  std::vector<TransitionId> via(n, TransitionId::invalid());
  std::vector<bool> has_pred(n, false);
  for (PlaceId p : net.places()) {
    // Initial-marked places cannot join a segment: M0 must stay put
    // (Def 4.5), and a token initially on one segment state would strand
    // the other fork roots.
    if (net.initial_tokens(p) > 0) continue;
    if (const auto link = linear_successor(system, p)) {
      successor[p.index()] = link->second;
      via[p.index()] = link->first;
      has_pred[link->second.index()] = true;
    }
  }

  std::vector<Segment> segments;
  std::vector<bool> used(n, false);
  for (PlaceId head : net.places()) {
    // Start a run at every place that is not an interior target.
    if (has_pred[head.index()] || used[head.index()]) continue;
    Segment seg;
    PlaceId cursor = head;
    while (cursor.valid() && !used[cursor.index()]) {
      if (net.initial_tokens(cursor) > 0) break;
      seg.states.push_back(cursor);
      used[cursor.index()] = true;
      const PlaceId next = successor[cursor.index()];
      if (next.valid()) seg.interior.push_back(via[cursor.index()]);
      cursor = next;
    }
    if (!seg.interior.empty() &&
        seg.interior.size() == seg.states.size()) {
      seg.interior.pop_back();  // ran into a used place (cycle guard)
    }
    if (seg.states.size() >= 2) segments.push_back(std::move(seg));
  }
  return segments;
}

dcf::System parallelize(const dcf::System& system,
                        const ParallelizeOptions& options,
                        ParallelizeStats* stats) {
  const semantics::AnalysisCache cache(system);
  return parallelize(system, cache, options, stats);
}

dcf::System parallelize(const dcf::System& system,
                        const semantics::AnalysisCache& cache,
                        const ParallelizeOptions& options,
                        ParallelizeStats* stats) {
  if (!(cache.bound_to(system))) {
    throw Error("parallelize: analysis cache bound to a different system");
  }
  const obs::ObsSpan span("transform.parallelize");
  const petri::Net& net = system.control().net();
  const semantics::DependenceRelation& dep =
      cache.dependence(options.dependence);

  ParallelizeStats local_stats;
  std::vector<Segment> segments = find_linear_segments(system);
  local_stats.segments_found = segments.size();

  // Per-segment plan: dependence DAG (transitively reduced) over local
  // indices 0..m-1 of the segment's states.
  struct Plan {
    Segment segment;
    std::vector<std::vector<std::size_t>> succ;  // reduced DAG
    std::vector<std::size_t> pred_count;
  };
  std::vector<Plan> plans;

  for (Segment& seg : segments) {
    const std::size_t m = seg.states.size();
    std::vector<DynamicBitset> edge =
        ordering_edges(system, dep, seg.states, options.strict_transitive);
    // If any exit transition (consumer of S_m) is guarded, its guard may
    // read combinatorial ports whose arcs are only active while S_m is
    // marked — S_m must then stay the unique sink so the exit's pre set
    // is untouched. Unguarded exits instead get their pre substituted by
    // the full sink set below.
    const PlaceId last = seg.states.back();
    bool force_last = false;
    for (TransitionId t : net.post(last)) {
      if (!system.control().guards(t).empty()) force_last = true;
    }
    if (force_last) {
      for (std::size_t i = 0; i + 1 < m; ++i) edge[i].set(m - 1);
    }

    // Fully serial segment? Nothing to gain.
    bool fully_serial = true;
    for (std::size_t i = 0; i + 1 < m && fully_serial; ++i) {
      if (!edge[i].test(i + 1)) fully_serial = false;
    }
    if (fully_serial) continue;

    // Transitive closure over the (index-ordered, hence acyclic) DAG.
    std::vector<DynamicBitset> closure = edge;
    for (std::size_t j = m; j-- > 0;) {
      for (std::size_t i = 0; i < j; ++i) {
        if (closure[i].test(j)) closure[i] |= closure[j];
      }
    }
    // Transitive reduction: drop (i,j) if some k with i->k and k=>j.
    Plan plan;
    plan.segment = std::move(seg);
    plan.succ.assign(m, {});
    plan.pred_count.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      edge[i].for_each([&](std::size_t j) {
        bool redundant = false;
        edge[i].for_each([&](std::size_t k) {
          if (k != j && closure[k].test(j)) redundant = true;
        });
        if (!redundant) {
          plan.succ[i].push_back(j);
          ++plan.pred_count[j];
          ++local_stats.dependence_edges;
        }
      });
    }
    local_stats.segments_transformed += 1;
    local_stats.states_in_segments += m;
    plans.push_back(std::move(plan));
  }

  // ---- rebuild the control net --------------------------------------------
  std::vector<bool> drop_transition(net.transition_count(), false);
  for (const Plan& plan : plans) {
    for (TransitionId t : plan.segment.interior) {
      drop_transition[t.index()] = true;
    }
  }

  dcf::ControlNet rebuilt;
  for (PlaceId p : net.places()) {
    const PlaceId np = rebuilt.add_state(net.name(p));
    rebuilt.net().set_initial_tokens(np, net.initial_tokens(p));
    for (ArcId a : system.control().controlled_arcs(p)) {
      rebuilt.control(np, a);
    }
  }

  // Fork substitution: entry transitions' posts replace S_1 by the roots.
  // Join substitution: unguarded exit transitions' pres replace S_m by
  // the sinks (when S_m was not forced to stay the unique sink).
  std::vector<std::vector<PlaceId>> post_subst(net.place_count());
  std::vector<std::vector<PlaceId>> pre_subst(net.place_count());
  for (const Plan& plan : plans) {
    const PlaceId first = plan.segment.states.front();
    std::vector<PlaceId> roots;
    for (std::size_t i = 0; i < plan.segment.states.size(); ++i) {
      if (plan.pred_count[i] == 0) roots.push_back(plan.segment.states[i]);
    }
    post_subst[first.index()] = std::move(roots);

    const PlaceId last = plan.segment.states.back();
    std::vector<PlaceId> sinks;
    for (std::size_t i = 0; i < plan.segment.states.size(); ++i) {
      if (plan.succ[i].empty()) sinks.push_back(plan.segment.states[i]);
    }
    if (sinks.size() > 1 || (sinks.size() == 1 && sinks[0] != last)) {
      pre_subst[last.index()] = std::move(sinks);
    }
  }

  // Retained transitions (same names; guards copied; posts substituted;
  // each substitute takes over the weight of the arc it replaces).
  for (TransitionId t : net.transitions()) {
    if (drop_transition[t.index()]) continue;
    const TransitionId nt = rebuilt.add_transition(net.name(t));
    for (PlaceId p : petri::distinct(net.pre(t))) {
      const std::uint32_t weight = net.arc_weight(p, t);
      const auto& subst = pre_subst[p.index()];
      if (subst.empty()) {
        rebuilt.net().connect(p, nt, weight);
      } else {
        for (PlaceId sink : subst) rebuilt.net().connect(sink, nt, weight);
      }
    }
    for (PlaceId p : petri::distinct(net.post(t))) {
      const std::uint32_t weight = net.arc_weight(t, p);
      const auto& subst = post_subst[p.index()];
      if (subst.empty()) {
        rebuilt.net().connect(nt, p, weight);
      } else {
        for (PlaceId root : subst) rebuilt.net().connect(nt, root, weight);
      }
    }
    for (dcf::PortId g : system.control().guards(t)) rebuilt.guard(nt, g);
  }

  // DAG realization per segment. The realization minimizes helper places
  // so synchronization costs no extra cycles in the common shapes:
  //   * a single-successor node's token is consumed *directly* by its
  //     successor's entry transition (join over states);
  //   * a multi-successor node needs one fork transition; each of its
  //     edges posts the successor state directly when that successor has
  //     no other predecessor, otherwise a control-only helper place that
  //     the successor's join consumes.
  for (const Plan& plan : plans) {
    const auto& states = plan.segment.states;
    const std::size_t m = states.size();
    // Predecessor lists from the successor lists.
    std::vector<std::vector<std::size_t>> pred(m);
    for (std::size_t u = 0; u < m; ++u) {
      for (std::size_t v : plan.succ[u]) pred[v].push_back(u);
    }

    // helper[u][v] place for edges from multi-succ u into multi-pred v.
    std::vector<std::vector<PlaceId>> helper(
        m, std::vector<PlaceId>(m, PlaceId::invalid()));
    for (std::size_t u = 0; u < m; ++u) {
      if (plan.succ[u].size() < 2) continue;
      for (std::size_t v : plan.succ[u]) {
        if (pred[v].size() >= 2) {
          helper[u][v] = rebuilt.add_state(
              "h_" + net.name(states[u]) + "_" + net.name(states[v]));
          ++local_stats.helper_places;
        }
      }
    }

    // Fork transition per multi-successor node.
    for (std::size_t u = 0; u < m; ++u) {
      if (plan.succ[u].size() < 2) continue;
      const TransitionId t =
          rebuilt.add_transition("fork_" + net.name(states[u]));
      rebuilt.net().connect(states[u], t);
      for (std::size_t v : plan.succ[u]) {
        rebuilt.net().connect(
            t, helper[u][v].valid() ? helper[u][v] : states[v]);
      }
    }

    // Entry transition per node with predecessors, unless the node was
    // already fed directly by every predecessor's fork.
    for (std::size_t v = 0; v < m; ++v) {
      if (pred[v].empty()) continue;
      std::vector<PlaceId> sources;
      for (std::size_t u : pred[v]) {
        if (plan.succ[u].size() == 1) {
          sources.push_back(states[u]);  // consume u's token directly
        } else if (helper[u][v].valid()) {
          sources.push_back(helper[u][v]);
        }
        // else: u's fork posted states[v] directly; nothing to consume.
      }
      if (sources.empty()) continue;
      const TransitionId t =
          rebuilt.add_transition("join_" + net.name(states[v]));
      for (PlaceId s : sources) rebuilt.net().connect(s, t);
      rebuilt.net().connect(t, states[v]);
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return system.with_control(std::move(rebuilt));
}

std::optional<std::pair<TransitionId, PlaceId>> linear_successor(
    const dcf::System& system, PlaceId p) {
  const petri::Net& net = system.control().net();
  if (net.post(p).size() != 1) return std::nullopt;
  const TransitionId t = net.post(p).front();
  if (!system.control().guards(t).empty()) return std::nullopt;
  if (net.pre(t).size() != 1 || net.post(t).size() != 1) return std::nullopt;
  const PlaceId q = net.post(t).front();
  if (q == p) return std::nullopt;  // a self-loop is not a chain
  if (net.pre(q).size() != 1) return std::nullopt;
  if (net.initial_tokens(q) > 0) return std::nullopt;
  return std::make_pair(t, q);
}

std::vector<DynamicBitset> association_sets(
    const dcf::System& system, const std::vector<PlaceId>& states) {
  const dcf::DataPath& dp = system.datapath();
  std::vector<DynamicBitset> sets(states.size(),
                                  DynamicBitset(dp.vertex_count()));
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (ArcId a : system.control().controlled_arcs(states[i])) {
      sets[i].set(dp.arc_target_vertex(a).index());
    }
  }
  return sets;
}

std::vector<DynamicBitset> ordering_edges(
    const dcf::System& system, const semantics::DependenceRelation& dep,
    const std::vector<PlaceId>& states, bool strict_transitive) {
  const std::size_t m = states.size();
  const std::vector<DynamicBitset> associated =
      association_sets(system, states);
  std::vector<DynamicBitset> edge(m, DynamicBitset(m));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const bool dependent = strict_transitive
                                 ? dep.transitive(states[i], states[j])
                                 : dep.direct(states[i], states[j]);
      if (dependent || associated[i].intersects(associated[j])) {
        edge[i].set(j);
      }
    }
  }
  return edge;
}

}  // namespace camad::transform
