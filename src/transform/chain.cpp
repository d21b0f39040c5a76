#include "transform/chain.h"

#include <optional>
#include <utility>

#include "obs/trace.h"
#include "transform/parallelize.h"
#include "util/bitset.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using petri::PlaceId;
using petri::TransitionId;

/// Merges s2 into s1 (dropping the linking transition) and returns the
/// rebuilt system.
dcf::System merge_states(const dcf::System& system, PlaceId s1,
                         TransitionId link, PlaceId s2) {
  const petri::Net& net = system.control().net();
  dcf::ControlNet rebuilt;

  std::vector<PlaceId> place_map(net.place_count(), PlaceId::invalid());
  for (PlaceId p : net.places()) {
    if (p == s2) continue;
    const PlaceId np = rebuilt.add_state(net.name(p));
    rebuilt.net().set_initial_tokens(np, net.initial_tokens(p));
    place_map[p.index()] = np;
  }
  place_map[s2.index()] = place_map[s1.index()];

  std::vector<TransitionId> trans_map(net.transition_count(),
                                      TransitionId::invalid());
  for (TransitionId t : net.transitions()) {
    if (t == link) continue;
    trans_map[t.index()] = rebuilt.add_transition(net.name(t));
  }
  for (TransitionId t : net.transitions()) {
    if (t == link) continue;
    for (PlaceId p : petri::distinct(net.pre(t))) {
      rebuilt.net().connect(place_map[p.index()], trans_map[t.index()],
                            net.arc_weight(p, t));
    }
    for (PlaceId p : petri::distinct(net.post(t))) {
      rebuilt.net().connect(trans_map[t.index()], place_map[p.index()],
                            net.arc_weight(t, p));
    }
    for (dcf::PortId g : system.control().guards(t)) {
      rebuilt.guard(trans_map[t.index()], g);
    }
  }
  for (PlaceId p : net.places()) {
    for (ArcId a : system.control().controlled_arcs(p)) {
      rebuilt.control(place_map[p.index()], a);
    }
  }

  return system.with_control(std::move(rebuilt));
}

}  // namespace

dcf::System chain_states(const dcf::System& system, ChainStats* stats) {
  const semantics::AnalysisCache cache(system);
  return chain_states(system, cache, stats);
}

dcf::System chain_states(const dcf::System& system,
                         const semantics::AnalysisCache& cache,
                         ChainStats* stats) {
  if (!(cache.bound_to(system))) {
    throw Error("chain_states: analysis cache bound to a different system");
  }
  const obs::ObsSpan span("transform.chain");
  ChainStats local;
  dcf::System current = system;
  // The cache serves the first scan only: every accepted merge rewrites
  // the control net, invalidating everything.
  const semantics::DependenceRelation* dep = &cache.dependence();
  std::optional<semantics::DependenceRelation> recomputed;
  bool merged = true;
  while (merged) {
    merged = false;
    for (PlaceId s1 : current.control().net().places()) {
      const auto link = linear_successor(current, s1);
      if (!link) continue;
      const PlaceId s2 = link->second;
      if (ordering_edges(current, *dep, {s1, s2})[0].test(1)) continue;
      current = merge_states(current, s1, link->first, s2);
      ++local.states_merged;
      merged = true;
      break;  // ids changed; rescan
    }
    if (merged) {
      recomputed.emplace(current);
      dep = &*recomputed;
    }
  }
  if (stats != nullptr) *stats = local;
  return current;
}

}  // namespace camad::transform
