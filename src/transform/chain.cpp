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

/// The unique unguarded 1-in/1-out transition from s1, if any.
std::optional<std::pair<TransitionId, PlaceId>> linear_successor(
    const dcf::System& system, PlaceId s1) {
  const petri::Net& net = system.control().net();
  if (net.post(s1).size() != 1) return std::nullopt;
  const TransitionId t = net.post(s1).front();
  if (!system.control().guards(t).empty()) return std::nullopt;
  if (net.pre(t).size() != 1 || net.post(t).size() != 1) return std::nullopt;
  const PlaceId s2 = net.post(t).front();
  if (s2 == s1) return std::nullopt;
  if (net.pre(s2).size() != 1) return std::nullopt;
  if (net.initial_tokens(s2) > 0) return std::nullopt;
  return std::make_pair(t, s2);
}

bool association_disjoint(const dcf::System& system, PlaceId a, PlaceId b) {
  const std::vector<DynamicBitset> sets = association_sets(system, {a, b});
  return !sets[0].intersects(sets[1]);
}

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
    for (PlaceId p : net.pre(t)) {
      rebuilt.net().connect(place_map[p.index()], trans_map[t.index()]);
    }
    for (PlaceId p : net.post(t)) {
      rebuilt.net().connect(trans_map[t.index()], place_map[p.index()]);
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

  dcf::System result(system.datapath(), std::move(rebuilt), system.name());
  result.validate();
  return result;
}

}  // namespace

dcf::System chain_states(const dcf::System& system,
                         const ChainOptions& options, ChainStats* stats) {
  const semantics::AnalysisCache cache(system);
  return chain_states(system, cache, options, stats);
}

dcf::System chain_states(const dcf::System& system,
                         const semantics::AnalysisCache& cache,
                         const ChainOptions& options, ChainStats* stats) {
  if (!(cache.bound_to(system))) {
    throw Error("chain_states: analysis cache bound to a different system");
  }
  const obs::ObsSpan span("transform.chain");
  ChainStats local;
  dcf::System current = system;
  // The cache serves the first scan only: every accepted merge rewrites
  // the control net, invalidating everything.
  const semantics::DependenceRelation* dep =
      &cache.dependence(options.dependence);
  std::optional<semantics::DependenceRelation> recomputed;
  bool merged = true;
  while (merged) {
    merged = false;
    for (PlaceId s1 : current.control().net().places()) {
      const auto link = linear_successor(current, s1);
      if (!link) continue;
      const PlaceId s2 = link->second;
      if (dep->direct(s1, s2) || !association_disjoint(current, s1, s2)) {
        continue;
      }
      current = merge_states(current, s1, link->first, s2);
      ++local.states_merged;
      merged = true;
      break;  // ids changed; rescan
    }
    if (merged) {
      recomputed.emplace(current, options.dependence);
      dep = &*recomputed;
    }
  }
  if (stats != nullptr) *stats = local;
  return current;
}

}  // namespace camad::transform
