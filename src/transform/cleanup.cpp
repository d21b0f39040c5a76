#include "transform/cleanup.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/trace.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using petri::PlaceId;
using petri::TransitionId;

struct Elision {
  PlaceId place;
  TransitionId after;  // removed; every producer inherits its post-set
};

std::optional<Elision> find_elidable(const dcf::System& system) {
  const petri::Net& net = system.control().net();
  for (PlaceId p : net.places()) {
    if (!system.control().controlled_arcs(p).empty()) continue;
    if (net.initial_tokens(p) > 0) continue;
    if (net.pre(p).empty() || net.post(p).size() != 1) continue;
    const TransitionId t2 = net.post(p).front();
    // t2 must synchronize on nothing else and must be unguarded (its
    // guard would otherwise be evaluated a cycle earlier after fusion).
    if (net.pre(t2).size() != 1) continue;
    if (!system.control().guards(t2).empty()) continue;
    // A producer equal to the consumer would be a self-loop, and one that
    // puts w > 1 tokens on p would fire t2 w times, not once.
    bool fusable = true;
    for (TransitionId t1 : net.pre(p)) {
      fusable &= t1 != t2 && net.arc_weight(t1, p) == 1;
    }
    if (!fusable) continue;
    return Elision{p, t2};
  }
  return std::nullopt;
}

dcf::System apply(const dcf::System& system, const Elision& elision) {
  const petri::Net& net = system.control().net();
  dcf::ControlNet rebuilt;

  std::vector<PlaceId> place_map(net.place_count(), PlaceId::invalid());
  for (PlaceId p : net.places()) {
    if (p == elision.place) continue;
    const PlaceId np = rebuilt.add_state(net.name(p));
    rebuilt.net().set_initial_tokens(np, net.initial_tokens(p));
    place_map[p.index()] = np;
    for (ArcId a : system.control().controlled_arcs(p)) {
      rebuilt.control(np, a);
    }
  }

  for (TransitionId t : net.transitions()) {
    if (t == elision.after) continue;
    const TransitionId nt = rebuilt.add_transition(net.name(t));
    for (PlaceId p : petri::distinct(net.pre(t))) {
      rebuilt.net().connect(place_map[p.index()], nt, net.arc_weight(p, t));
    }
    // Post-set, arc weights kept; producers of the elided place inherit
    // `after`'s posts.
    std::vector<std::pair<PlaceId, std::uint32_t>> posts;
    for (PlaceId p : petri::distinct(net.post(t))) {
      if (p != elision.place) {
        posts.emplace_back(place_map[p.index()], net.arc_weight(t, p));
        continue;
      }
      for (PlaceId q : petri::distinct(net.post(elision.after))) {
        posts.emplace_back(place_map[q.index()],
                           net.arc_weight(elision.after, q));
      }
    }
    std::sort(posts.begin(), posts.end());
    posts.erase(std::unique(posts.begin(), posts.end(),
                            [](const auto& a, const auto& b) {
                              return a.first == b.first;
                            }),
                posts.end());
    for (const auto& [p, weight] : posts) rebuilt.net().connect(nt, p, weight);
    for (dcf::PortId g : system.control().guards(t)) rebuilt.guard(nt, g);
  }

  return system.with_control(std::move(rebuilt));
}

}  // namespace

dcf::System cleanup_control(const dcf::System& system, CleanupStats* stats) {
  const obs::ObsSpan span("transform.cleanup");
  CleanupStats local;
  dcf::System current = system;
  while (const auto elision = find_elidable(current)) {
    current = apply(current, *elision);
    ++local.states_removed;
  }
  if (stats != nullptr) *stats = local;
  return current;
}

}  // namespace camad::transform
