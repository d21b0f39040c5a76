#include "petri/reachability.h"

#include <deque>
#include <unordered_set>
#include <vector>

#include "petri/exec.h"
#include "util/bitset.h"

namespace camad::petri {
namespace {

/// Shared BFS core; `visit` is called once per distinct reachable marking.
template <typename Visit>
ReachabilityResult explore_impl(const Net& net,
                                const ReachabilityOptions& options,
                                Visit&& visit) {
  ReachabilityResult result;
  std::unordered_set<Marking, MarkingHash> seen;
  std::deque<Marking> frontier;

  const Marking m0 = Marking::initial(net);
  seen.insert(m0);
  frontier.push_back(m0);

  result.complete = true;
  while (!frontier.empty()) {
    const Marking current = frontier.front();
    frontier.pop_front();
    ++result.marking_count;
    visit(current);

    if (!current.is_safe() && !result.unsafe_witness) {
      result.safe = false;
      result.unsafe_witness = current;
    }

    bool bounded_here = true;
    for (PlaceId p : net.places()) {
      if (current.tokens(p) > options.token_bound) {
        result.bounded = false;
        bounded_here = false;
      }
    }
    if (!bounded_here) continue;  // cut off runaway branches

    bool any_fired = false;
    for (TransitionId t : net.transitions()) {
      if (!is_enabled(net, current, t)) continue;
      any_fired = true;
      Marking next = fire(net, current, t);
      if (seen.insert(next).second) {
        if (seen.size() > options.max_markings) {
          result.complete = false;
          return result;
        }
        frontier.push_back(std::move(next));
      }
    }
    if (!any_fired) {
      if (current.total() == 0) {
        result.can_terminate = true;
      } else if (!result.deadlock_witness) {
        result.deadlock = true;
        result.deadlock_witness = current;
      }
    }
  }
  return result;
}

}  // namespace

ReachabilityResult explore(const Net& net, const ReachabilityOptions& options) {
  return explore_impl(net, options, [](const Marking&) {});
}

MarkingSet collect_markings(const Net& net,
                            const ReachabilityOptions& options) {
  MarkingSet out;
  out.exploration = explore_impl(
      net, options, [&out](const Marking& m) { out.markings.push_back(m); });
  return out;
}

ConcurrencyRelation concurrent_places_bounded(
    const Net& net, const ReachabilityOptions& options) {
  const std::size_t n = net.place_count();
  // Row a gathers every place marked together with a, one word at a time.
  // The diagonal is kept apart: a place is concurrent with itself only
  // when it holds >= 2 tokens, not whenever it is marked.
  std::vector<DynamicBitset> rows(n, DynamicBitset(n));
  std::vector<bool> self(n, false);
  DynamicBitset marked;
  ConcurrencyRelation out;
  out.exploration = explore_impl(net, options, [&](const Marking& m) {
    m.marked_into(marked);
    marked.for_each([&](std::size_t a) {
      rows[a] |= marked;
      if (m.tokens(PlaceId(static_cast<PlaceId::underlying_type>(a))) >= 2) {
        self[a] = true;
      }
    });
  });
  out.concurrent.assign(n * n, false);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      out.concurrent[a * n + b] = a == b ? self[a] : rows[a].test(b);
    }
  }
  return out;
}

}  // namespace camad::petri
