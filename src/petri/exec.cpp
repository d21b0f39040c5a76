#include "petri/exec.h"

#include "util/error.h"

namespace camad::petri {

bool is_enabled(const Net& net, const Marking& m, TransitionId t) {
  const std::vector<PlaceId>& pre = net.pre(t);
  if (net.is_ordinary()) {
    for (PlaceId p : pre) {
      if (m.tokens(p) == 0) return false;
    }
    return true;
  }
  // Weighted (multiset) pre-set: place p must carry at least as many
  // tokens as its multiplicity among the entries. Pre-sets are tiny, so
  // the quadratic count beats allocating a scratch histogram.
  for (std::size_t i = 0; i < pre.size(); ++i) {
    bool counted_before = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (pre[j] == pre[i]) {
        counted_before = true;
        break;
      }
    }
    if (counted_before) continue;
    std::uint32_t need = 1;
    for (std::size_t j = i + 1; j < pre.size(); ++j) {
      if (pre[j] == pre[i]) ++need;
    }
    if (m.tokens(pre[i]) < need) return false;
  }
  return true;
}

Marking fire(const Net& net, const Marking& m, TransitionId t) {
  if (!is_enabled(net, m, t)) {
    throw ModelError("fire: transition " + net.name(t) + " not enabled");
  }
  Marking next = m;
  for (PlaceId p : net.pre(t)) next.remove_token(p);
  for (PlaceId p : net.post(t)) next.add_token(p);
  return next;
}

std::vector<TransitionId> fire_step_in_order(
    const Net& net, Marking& m, const std::vector<TransitionId>& order,
    const GuardFn& guard) {
  // True *step* semantics: every transition in the step must be enabled by
  // the marking at step start; tokens produced within the step are only
  // visible afterwards. Consumption is tracked against the start marking
  // to resolve conflicts (first in `order` wins), production accumulates
  // separately.
  std::vector<TransitionId> fired;
  Marking available = m;
  Marking produced(m.place_count());
  for (TransitionId t : order) {
    if (!is_enabled(net, available, t)) continue;
    if (guard && !guard(t)) continue;
    for (PlaceId p : net.pre(t)) available.remove_token(p);
    for (PlaceId p : net.post(t)) produced.add_token(p);
    fired.push_back(t);
  }
  for (PlaceId p : net.places()) {
    m.set_tokens(p, available.tokens(p) + produced.tokens(p));
  }
  return fired;
}

}  // namespace camad::petri
