#include "petri/classify.h"

#include <algorithm>
#include <vector>

namespace camad::petri {

bool is_state_machine(const Net& net) {
  for (TransitionId t : net.transitions()) {
    if (distinct(net.pre(t)).size() != 1 ||
        distinct(net.post(t)).size() != 1) {
      return false;
    }
  }
  return true;
}

bool is_marked_graph(const Net& net) {
  for (PlaceId p : net.places()) {
    if (distinct(net.pre(p)).size() != 1 || net.consumers(p).size() != 1) {
      return false;
    }
  }
  return true;
}

bool is_free_choice(const Net& net) {
  // For every arc (p, t): p has one consumer or t has one input place.
  for (PlaceId p : net.places()) {
    const std::vector<TransitionId> consumers = net.consumers(p);
    if (consumers.size() <= 1) continue;
    for (TransitionId t : consumers) {
      if (distinct(net.pre(t)).size() != 1) return false;
    }
  }
  return true;
}

bool is_extended_free_choice(const Net& net) {
  // Transitions sharing any input place must have identical pre-sets.
  for (PlaceId p : net.places()) {
    const std::vector<TransitionId> consumers = net.consumers(p);
    for (std::size_t i = 0; i + 1 < consumers.size(); ++i) {
      std::vector<PlaceId> a = distinct(net.pre(consumers[i]));
      std::vector<PlaceId> b = distinct(net.pre(consumers[i + 1]));
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      if (a != b) return false;
    }
  }
  return true;
}

NetClass classify(const Net& net) {
  NetClass result;
  result.state_machine = is_state_machine(net);
  result.marked_graph = is_marked_graph(net);
  result.free_choice = is_free_choice(net);
  result.extended_free_choice = result.free_choice ||
                                is_extended_free_choice(net);
  return result;
}

std::string NetClass::to_string() const {
  std::string out;
  auto add = [&](bool flag, const char* name) {
    if (!flag) return;
    if (!out.empty()) out += ", ";
    out += name;
  };
  add(state_machine, "state-machine");
  add(marked_graph, "marked-graph");
  add(free_choice, "free-choice");
  add(!free_choice && extended_free_choice, "extended-free-choice");
  if (out.empty()) out = "general";
  return out;
}

}  // namespace camad::petri
