// Structural net classes.
//
// The classical subclasses drive which analyses are exact:
//   * state machine  — every transition has one input and one output
//                      place (no concurrency; the control FSM case);
//   * marked graph   — every place has one input and one output
//                      transition (no conflict; pure fork/join pipelines,
//                      what `parallelize` emits inside a segment);
//   * free choice    — conflicts are localized: if two transitions share
//                      an input place, that place is their only input
//                      (guarded branches compile to this shape).
//
// Classes are of the distinct-arc graph, with weights ignored: a weight-w
// arc is one arc here, as it is to dcf::check rule 3 and to mc
// (Net::consumers, petri::distinct). Only `camadc report` reads them.
#pragma once

#include <string>

#include "petri/net.h"

namespace camad::petri {

struct NetClass {
  bool state_machine = false;
  bool marked_graph = false;
  bool free_choice = false;
  /// Extended free choice: equal pre-sets for transitions in conflict.
  bool extended_free_choice = false;

  [[nodiscard]] std::string to_string() const;
};

NetClass classify(const Net& net);

bool is_state_machine(const Net& net);
bool is_marked_graph(const Net& net);
bool is_free_choice(const Net& net);
bool is_extended_free_choice(const Net& net);

}  // namespace camad::petri
