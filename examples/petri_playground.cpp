// The Petri-net substrate standalone: structure, analysis, token game.
//
//   $ ./petri_playground
//
// Demonstrates the `petri` library without the data-path layer: building
// a pipelined producer/consumer ring, classifying it, exploring its
// reachable markings, proving safety with P-invariants, and playing the
// maximal-step token game.

#include <iostream>

#include "petri/classify.h"
#include "petri/exec.h"
#include "petri/export.h"
#include "petri/invariants.h"
#include "petri/reachability.h"

using namespace camad;

int main() {
  // Producer -> 2-slot buffer -> consumer, closed with credit places.
  petri::Net net;
  const auto produce = net.add_transition("produce");
  const auto consume = net.add_transition("consume");
  const auto buffer = net.add_place("buffer");   // filled slots
  const auto credits = net.add_place("credits"); // free slots
  const auto prod_ready = net.add_place("prod_ready");
  const auto cons_ready = net.add_place("cons_ready");
  net.connect(produce, buffer);
  net.connect(buffer, consume);
  net.connect(consume, credits);
  net.connect(credits, produce);
  net.connect(prod_ready, produce);
  net.connect(produce, prod_ready);
  net.connect(cons_ready, consume);
  net.connect(consume, cons_ready);
  net.set_initial_tokens(credits, 2);  // buffer capacity 2
  net.set_initial_tokens(prod_ready, 1);
  net.set_initial_tokens(cons_ready, 1);

  std::cout << "net: " << net.place_count() << " places, "
            << net.transition_count() << " transitions\n";
  std::cout << "class: " << petri::classify(net).to_string() << "\n\n";

  // --- behaviour -------------------------------------------------------------
  petri::ReachabilityOptions ropts;
  ropts.token_bound = 4;
  const petri::ReachabilityResult reach = petri::explore(net, ropts);
  std::cout << "reachable markings: " << reach.marking_count
            << " (bounded=" << reach.bounded << ", deadlock=" << reach.deadlock
            << ")\n";

  // --- structure --------------------------------------------------------------
  const auto invariants = petri::semi_positive_p_invariants(net);
  std::cout << invariants.size() << " semi-positive P-invariant(s):\n";
  for (const auto& y : invariants) {
    std::cout << "  [";
    for (std::size_t i = 0; i < y.size(); ++i) {
      if (i != 0) std::cout << ' ';
      std::cout << y[i];
    }
    std::cout << "]\n";
  }
  std::cout << '\n';

  // --- token game -------------------------------------------------------------
  petri::Marking m = petri::Marking::initial(net);
  std::cout << "maximal-step token game, 5 steps:\n";
  for (int step = 0; step < 5; ++step) {
    const auto fired = petri::fire_step_in_order(net, m, net.transitions());
    std::cout << "  step " << step << ": fired {";
    for (std::size_t i = 0; i < fired.size(); ++i) {
      if (i != 0) std::cout << ", ";
      std::cout << net.name(fired[i]);
    }
    std::cout << "} buffer=" << m.tokens(buffer)
              << " credits=" << m.tokens(credits) << '\n';
  }
  return 0;
}
