// E5 — the cost of the Def 3.2 analyses: polynomial structural
// certificates vs explicit-state reachability.
//
// Fork/join nets with growing width make the interleaving state space
// explode multiplicatively while the structural analyses (P-invariant
// safety cover, Def 2.3 order relations) stay polynomial.
//
// Expected shape: reachable marking counts grow ~chain^width, while
// covered_by_safe_invariants() certifies safety at every width without
// enumerating a marking. This is why the paper's flow can afford to
// "check whether the systems are properly designed before the synthesis
// process starts". The table is a ctest golden
// (tests/golden/bench_petri.txt).

#include <iostream>

#include "petri/invariants.h"
#include "petri/reachability.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

petri::Net net_for_width(std::size_t width) {
  bench::SpNetOptions options;
  options.depth = 1;       // one fork level
  options.width = width;   // this is the explosion dial
  options.chain = 4;
  return bench::random_sp_net(/*seed=*/3, options);
}

void print_table() {
  Table table({"fork width", "places", "reachable markings", "safe",
               "invariant-certified"});
  for (const std::size_t width : {2, 3, 4, 5, 6, 7}) {
    const petri::Net net = net_for_width(width);
    petri::ReachabilityOptions options;
    options.max_markings = 1u << 22;
    const petri::ReachabilityResult result = petri::explore(net, options);
    bool certified = false;
    try {
      certified = petri::covered_by_safe_invariants(net);
    } catch (...) {
    }
    table.add_row({std::to_string(width),
                   std::to_string(net.place_count()),
                   std::to_string(result.marking_count),
                   result.safe ? "yes" : "no", certified ? "yes" : "no"});
  }
  std::cout << "E5: state-space growth vs structural certificates "
               "(chain=4 per branch)\n"
            << table.to_string() << '\n';
}

}  // namespace

int main() {
  print_table();
  return 0;
}
