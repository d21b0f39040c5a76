#include "petri/order.h"

#include "graph/algorithms.h"
#include "graph/digraph.h"

namespace camad::petri {

OrderRelations::OrderRelations(const Net& net) {
  // Build the bipartite flow digraph over X = S ∪ T: node k<|S| is place k,
  // node |S|+k is transition k.
  const std::size_t ns = net.place_count();
  const std::size_t nt = net.transition_count();
  graph::Digraph flow(ns + nt);
  for (TransitionId t : net.transitions()) {
    const graph::NodeId tn(static_cast<graph::NodeId::underlying_type>(
        ns + t.index()));
    for (PlaceId p : net.pre(t)) {
      flow.add_edge(graph::NodeId(p.value()), tn);
    }
    for (PlaceId p : net.post(t)) {
      flow.add_edge(tn, graph::NodeId(p.value()));
    }
  }
  const std::vector<DynamicBitset> full = graph::transitive_closure(flow);

  // Restrict to S×S rows.
  closure_.assign(ns, DynamicBitset(ns));
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j < ns; ++j) {
      if (full[i].test(j)) closure_[i].set(j);
    }
  }
}

}  // namespace camad::petri
