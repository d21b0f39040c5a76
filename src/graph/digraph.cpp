#include "graph/digraph.h"

#include "util/error.h"

namespace camad::graph {

Digraph::Digraph(std::size_t node_count) : out_(node_count), in_(node_count) {}

EdgeId Digraph::add_edge(NodeId from, NodeId to, std::int64_t weight) {
  if (from.index() >= out_.size() || to.index() >= out_.size()) {
    throw ModelError("Digraph::add_edge: endpoint out of range");
  }
  const EdgeId id(static_cast<EdgeId::underlying_type>(edges_.size()));
  edges_.push_back(Edge{from, to, weight});
  out_[from.index()].push_back(id);
  in_[to.index()].push_back(id);
  return id;
}

}  // namespace camad::graph
