// Directed-graph substrate.
//
// Model layers (data path, Petri net) keep their own strongly typed ID
// spaces and project into this plain digraph for analysis: topological
// sorting, SCCs, transitive closure, longest paths. Nodes are dense
// indices; edges carry their endpoints and an optional integer weight.
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace camad::graph {

struct NodeTag;
struct EdgeTag;
using NodeId = StrongId<NodeTag>;
using EdgeId = StrongId<EdgeTag>;

class Digraph {
 public:
  Digraph() = default;
  /// Creates a graph with `node_count` isolated nodes.
  explicit Digraph(std::size_t node_count);

  /// Adds a directed edge from -> to. Parallel edges and self-loops allowed.
  EdgeId add_edge(NodeId from, NodeId to, std::int64_t weight = 0);

  [[nodiscard]] std::size_t node_count() const { return out_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }

  [[nodiscard]] NodeId from(EdgeId e) const { return edges_[e.index()].from; }
  [[nodiscard]] NodeId to(EdgeId e) const { return edges_[e.index()].to; }
  [[nodiscard]] std::int64_t weight(EdgeId e) const {
    return edges_[e.index()].weight;
  }

  [[nodiscard]] const std::vector<EdgeId>& out_edges(NodeId n) const {
    return out_[n.index()];
  }
  [[nodiscard]] const std::vector<EdgeId>& in_edges(NodeId n) const {
    return in_[n.index()];
  }
  [[nodiscard]] std::size_t out_degree(NodeId n) const {
    return out_[n.index()].size();
  }
  [[nodiscard]] std::size_t in_degree(NodeId n) const {
    return in_[n.index()].size();
  }

 private:
  struct Edge {
    NodeId from;
    NodeId to;
    std::int64_t weight;
  };

  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace camad::graph
