// Undirected conflict graphs and colouring.
//
// Resource sharing in synthesis reduces to colouring a *conflict* graph
// (vertices that may not share one unit) — dually, clique partitioning of
// its complement compatibility graph. Both are NP-hard; register sharing
// uses the classic DSATUR heuristic of 1980s HLS systems.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitset.h"

namespace camad::graph {

/// Dense undirected graph stored as adjacency bitsets.
class UndirectedGraph {
 public:
  explicit UndirectedGraph(std::size_t node_count)
      : adj_(node_count, DynamicBitset(node_count)) {}

  [[nodiscard]] std::size_t node_count() const { return adj_.size(); }

  void add_edge(std::size_t a, std::size_t b);
  [[nodiscard]] bool has_edge(std::size_t a, std::size_t b) const {
    return adj_[a].test(b);
  }
  [[nodiscard]] const DynamicBitset& neighbors(std::size_t v) const {
    return adj_[v];
  }
  [[nodiscard]] std::size_t degree(std::size_t v) const {
    return adj_[v].count();
  }

 private:
  std::vector<DynamicBitset> adj_;
};

struct ColoringResult {
  std::vector<std::size_t> color;  ///< node -> colour id
  std::size_t color_count = 0;
};

/// DSATUR colouring of a conflict graph: adjacent nodes get distinct
/// colours; colour count approximates the chromatic number.
ColoringResult color_dsatur(const UndirectedGraph& conflict);

}  // namespace camad::graph
