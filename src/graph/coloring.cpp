#include "graph/coloring.h"

#include <algorithm>

#include "util/error.h"

namespace camad::graph {

void UndirectedGraph::add_edge(std::size_t a, std::size_t b) {
  if (a >= adj_.size() || b >= adj_.size()) {
    throw ModelError("UndirectedGraph::add_edge: node out of range");
  }
  if (a == b) return;  // conflict/compat graphs are simple
  adj_[a].set(b);
  adj_[b].set(a);
}

ColoringResult color_dsatur(const UndirectedGraph& conflict) {
  const std::size_t n = conflict.node_count();
  constexpr std::size_t kUncolored = static_cast<std::size_t>(-1);
  ColoringResult result;
  result.color.assign(n, kUncolored);
  if (n == 0) return result;

  // saturation[v] = set of colours used by coloured neighbours of v.
  std::vector<DynamicBitset> saturation(n, DynamicBitset(n));

  for (std::size_t step = 0; step < n; ++step) {
    // Pick the uncoloured node with max saturation, ties by degree.
    std::size_t best = kUncolored;
    std::size_t best_sat = 0, best_deg = 0;
    for (std::size_t v = 0; v < n; ++v) {
      if (result.color[v] != kUncolored) continue;
      const std::size_t sat = saturation[v].count();
      const std::size_t deg = conflict.degree(v);
      if (best == kUncolored || sat > best_sat ||
          (sat == best_sat && deg > best_deg)) {
        best = v;
        best_sat = sat;
        best_deg = deg;
      }
    }
    // Lowest colour not used by a neighbour.
    std::size_t colour = 0;
    while (colour < n && saturation[best].test(colour)) ++colour;
    result.color[best] = colour;
    result.color_count = std::max(result.color_count, colour + 1);
    conflict.neighbors(best).for_each(
        [&](std::size_t u) { saturation[u].set(colour); });
  }
  return result;
}

}  // namespace camad::graph
