// Graph algorithms over Digraph: orderings, components, closures, paths.
#pragma once

#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "util/bitset.h"

namespace camad::graph {

/// Topological order of all nodes (Kahn), or nullopt if the graph is cyclic.
std::optional<std::vector<NodeId>> topological_sort(const Digraph& g);

/// True iff the graph contains a directed cycle (self-loops count).
bool has_cycle(const Digraph& g);

/// Strongly connected components, Tarjan's algorithm.
/// Returns component index per node; components are numbered in reverse
/// topological order of the condensation (i.e. component of an edge source
/// is >= component of its target... see tests for the exact guarantee).
struct SccResult {
  std::vector<std::size_t> component;  ///< node index -> component id
  std::size_t count = 0;               ///< number of components
};
SccResult strongly_connected_components(const Digraph& g);

/// Full transitive closure as one bitset row per node: row[i].test(j) iff
/// a non-empty directed path i -> j exists (irreflexive unless cyclic).
/// O(V*E/64) via reverse-topological propagation over the condensation.
std::vector<DynamicBitset> transitive_closure(const Digraph& g);

/// Longest (critical) path weights on a DAG.
struct LongestPathResult {
  std::vector<std::int64_t> distance;  ///< best source->node total, per node
  std::vector<EdgeId> parent;          ///< incoming edge on a best path
  std::int64_t best = 0;               ///< max over all nodes
  NodeId best_node;                    ///< argmax
};
/// Node weights are supplied per node; edge weights from the graph are
/// added along paths. Throws ModelError if the graph is cyclic.
LongestPathResult longest_path(const Digraph& g,
                               const std::vector<std::int64_t>& node_weight);

/// Extracts the node sequence of the critical path from a result.
std::vector<NodeId> critical_path_nodes(const Digraph& g,
                                        const LongestPathResult& result);

}  // namespace camad::graph
