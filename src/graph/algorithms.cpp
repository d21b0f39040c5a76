#include "graph/algorithms.h"

#include <algorithm>
#include <cassert>

#include "util/error.h"

namespace camad::graph {

std::optional<std::vector<NodeId>> topological_sort(const Digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<std::size_t> indegree(n);
  for (std::size_t i = 0; i < n; ++i) indegree[i] = g.in_degree(NodeId(i));

  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<NodeId> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) frontier.push_back(NodeId(i));
  }
  while (!frontier.empty()) {
    const NodeId node = frontier.back();
    frontier.pop_back();
    order.push_back(node);
    for (EdgeId e : g.out_edges(node)) {
      const NodeId succ = g.to(e);
      if (--indegree[succ.index()] == 0) frontier.push_back(succ);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool has_cycle(const Digraph& g) { return !topological_sort(g).has_value(); }

SccResult strongly_connected_components(const Digraph& g) {
  // Iterative Tarjan to avoid stack overflow on long chains.
  const std::size_t n = g.node_count();
  constexpr std::size_t kUnvisited = static_cast<std::size_t>(-1);
  SccResult result;
  result.component.assign(n, kUnvisited);

  std::vector<std::size_t> index(n, kUnvisited);
  std::vector<std::size_t> lowlink(n);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0;

  struct Frame {
    std::size_t node;
    std::size_t edge_pos;
  };
  std::vector<Frame> call_stack;

  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) continue;
    call_stack.push_back({root, 0});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      const auto& out = g.out_edges(NodeId(frame.node));
      if (frame.edge_pos < out.size()) {
        const std::size_t succ = g.to(out[frame.edge_pos++]).index();
        if (index[succ] == kUnvisited) {
          index[succ] = lowlink[succ] = next_index++;
          stack.push_back(succ);
          on_stack[succ] = true;
          call_stack.push_back({succ, 0});
        } else if (on_stack[succ]) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[succ]);
        }
      } else {
        const std::size_t node = frame.node;
        call_stack.pop_back();
        if (!call_stack.empty()) {
          const std::size_t parent = call_stack.back().node;
          lowlink[parent] = std::min(lowlink[parent], lowlink[node]);
        }
        if (lowlink[node] == index[node]) {
          while (true) {
            const std::size_t member = stack.back();
            stack.pop_back();
            on_stack[member] = false;
            result.component[member] = result.count;
            if (member == node) break;
          }
          ++result.count;
        }
      }
    }
  }
  return result;
}

std::vector<DynamicBitset> transitive_closure(const Digraph& g) {
  const std::size_t n = g.node_count();
  const SccResult scc = strongly_connected_components(g);

  // Tarjan numbers components in reverse topological order: when we walk
  // components from id 0 upward, every successor component of component c
  // has an id < c, so its closure row is already final.
  std::vector<std::vector<std::size_t>> members(scc.count);
  for (std::size_t v = 0; v < n; ++v) members[scc.component[v]].push_back(v);

  std::vector<DynamicBitset> comp_row(scc.count, DynamicBitset(n));
  std::vector<DynamicBitset> row(n, DynamicBitset(n));

  for (std::size_t c = 0; c < scc.count; ++c) {
    DynamicBitset& closure = comp_row[c];
    const bool cyclic =
        members[c].size() > 1 ||
        [&] {  // single node with a self-loop is also cyclic
          const NodeId v(members[c][0]);
          for (EdgeId e : g.out_edges(v)) {
            if (g.to(e) == v) return true;
          }
          return false;
        }();
    for (std::size_t v : members[c]) {
      for (EdgeId e : g.out_edges(NodeId(v))) {
        const std::size_t succ = g.to(e).index();
        const std::size_t succ_comp = scc.component[succ];
        if (succ_comp == c) continue;
        closure.set(succ);
        closure |= comp_row[succ_comp];
      }
    }
    if (cyclic) {
      for (std::size_t v : members[c]) closure.set(v);
    }
    for (std::size_t v : members[c]) row[v] = closure;
  }
  return row;
}

LongestPathResult longest_path(const Digraph& g,
                               const std::vector<std::int64_t>& node_weight) {
  if (node_weight.size() != g.node_count()) {
    throw ModelError("longest_path: node_weight size mismatch");
  }
  const auto order = topological_sort(g);
  if (!order) throw ModelError("longest_path: graph is cyclic");

  LongestPathResult result;
  result.distance.assign(g.node_count(), 0);
  result.parent.assign(g.node_count(), EdgeId::invalid());
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    result.distance[i] = node_weight[i];
  }
  for (NodeId node : *order) {
    for (EdgeId e : g.out_edges(node)) {
      const NodeId succ = g.to(e);
      const std::int64_t candidate = result.distance[node.index()] +
                                     g.weight(e) + node_weight[succ.index()];
      if (candidate > result.distance[succ.index()]) {
        result.distance[succ.index()] = candidate;
        result.parent[succ.index()] = e;
      }
    }
  }
  result.best_node = NodeId(0);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    if (result.distance[i] > result.best) {
      result.best = result.distance[i];
      result.best_node = NodeId(i);
    }
  }
  return result;
}

std::vector<NodeId> critical_path_nodes(const Digraph& g,
                                        const LongestPathResult& result) {
  std::vector<NodeId> path;
  if (g.node_count() == 0) return path;
  NodeId node = result.best_node;
  path.push_back(node);
  while (result.parent[node.index()].valid()) {
    node = g.from(result.parent[node.index()]);
    path.push_back(node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace camad::graph
