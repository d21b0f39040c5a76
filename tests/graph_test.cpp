#include <gtest/gtest.h>

#include <algorithm>

#include "graph/algorithms.h"
#include "graph/coloring.h"
#include "graph/digraph.h"
#include "util/error.h"
#include "util/rng.h"

namespace camad::graph {
namespace {

Digraph diamond() {
  // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
  Digraph g(4);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(0), NodeId(2));
  g.add_edge(NodeId(1), NodeId(3));
  g.add_edge(NodeId(2), NodeId(3));
  return g;
}

TEST(Digraph, Structure) {
  Digraph g(3);
  const NodeId n2(2);
  EXPECT_EQ(g.node_count(), 3u);
  const EdgeId e = g.add_edge(NodeId(0), n2, 5);
  EXPECT_EQ(g.from(e), NodeId(0));
  EXPECT_EQ(g.to(e), n2);
  EXPECT_EQ(g.weight(e), 5);
  EXPECT_EQ(g.out_degree(NodeId(0)), 1u);
  EXPECT_EQ(g.in_degree(n2), 1u);
  EXPECT_THROW(g.add_edge(NodeId(0), NodeId(9)), ModelError);
}

TEST(TopoSort, OrdersDiamond) {
  const Digraph g = diamond();
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < 4; ++i) position[(*order)[i].index()] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[0], position[2]);
  EXPECT_LT(position[1], position[3]);
  EXPECT_LT(position[2], position[3]);
}

TEST(TopoSort, DetectsCycle) {
  Digraph g(2);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(0));
  EXPECT_FALSE(topological_sort(g).has_value());
  EXPECT_TRUE(has_cycle(g));
}

TEST(TopoSort, SelfLoopIsCycle) {
  Digraph g(1);
  g.add_edge(NodeId(0), NodeId(0));
  EXPECT_TRUE(has_cycle(g));
}

TEST(TopoSort, EmptyGraph) {
  Digraph g;
  const auto order = topological_sort(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(order->empty());
}

TEST(Scc, SinglesAndLoop) {
  Digraph g(5);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  g.add_edge(NodeId(2), NodeId(1));  // {1,2} form a component
  g.add_edge(NodeId(2), NodeId(3));
  const SccResult scc = strongly_connected_components(g);
  EXPECT_EQ(scc.count, 4u);
  EXPECT_EQ(scc.component[1], scc.component[2]);
  EXPECT_NE(scc.component[0], scc.component[1]);
  EXPECT_NE(scc.component[3], scc.component[1]);
  EXPECT_NE(scc.component[4], scc.component[0]);
}

TEST(Scc, ReverseTopologicalNumbering) {
  Digraph g(3);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  const SccResult scc = strongly_connected_components(g);
  // Successor components get smaller ids than predecessors.
  EXPECT_LT(scc.component[2], scc.component[1]);
  EXPECT_LT(scc.component[1], scc.component[0]);
}

TEST(TransitiveClosure, AcyclicChain) {
  Digraph g(3);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(2));
  const auto closure = transitive_closure(g);
  EXPECT_TRUE(closure[0].test(1));
  EXPECT_TRUE(closure[0].test(2));
  EXPECT_TRUE(closure[1].test(2));
  EXPECT_FALSE(closure[0].test(0));  // irreflexive when acyclic
  EXPECT_FALSE(closure[2].test(0));
}

TEST(TransitiveClosure, CycleIsReflexive) {
  Digraph g(3);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(0));
  g.add_edge(NodeId(1), NodeId(2));
  const auto closure = transitive_closure(g);
  EXPECT_TRUE(closure[0].test(0));
  EXPECT_TRUE(closure[1].test(1));
  EXPECT_TRUE(closure[0].test(2));
  EXPECT_FALSE(closure[2].test(2));
}

TEST(TransitiveClosure, SelfLoop) {
  Digraph g(2);
  g.add_edge(NodeId(0), NodeId(0));
  const auto closure = transitive_closure(g);
  EXPECT_TRUE(closure[0].test(0));
  EXPECT_FALSE(closure[1].test(1));
}

TEST(TransitiveClosure, MatchesBruteForceOnRandomGraphs) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 2 + rng.below(20);
    Digraph g(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.15)) g.add_edge(NodeId(i), NodeId(j));
      }
    }
    const auto closure = transitive_closure(g);
    for (std::size_t i = 0; i < n; ++i) {
      // Brute force: depth-first search seeded with i's successors, so i
      // itself is reached only through a genuine cycle.
      DynamicBitset expect(n);
      std::vector<NodeId> stack;
      for (EdgeId e : g.out_edges(NodeId(i))) stack.push_back(g.to(e));
      while (!stack.empty()) {
        const NodeId node = stack.back();
        stack.pop_back();
        if (expect.test(node.index())) continue;
        expect.set(node.index());
        for (EdgeId e : g.out_edges(node)) stack.push_back(g.to(e));
      }
      EXPECT_EQ(closure[i], expect) << "node " << i << " trial " << trial;
    }
  }
}

TEST(LongestPath, WeightsNodesAndEdges) {
  Digraph g = diamond();
  // node weights: 1 everywhere; edge 0->2 has weight 10.
  Digraph h(4);
  h.add_edge(NodeId(0), NodeId(1), 0);
  h.add_edge(NodeId(0), NodeId(2), 10);
  h.add_edge(NodeId(1), NodeId(3), 0);
  h.add_edge(NodeId(2), NodeId(3), 0);
  const auto result = longest_path(h, {1, 1, 1, 1});
  EXPECT_EQ(result.best, 13);  // 1 + 10 + 1 + 1
  EXPECT_EQ(result.best_node, NodeId(3));
  const auto path = critical_path_nodes(h, result);
  EXPECT_EQ(path, (std::vector<NodeId>{NodeId(0), NodeId(2), NodeId(3)}));
}

TEST(LongestPath, ThrowsOnCycle) {
  Digraph g(2);
  g.add_edge(NodeId(0), NodeId(1));
  g.add_edge(NodeId(1), NodeId(0));
  EXPECT_THROW(longest_path(g, {1, 1}), ModelError);
}

TEST(LongestPath, SizeMismatchThrows) {
  Digraph g(2);
  EXPECT_THROW(longest_path(g, {1}), ModelError);
}

TEST(Undirected, EdgesAreSymmetric) {
  UndirectedGraph g(4);
  g.add_edge(1, 3);
  EXPECT_TRUE(g.has_edge(3, 1));
  EXPECT_FALSE(g.has_edge(1, 2));
  EXPECT_EQ(g.degree(1), 1u);
  g.add_edge(2, 2);  // self-loop ignored
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_THROW(g.add_edge(0, 9), ModelError);
}

TEST(Dsatur, ProperColoring) {
  // Odd cycle of 5 needs 3 colours.
  UndirectedGraph g(5);
  for (std::size_t i = 0; i < 5; ++i) g.add_edge(i, (i + 1) % 5);
  const ColoringResult result = color_dsatur(g);
  EXPECT_EQ(result.color_count, 3u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_NE(result.color[i], result.color[(i + 1) % 5]);
  }
}

TEST(Dsatur, BipartiteUsesTwoColors) {
  UndirectedGraph g(6);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 3; j < 6; ++j) g.add_edge(i, j);
  }
  EXPECT_EQ(color_dsatur(g).color_count, 2u);
}

TEST(Dsatur, EmptyAndEdgeless) {
  EXPECT_EQ(color_dsatur(UndirectedGraph(0)).color_count, 0u);
  EXPECT_EQ(color_dsatur(UndirectedGraph(4)).color_count, 1u);
}

}  // namespace
}  // namespace camad::graph
