#include "semantics/dependence.h"

#include <cstdint>
#include <numeric>

namespace camad::semantics {
namespace {

using dcf::ArcId;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;
using petri::TransitionId;

}  // namespace

DependenceRelation::DependenceRelation(const dcf::System& system,
                                       const DependenceOptions& options) {
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const petri::Net& net = cn.net();
  const std::size_t n = net.place_count();
  const std::size_t verts = dp.vertex_count();

  direct_.assign(n, DynamicBitset(n));

  // R(S), dom(S) and clause (e)'s environment flag, straight from each
  // state's controlled arcs: an arc puts its source vertex in dom(S) and
  // its target in cod(S), and R(S) keeps the sequential targets.
  std::vector<bool> sequential(verts);
  for (VertexId v : dp.vertices()) {
    sequential[v.index()] = dp.is_sequential_vertex(v);
  }
  std::vector<DynamicBitset> result(n, DynamicBitset(verts));
  std::vector<DynamicBitset> domain(n, DynamicBitset(verts));
  std::vector<bool> external(n, false);
  for (PlaceId s : net.places()) {
    for (ArcId a : cn.controlled_arcs(s)) {
      const VertexId target = dp.arc_target_vertex(a);
      if (sequential[target.index()]) result[s.index()].set(target.index());
      domain[s.index()].set(dp.arc_source_vertex(a).index());
      if (dp.is_external_arc(a)) external[s.index()] = true;
    }
  }

  // Clause (d) support: for each state, the sequential vertices that the
  // guards of its adjacent transitions combinationally read. A guard's
  // support is found by a backward search from its port: a sequential
  // output contributes its owner and stops the search; a combinational
  // output continues into the sources of every arc into its operand
  // ports (conservative — activity is control-dependent). Input ports
  // contribute nothing. Only the cone behind the guards is visited.
  std::vector<DynamicBitset> guard_support(n, DynamicBitset(verts));
  if (options.clause_d) {
    std::vector<std::uint32_t> visited(dp.port_count(), 0);  // stamp = t + 1
    std::vector<PortId> stack;
    DynamicBitset support(verts);
    for (TransitionId t : net.transitions()) {
      if (cn.guards(t).empty()) continue;
      const auto stamp = static_cast<std::uint32_t>(t.index() + 1);
      const auto visit = [&](PortId p) {
        if (dp.direction(p) != dcf::PortDir::kOut) return;
        if (visited[p.index()] == stamp) return;
        visited[p.index()] = stamp;
        stack.push_back(p);
      };
      support.reset_all();
      for (PortId g : cn.guards(t)) visit(g);
      while (!stack.empty()) {
        const PortId o = stack.back();
        stack.pop_back();
        const VertexId v = dp.owner(o);
        const dcf::OpCode code = dp.operation(o).code;
        if (dcf::op_is_sequential(code)) {
          support.set(v.index());
          continue;
        }
        const int arity = dcf::op_arity(code);
        const auto& ins = dp.input_ports(v);
        for (int k = 0; k < arity; ++k) {
          for (ArcId a : dp.arcs_into(ins[static_cast<std::size_t>(k)])) {
            visit(dp.arc_source(a));
          }
        }
      }
      if (support.none()) continue;
      for (PlaceId p : net.pre(t)) guard_support[p.index()] |= support;
      for (PlaceId p : net.post(t)) guard_support[p.index()] |= support;
    }
  }

  auto mark = [&](std::size_t i, std::size_t j) {
    direct_[i].set(j);
    direct_[j].set(i);
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (options.clause_a && result[i].intersects(domain[j])) mark(i, j);
      else if (options.clause_b && result[j].intersects(domain[i])) mark(i, j);
      else if (options.clause_c && result[i].intersects(result[j]))
        mark(i, j);
      else if (options.clause_d && (guard_support[i].intersects(result[j]) ||
                                    guard_support[j].intersects(result[i])))
        mark(i, j);
      else if (options.clause_e && external[i] && external[j]) mark(i, j);
    }
  }

  // Connected components of ↔ for the literal ◇.
  component_.resize(n);
  std::iota(component_.begin(), component_.end(), 0);
  std::vector<std::size_t> stack;
  std::vector<bool> seen(n, false);
  for (std::size_t root = 0; root < n; ++root) {
    if (seen[root]) continue;
    stack.push_back(root);
    seen[root] = true;
    while (!stack.empty()) {
      const std::size_t v = stack.back();
      stack.pop_back();
      component_[v] = root;
      direct_[v].for_each([&](std::size_t u) {
        if (!seen[u]) {
          seen[u] = true;
          stack.push_back(u);
        }
      });
    }
  }
}

}  // namespace camad::semantics
