#include "synth/critpath.h"

#include <algorithm>
#include <sstream>

#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "synth/cost.h"
#include "util/strings.h"

namespace camad::synth {

std::vector<double> state_delays(const dcf::System& system,
                                 const ModuleLibrary& lib) {
  const std::vector<std::optional<double>> paths =
      state_path_delays(system, lib);
  std::vector<double> delays(paths.size(), 0);
  for (std::size_t s = 0; s < paths.size(); ++s) {
    delays[s] = paths[s].value_or(1e9);  // 1e9: active combinational loop
  }
  return delays;
}

CriticalPathResult critical_path(const dcf::System& system,
                                 const ModuleLibrary& lib,
                                 const CriticalPathOptions& options) {
  const petri::Net& net = system.control().net();
  const std::size_t n = net.place_count();
  const std::vector<double> delays = state_delays(system, lib);

  // State graph -> SCC condensation weighted by (member delays × trips).
  graph::Digraph states(n);
  for (petri::TransitionId t : net.transitions()) {
    for (petri::PlaceId pre : net.pre(t)) {
      for (petri::PlaceId post : net.post(t)) {
        states.add_edge(graph::NodeId(pre.value()),
                        graph::NodeId(post.value()));
      }
    }
  }
  const graph::SccResult scc = graph::strongly_connected_components(states);

  std::vector<std::vector<std::size_t>> members(scc.count);
  for (std::size_t v = 0; v < n; ++v) members[scc.component[v]].push_back(v);

  graph::Digraph condensation(scc.count);
  std::vector<bool> edge_seen(scc.count * scc.count, false);
  for (std::size_t v = 0; v < n; ++v) {
    for (graph::EdgeId e : states.out_edges(graph::NodeId(v))) {
      const std::size_t cu = scc.component[v];
      const std::size_t cv = scc.component[states.to(e).index()];
      if (cu == cv || edge_seen[cu * scc.count + cv]) continue;
      edge_seen[cu * scc.count + cv] = true;
      condensation.add_edge(graph::NodeId(cu), graph::NodeId(cv));
    }
  }

  const double scale = 100.0;
  std::vector<std::int64_t> comp_weight(scc.count, 0);
  for (std::size_t c = 0; c < scc.count; ++c) {
    double total = 0;
    for (std::size_t v : members[c]) total += delays[v];
    const bool is_loop =
        members[c].size() > 1 ||
        [&] {
          for (graph::EdgeId e :
               states.out_edges(graph::NodeId(members[c][0]))) {
            if (states.to(e).index() == members[c][0]) return true;
          }
          return false;
        }();
    if (is_loop) total *= options.loop_trip_count;
    comp_weight[c] = static_cast<std::int64_t>(total * scale);
  }

  const graph::LongestPathResult longest =
      graph::longest_path(condensation, comp_weight);
  const std::vector<graph::NodeId> path =
      graph::critical_path_nodes(condensation, longest);

  CriticalPathResult result;
  result.total_delay_ns = static_cast<double>(longest.best) / scale;
  for (graph::NodeId c : path) {
    // Representative state per component: the slowest member.
    const auto& group = members[c.index()];
    std::size_t best = group.front();
    for (std::size_t v : group) {
      if (delays[v] > delays[best]) best = v;
    }
    result.states.emplace_back(
        static_cast<petri::PlaceId::underlying_type>(best));
    result.state_delay_ns.push_back(delays[best]);
  }
  return result;
}

std::string CriticalPathResult::to_string(const dcf::System& system) const {
  std::ostringstream os;
  os << "critical path (" << format_double(total_delay_ns, 1) << " ns): ";
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (i != 0) os << " -> ";
    os << system.control().net().name(states[i]) << '('
       << format_double(state_delay_ns[i], 1) << ')';
  }
  return os.str();
}

}  // namespace camad::synth
