#include "synth/cost.h"

#include <algorithm>
#include <limits>

#include "dcf/portgraph.h"
#include "sim/batch.h"
#include "sim/simulator.h"

namespace camad::synth {

AreaReport estimate_area(const dcf::System& system, const ModuleLibrary& lib) {
  const dcf::DataPath& dp = system.datapath();
  AreaReport report;
  for (dcf::VertexId v : dp.vertices()) {
    if (dp.kind(v) != dcf::VertexKind::kInternal) continue;
    double area = 0;
    bool is_reg = false;
    bool is_const = false;
    for (dcf::PortId o : dp.output_ports(v)) {
      const dcf::OpCode code = dp.operation(o).code;
      area += lib.module_for(code).area;
      is_reg |= (code == dcf::OpCode::kReg);
      is_const |= (code == dcf::OpCode::kConst);
    }
    if (is_reg) {
      report.registers += area;
    } else if (is_const) {
      report.constants += area;
    } else {
      report.functional_units += area;
    }
  }
  // Steering: an input port with n pending arcs needs an n-way mux.
  for (dcf::VertexId v : dp.vertices()) {
    for (dcf::PortId in : dp.input_ports(v)) {
      report.steering += lib.mux_area(dp.arcs_into(in).size());
    }
  }
  return report;
}

namespace {

constexpr double kScale = 100.0;  // fixed-point ns for integer longest-path

}  // namespace

std::vector<std::optional<double>> state_path_delays(
    const dcf::System& system, const ModuleLibrary& lib) {
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const dcf::PortGraph graph(dp);
  const std::size_t ports = dp.port_count();

  // Node weights are state-independent: the module delay of the
  // producing operation on every output port, the mux delay on every
  // input port with more than one pending arc.
  std::vector<std::int64_t> weight(ports, 0);
  for (std::size_t i = 0; i < ports; ++i) {
    const dcf::PortId p(static_cast<dcf::PortId::underlying_type>(i));
    if (dp.direction(p) == dcf::PortDir::kOut) {
      weight[i] = static_cast<std::int64_t>(
          lib.module_for(dp.operation(p).code).delay * kScale);
    } else if (dp.arcs_into(p).size() > 1) {
      weight[i] = static_cast<std::int64_t>(lib.mux_delay() * kScale);
    }
  }

  // Scratch shared by every state. Stamps mark the current state's arcs
  // and vertices without clearing; the other buffers are written only at
  // the ports of the state's active vertices before being read.
  std::vector<std::uint32_t> arc_stamp(dp.arc_count(), 0);
  std::vector<std::uint32_t> vertex_stamp(dp.vertex_count(), 0);
  std::vector<std::uint32_t> in_degree(ports);
  std::vector<std::int64_t> distance(ports);
  std::vector<std::uint32_t> active_ports;
  std::vector<std::uint32_t> frontier;

  const std::size_t places = cn.net().place_count();
  std::vector<std::optional<double>> delays(places);
  for (std::size_t s = 0; s < places; ++s) {
    const std::uint32_t stamp = static_cast<std::uint32_t>(s) + 1;
    const auto& arcs = cn.controlled_arcs(
        petri::PlaceId(static_cast<petri::PlaceId::underlying_type>(s)));
    // Active vertices: the endpoints of the state's arcs; the unit is
    // idle otherwise and contributes nothing.
    active_ports.clear();
    auto activate = [&](dcf::VertexId v) {
      if (vertex_stamp[v.index()] == stamp) return;
      vertex_stamp[v.index()] = stamp;
      for (dcf::PortId p : dp.input_ports(v)) active_ports.push_back(p.value());
      for (dcf::PortId p : dp.output_ports(v)) {
        active_ports.push_back(p.value());
      }
    };
    for (dcf::ArcId a : arcs) {
      arc_stamp[a.index()] = stamp;
      activate(dp.arc_source_vertex(a));
      activate(dp.arc_target_vertex(a));
    }
    for (const std::uint32_t p : active_ports) {
      in_degree[p] = graph.static_in_degrees()[p];
      distance[p] = weight[p];
    }
    for (dcf::ArcId a : arcs) ++in_degree[dp.arc_target(a).index()];

    // Kahn's sort over the active ports, relaxing longest distances as
    // each port leaves the frontier (its distance is final by then).
    frontier.clear();
    for (const std::uint32_t p : active_ports) {
      if (in_degree[p] == 0) frontier.push_back(p);
    }
    std::size_t visited = 0;
    std::int64_t best = 0;
    while (!frontier.empty()) {
      const std::uint32_t p = frontier.back();
      frontier.pop_back();
      ++visited;
      best = std::max(best, distance[p]);
      for (const dcf::PortEdge& e : graph.out_edges(p)) {
        if (e.arc.valid() && arc_stamp[e.arc.index()] != stamp) continue;
        distance[e.to] = std::max(distance[e.to], distance[p] + weight[e.to]);
        if (--in_degree[e.to] == 0) frontier.push_back(e.to);
      }
    }
    if (visited == active_ports.size()) {
      delays[s] = static_cast<double>(best) / kScale;
    }
  }
  return delays;
}

TimingReport estimate_cycle_time(const dcf::System& system,
                                 const ModuleLibrary& lib) {
  TimingReport report;
  const std::vector<std::optional<double>> delays =
      state_path_delays(system, lib);
  for (std::size_t s = 0; s < delays.size(); ++s) {
    // Active combinational loop (improper design): treat as unbounded.
    const double path_ns = delays[s].value_or(
        static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2) /
        kScale);
    if (path_ns > report.cycle_time) {
      report.cycle_time = path_ns;
      report.critical_state =
          petri::PlaceId(static_cast<petri::PlaceId::underlying_type>(s));
    }
  }
  return report;
}

PerformanceReport measure_performance(const dcf::System& system,
                                      const ModuleLibrary& lib,
                                      const MeasureOptions& options) {
  PerformanceReport report;
  report.cycle_time = estimate_cycle_time(system, lib).cycle_time;

  sim::SimOptions sim_options;
  sim_options.max_cycles = options.max_cycles;

  // One engine for all environments: configuration plans compile once
  // per measurement. Serial on purpose — the optimizer parallelizes
  // across *candidates*, so nesting another pool here would
  // oversubscribe.
  std::vector<sim::BatchRun> runs;
  runs.reserve(options.environments);
  for (std::size_t k = 0; k < options.environments; ++k) {
    runs.push_back({sim::Environment::random_for(
                        system, options.seed + k, options.stream_length,
                        options.value_lo, options.value_hi),
                    sim_options});
  }
  const std::vector<sim::SimResult> results =
      sim::simulate_batch(system, runs, /*threads=*/1);

  double total = 0;
  for (const sim::SimResult& result : results) {
    report.all_terminated &= result.terminated;
    report.max_cycles = std::max(report.max_cycles, result.cycles);
    report.sim_stats += result.stats;
    total += static_cast<double>(result.cycles);
  }
  report.mean_cycles =
      options.environments == 0
          ? 0
          : total / static_cast<double>(options.environments);
  return report;
}

}  // namespace camad::synth
