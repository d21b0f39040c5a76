// Cost and performance estimation over data/control flow systems.
//
// Area = Σ functional-unit/register areas + steering logic (an n-way mux
// in front of every input port with n > 1 pending arcs).
// Cycle time = the slowest state: the longest combinational path through
// the state's active subgraph (module delays along arcs), as a register-
// to-register hardware path would be.
// Execution time = measured cycles (simulation) × cycle time.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "sim/simulator.h"
#include "synth/library.h"

namespace camad::synth {

struct AreaReport {
  double functional_units = 0;
  double registers = 0;
  double constants = 0;
  double steering = 0;  ///< muxes on multi-driven input ports
  [[nodiscard]] double total() const {
    return functional_units + registers + constants + steering;
  }
};

AreaReport estimate_area(const dcf::System& system, const ModuleLibrary& lib);

struct TimingReport {
  double cycle_time = 0;          ///< ns, max over states
  petri::PlaceId critical_state;  ///< state with the longest path
};

TimingReport estimate_cycle_time(const dcf::System& system,
                                 const ModuleLibrary& lib);

/// Per control state (place order), the longest combinational path (ns)
/// through the state's active subgraph: the arcs it controls plus the
/// bindings of every vertex they touch, weighted by each output port's
/// module delay and the mux delay of each multi-driven input port.
/// nullopt marks a state whose active subgraph holds a combinational
/// loop. The kernel behind estimate_cycle_time and state_delays.
std::vector<std::optional<double>> state_path_delays(
    const dcf::System& system, const ModuleLibrary& lib);

struct PerformanceReport {
  double mean_cycles = 0;      ///< average over the sampled environments
  std::uint64_t max_cycles = 0;
  bool all_terminated = true;
  double cycle_time = 0;       ///< ns
  /// Plan-cache activity summed over all sampled runs.
  sim::SimStats sim_stats;
  [[nodiscard]] double mean_time_ns() const {
    return mean_cycles * cycle_time;
  }
};

struct MeasureOptions {
  std::size_t environments = 4;
  std::uint64_t seed = 7;
  std::size_t stream_length = 64;
  std::int64_t value_lo = 1;
  std::int64_t value_hi = 99;
  std::uint64_t max_cycles = 200000;
};

/// Simulates the system over random environments and combines the cycle
/// counts with the estimated cycle time. The runs go through
/// sim::simulate_batch, so one engine serves every environment and
/// configuration plans compile once per measurement.
PerformanceReport measure_performance(const dcf::System& system,
                                      const ModuleLibrary& lib,
                                      const MeasureOptions& options = {});

}  // namespace camad::synth
