// VCD (Value Change Dump) waveform export.
//
// Renders a simulation run as an IEEE-1364 VCD file viewable in any
// waveform viewer (GTKWave etc.): one 64-bit signal per register, one
// 1-bit signal per control state (token present), plus the fired
// transitions as events. Requires the run to have been simulated with
// SimOptions::record_cycles.
#pragma once

#include <string>

#include "dcf/system.h"
#include "sim/simulator.h"

namespace camad::sim {

/// VCD text for the run's trace. Undefined register values render as 'x'.
/// Throws SimulationError if the design has registers and the run has
/// cycles but no per-cycle records; a zero-cycle run needs none
/// and yields the header alone. A run stopped by a combinational loop in
/// its first cycle records no cycle either, so it is refused as well.
std::string to_vcd(const dcf::System& system, const SimResult& result);

}  // namespace camad::sim
