// The benchmark designs, written in BDL.
//
// These reconstruct the classic late-1980s high-level-synthesis workloads
// that CAMAD-era papers evaluated on:
//   * gcd      — Euclid's subtractive GCD (loop + branch, control heavy)
//   * diffeq   — the HAL differential-equation solver (Paulin & Knight),
//                y'' + 3xy' + 3y = 0 by forward Euler: multiplier-rich
//                loop body with real ILP
//   * ewf      — a 5th-order elliptic-wave-filter-like straight-line
//                kernel (add-dominated, long dependence chains): two
//                cascaded biquad-ish sections plus output combination.
//                The exact published DFG is not in the paper; this kernel
//                matches its op mix (26 add / 8 mul) and depth class.
//   * fir8     — 8-tap FIR filter over a shifting sample window
//   * traffic  — a four-phase traffic-light controller (branch-dominated
//                FSM): the phase advances when the timer expires, and the
//                side-road sensor shortens the main-green phase
//   * parlab   — explicit `par` blocks (fork/join showcase)
//
// The sources are the files designs/<name>.bdl, compiled in at configure
// time (src/synth/designs.cpp.in), so the CLI and the library read one
// copy.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace camad::synth {

std::string_view gcd_source();
std::string_view diffeq_source();
std::string_view ewf_source();
std::string_view fir_source();
std::string_view traffic_source();
std::string_view parlab_source();

struct NamedDesign {
  std::string name;
  std::string_view source;
};

/// Every benchmark design, in canonical order.
std::vector<NamedDesign> all_designs();

}  // namespace camad::synth
