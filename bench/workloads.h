// Workload generators shared by the benchmark binaries.
//
// Three generators:
//   * fixed environments for the named designs (so E1/E2/E4 report
//     deterministic cycle counts with meaningful loop trip counts);
//   * random BDL programs (straight-line blocks + bounded loops +
//     branches) — compiled, they yield properly designed DCF systems of
//     controllable size for the scaling/confluence experiments;
//   * random fork/join ("series-parallel") Petri nets with known safety,
//     for the analysis-cost experiment (E5).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "petri/net.h"
#include "sim/environment.h"
#include "util/rng.h"

namespace camad::bench {

/// Deterministic environment for a named benchmark design. For loop
/// designs the streams are chosen to produce a substantial trip count
/// (diffeq: 16 Euler steps; gcd: gcd(252, 105); others: generous inputs).
sim::Environment fixed_environment(const dcf::System& system,
                                   const std::string& design_name);

/// A named, already-compiled benchmark design.
struct BenchDesign {
  std::string name;
  dcf::System system;
};

/// The simulator benchmark corpus: every synth::all_designs() entry plus
/// bench-only designs that stress specific engine paths (currently
/// "guarded_branch", a guarded loop whose untaken-branch cone is large
/// but temporally stable — change propagation's target shape).
std::vector<BenchDesign> bench_designs();

struct RandomProgramOptions {
  std::size_t straight_line_ops = 10;  ///< assignments in the main block
  std::size_t variables = 4;
  std::size_t loops = 1;               ///< bounded countdown loops
  std::size_t branches = 1;            ///< if/else statements
  std::size_t loop_trip = 4;
};

/// Generates a random BDL design named `prog<seed>`; always terminating
/// (loops count down from a constant) and division-free (no ⊥ surprises).
std::string random_program(std::uint64_t seed,
                           const RandomProgramOptions& options = {});

struct SpNetOptions {
  std::size_t depth = 3;   ///< nesting depth of fork/join blocks
  std::size_t width = 3;   ///< branches per fork
  std::size_t chain = 2;   ///< places per sequential run
};

/// Random series-parallel net: nested sequence/fork-join composition,
/// one initial token, safe by construction.
petri::Net random_sp_net(std::uint64_t seed, const SpNetOptions& options);

}  // namespace camad::bench
