// End-to-end synthesis driver: BDL source -> verified optimized design.
//
// The full CAMAD flow of Section 5:
//   1. fold literal subexpressions (saves units that would compute
//      constants), then compile the behavioural description to the
//      serial preliminary design (maximal resources, total order);
//   2. verify it is properly designed (Def 3.2) — "formal analysis
//      techniques can first be used ... before the synthesis process";
//   3. run the transformation-based optimizer (merge + re-parallelize)
//      under the given area/delay objective;
//   4. re-verify and emit the netlist.
#pragma once

#include <string>

#include "dcf/check.h"
#include "synth/compile.h"
#include "synth/optimizer.h"

namespace camad::synth {

struct SynthesisOptions {
  OptimizerOptions optimizer;
  ModuleLibrary library = ModuleLibrary::standard();
  dcf::CheckOptions check;
  /// Differentially simulate the final design against the serial compile.
  bool verify_result = true;
};

struct SynthesisResult {
  Program program;
  dcf::System serial;       ///< preliminary design
  dcf::System optimized;    ///< final design
  CompileStats compile_stats;
  OptimizerResult optimization;
  std::string netlist;
  /// Summary table text (initial vs final metrics).
  std::string report;
};

/// Runs the whole flow; throws on parse errors, design-rule violations,
/// or (when verification is on) semantic divergence.
SynthesisResult synthesize(std::string_view source,
                           const SynthesisOptions& options = {});

}  // namespace camad::synth
