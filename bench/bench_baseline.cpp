// E4 — transformation-based synthesis vs the one-shot baseline.
//
// Baseline: compile + parallelize only (maximal resources, ASAP-style
// schedule — what a single-pass synthesizer emits).
// CAMAD: the iterative optimizer at λ = 0.5.
//
// Expected shape: the optimizer result uses (often much) less area at a
// modest time premium — it dominates the baseline on the balanced
// objective for every design; neither dominates the other on both axes
// (the baseline is the speed-optimal end of the curve).

#include <iostream>

#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/optimizer.h"
#include "transform/parallelize.h"
#include "util/strings.h"
#include "util/table.h"

using namespace camad;

namespace {

void print_table() {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  synth::MeasureOptions measure;
  measure.environments = 2;
  measure.value_hi = 20;

  Table table({"design", "base area", "base time ns", "camad area",
               "camad time ns", "area ratio", "objective(0.5) ratio"});
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System serial = synth::compile_source(std::string(d.source));
    const dcf::System baseline = transform::parallelize(serial);
    const synth::Metrics base = synth::evaluate(baseline, lib, measure);

    synth::OptimizerOptions options;
    options.area_weight = 0.5;
    options.measure = measure;
    options.max_steps = 16;
    const synth::OptimizerResult camad =
        synth::optimize(serial, lib, options);

    const double base_obj = 0.5 + 0.5;  // normalized to itself
    const double camad_obj = 0.5 * camad.final.area / base.area +
                             0.5 * camad.final.time_ns / base.time_ns;
    table.add_row({d.name, format_double(base.area, 0),
                   format_double(base.time_ns, 0),
                   format_double(camad.final.area, 0),
                   format_double(camad.final.time_ns, 0),
                   format_double(camad.final.area / base.area, 2),
                   format_double(camad_obj / base_obj, 2)});
  }
  std::cout << "E4: one-shot baseline vs CAMAD-style optimizer (lambda=0.5)\n"
            << table.to_string()
            << "(objective ratio < 1 means the optimizer dominates on the "
               "balanced objective)\n\n";
}

}  // namespace

int main() {
  print_table();
  return 0;
}
