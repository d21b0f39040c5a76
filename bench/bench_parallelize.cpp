// E1 — data-invariant parallelization shortens schedules.
//
// For every benchmark design: cycle count of the serial compile vs the
// parallelized design under a fixed environment, plus the ablation with
// the literal Def 4.4 closure (which freezes whole dependence components
// and is expected to recover ~nothing). The table is a ctest golden
// (tests/golden/bench_parallelize.txt).
//
// Expected shape: speedup > 1 on designs with intra-block ILP (diffeq,
// ewf, fir8, parlab), ~1 on control-dominated gcd/traffic; strict-closure
// speedup == 1 everywhere.

#include <iostream>

#include "semantics/equivalence.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "transform/parallelize.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

std::uint64_t cycles_of(const dcf::System& sys, const std::string& name) {
  sim::Environment env = bench::fixed_environment(sys, name);
  const sim::SimResult result = sim::simulate(sys, env);
  if (!result.terminated) return 0;
  return result.cycles;
}

void print_table() {
  Table table({"design", "serial cycles", "parallel cycles", "speedup",
               "strict-closure speedup", "equivalent"});
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System serial = synth::compile_source(std::string(d.source));
    const dcf::System parallel = transform::parallelize(serial);

    transform::ParallelizeOptions strict_options;
    strict_options.strict_transitive = true;
    const dcf::System strict =
        transform::parallelize(serial, strict_options);

    const auto serial_cycles = cycles_of(serial, d.name);
    const auto parallel_cycles = cycles_of(parallel, d.name);
    const auto strict_cycles = cycles_of(strict, d.name);

    semantics::DifferentialOptions diff;
    diff.environments = 3;
    diff.value_lo = 1;
    diff.value_hi = 20;
    const auto verdict =
        semantics::differential_equivalence(serial, parallel, diff);

    table.add_row(
        {d.name, std::to_string(serial_cycles),
         std::to_string(parallel_cycles),
         format_double(static_cast<double>(serial_cycles) /
                           static_cast<double>(parallel_cycles),
                       2),
         format_double(static_cast<double>(serial_cycles) /
                           static_cast<double>(strict_cycles),
                       2),
         verdict.holds ? "yes" : ("NO: " + verdict.why)});
  }
  std::cout << "E1: chain parallelization (fixed environments)\n"
            << table.to_string() << '\n';
}

}  // namespace

int main() {
  print_table();
  return 0;
}
