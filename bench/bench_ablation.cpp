// E8 — pass ablation: what each transformation contributes.
//
// For every design, four serial masters are scheduled and measured:
//   base        compile only
//   +chain      control-state chaining (independent adjacent states fuse)
//   +regshare   live-range register sharing
//   +both       chaining after sharing
// Each is then parallelized and measured.
//
// Expected shape: chaining reduces cycles at unchanged area; register
// sharing reduces area and may serialize (cycles weakly up); combining
// gives the area win of sharing with part of the cycle win of chaining.

#include <iostream>

#include "synth/compile.h"
#include "synth/cost.h"
#include "synth/designs.h"
#include "synth/optimizer.h"
#include "transform/chain.h"
#include "transform/parallelize.h"
#include "transform/regshare.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

struct Point {
  double area;
  double cycles;
};

Point measure(const dcf::System& master, const synth::ModuleLibrary& lib) {
  const dcf::System scheduled = transform::parallelize(master);
  synth::MeasureOptions options;
  options.environments = 2;
  options.value_hi = 20;
  const synth::Metrics m = synth::evaluate(scheduled, lib, options);
  return {m.area, m.mean_cycles};
}

void print_table() {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  Table table({"design", "base area", "base cyc", "+chain cyc",
               "+regshare area", "+regshare cyc", "+both area",
               "+both cyc"});
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System base = synth::compile_source(std::string(d.source));
    const dcf::System chained = transform::chain_states(base);
    const dcf::System shared = transform::share_registers(base);
    const dcf::System both = transform::chain_states(shared);

    const Point p0 = measure(base, lib);
    const Point p1 = measure(chained, lib);
    const Point p2 = measure(shared, lib);
    const Point p3 = measure(both, lib);
    table.add_row({d.name, format_double(p0.area, 0),
                   format_double(p0.cycles, 1), format_double(p1.cycles, 1),
                   format_double(p2.area, 0), format_double(p2.cycles, 1),
                   format_double(p3.area, 0), format_double(p3.cycles, 1)});
  }
  std::cout << "E8: transformation pass ablation (all parallelized after "
               "the listed passes)\n"
            << table.to_string() << '\n';
}

}  // namespace

int main() {
  print_table();
  return 0;
}
