// E2 — control-invariant vertex merger reduces area.
//
// For every design: functional-unit count and estimated area before and
// after exhaustive merging (merge_all on the serial master), and the
// schedule-length price after re-parallelizing the merged design.
// Ablation: merger candidate ordering — first-legal-pair vs
// largest-area-first — compared on final area.
//
// Expected shape: monotone area reduction on every design; the cycle
// count after merging is >= the unmerged parallel schedule (shared units
// serialize their users); ordering heuristics land on similar final
// area (greedy exhaustion) but can differ on intermediate points.

#include <algorithm>
#include <iostream>

#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/cost.h"
#include "synth/designs.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

std::size_t fu_count(const dcf::System& sys) {
  std::size_t n = 0;
  for (dcf::VertexId v : sys.datapath().vertices()) {
    if (sys.datapath().kind(v) == dcf::VertexKind::kInternal &&
        !sys.datapath().is_sequential_vertex(v)) {
      ++n;
    }
  }
  return n;
}

std::uint64_t cycles_of(const dcf::System& sys, const std::string& name) {
  sim::Environment env = bench::fixed_environment(sys, name);
  return sim::simulate(sys, env).cycles;
}

/// merge_all but preferring the pair with the largest shared-vertex area.
dcf::System merge_all_by_area(dcf::System current,
                              const synth::ModuleLibrary& lib) {
  while (true) {
    auto pairs = transform::mergeable_pairs(current);
    if (pairs.empty()) break;
    std::sort(pairs.begin(), pairs.end(), [&](const auto& a, const auto& b) {
      return lib.vertex_area(current.datapath(), a.first) >
             lib.vertex_area(current.datapath(), b.first);
    });
    current = transform::merge_vertices(current, pairs.front().first,
                                        pairs.front().second);
  }
  return current;
}

void print_table() {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  Table table({"design", "FUs before", "FUs after", "area before",
               "area after", "area(by-area order)", "cycles before",
               "cycles after"});
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System serial = synth::compile_source(std::string(d.source));
    std::size_t merges = 0;
    const dcf::System merged = transform::merge_all(serial, &merges);
    const dcf::System merged_by_area = merge_all_by_area(serial, lib);

    const dcf::System par_before = transform::parallelize(serial);
    const dcf::System par_after = transform::parallelize(merged);

    table.add_row({d.name, std::to_string(fu_count(serial)),
                   std::to_string(fu_count(merged)),
                   format_double(synth::estimate_area(serial, lib).total(), 0),
                   format_double(synth::estimate_area(merged, lib).total(), 0),
                   format_double(
                       synth::estimate_area(merged_by_area, lib).total(), 0),
                   std::to_string(cycles_of(par_before, d.name)),
                   std::to_string(cycles_of(par_after, d.name))});
  }
  std::cout << "E2: exhaustive vertex merging (serial master, then "
               "re-parallelized)\n"
            << table.to_string() << '\n';
}

}  // namespace

int main() {
  print_table();
  return 0;
}
