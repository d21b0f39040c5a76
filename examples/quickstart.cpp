// Quickstart: build a data/control flow system by hand, check it, run it,
// transform it, and prove the transformation changed nothing observable.
//
//   $ ./quickstart
//
// The design is the paper's flavour of example: two independent
// computations placed in serial control order, which the data-invariant
// transformation then runs in parallel.

#include <iostream>

#include "dcf/builder.h"
#include "dcf/check.h"
#include "dcf/export.h"
#include "semantics/equivalence.h"
#include "semantics/events.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "transform/parallelize.h"

using namespace camad;

int main() {
  // --- 1. describe the hardware ------------------------------------------
  // Data path: two inputs, two registers, an adder and a multiplier, two
  // outputs. Control: a serial five-state Petri net.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto o1 = b.output("o1");
  const auto o2 = b.output("o2");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto r3 = b.reg("r3");
  const auto r4 = b.reg("r4");
  const auto add = b.unit("add", dcf::OpCode::kAdd);
  const auto mul = b.unit("mul", dcf::OpCode::kMul);

  const auto s0 = b.state("S0", /*initial=*/true);  // load both inputs
  const auto s1 = b.state("S1");                    // r3 := r1 + r1
  const auto s2 = b.state("S2");                    // r4 := r2 * r2
  const auto s3 = b.state("S3");                    // o1 := r3
  const auto s4 = b.state("S4");                    // o2 := r4

  b.connect(x, r1, 0, {s0});
  b.connect(y, r2, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r3), {s1});
  b.arc(b.out(r2), b.in(mul, 0), {s2});
  b.arc(b.out(r2), b.in(mul, 1), {s2});
  b.arc(b.out(mul), b.in(r4), {s2});
  b.connect(r3, o1, 0, {s3});
  b.connect(r4, o2, 0, {s4});

  b.chain(s0, s1);
  b.chain(s1, s2);
  b.chain(s2, s3);
  b.chain(s3, s4);
  const auto t_end = b.transition("Tend");
  b.flow(s4, t_end);  // empty post-set: the net terminates (Def 3.1.6)

  const dcf::System serial = b.build("quickstart");

  // --- 2. verify it is properly designed (Def 3.2) ------------------------
  const dcf::CheckReport report = dcf::check_properly_designed(serial);
  std::cout << "design check: " << report.to_string() << "\n";

  // --- 3. simulate against an environment ---------------------------------
  // Per-cycle records are opt-in; the trace printout below reads them.
  sim::SimOptions traced;
  traced.record_cycles = true;
  sim::Environment env;
  env.set_stream(serial.datapath().find_vertex("x"), {5});
  env.set_stream(serial.datapath().find_vertex("y"), {7});
  const sim::SimResult run = sim::simulate(serial, env, traced);
  std::cout << "serial execution (" << run.cycles << " cycles):\n"
            << run.trace.to_string(serial) << "\n";

  // --- 4. apply the data-invariant parallelization -------------------------
  transform::ParallelizeStats stats;
  const dcf::System parallel = transform::parallelize(serial, {}, &stats);
  std::cout << "parallelized " << stats.states_in_segments << " states in "
            << stats.segments_transformed << " segment(s)\n";

  sim::Environment env2;
  env2.set_stream(parallel.datapath().find_vertex("x"), {5});
  env2.set_stream(parallel.datapath().find_vertex("y"), {7});
  const sim::SimResult run2 = sim::simulate(parallel, env2, traced);
  std::cout << "parallel execution (" << run2.cycles << " cycles):\n"
            << run2.trace.to_string(parallel) << "\n";

  // --- 5. prove nothing observable changed --------------------------------
  const auto invariant = semantics::check_data_invariant(serial, parallel);
  std::cout << "data-invariant (Def 4.5): "
            << (invariant.holds ? "holds" : invariant.why) << "\n";
  const auto differential =
      semantics::differential_equivalence(serial, parallel);
  std::cout << "differential simulation (8 random environments): "
            << (differential.holds ? "equivalent" : differential.why)
            << "\n\n";

  // --- 6. exports ----------------------------------------------------------
  std::cout << "DOT of the parallel control structure is available via\n"
               "dcf::system_to_dot(); first lines:\n";
  const std::string dot = dcf::system_to_dot(parallel);
  std::cout << dot.substr(0, 200) << "...\n";
  return 0;
}
