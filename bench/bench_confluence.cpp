// E7 — confluence: on properly designed systems (Def 3.2) the external
// event structure is independent of the firing order; on improper
// designs it is not. This is the empirical content of the paper's
// restriction to properly designed systems.
//
// Protocol: N random compiled programs (always properly designed) ×
// {maximal-step, random-order, single-random × seeds}: compare external
// event structures against the maximal-step reference. Then the same for
// a deliberately improper design (free-choice conflict without guards).
//
// Expected shape: 100% agreement for proper systems; well below 100% for
// the improper one.

#include <iostream>

#include "dcf/builder.h"
#include "dcf/check.h"
#include "semantics/events.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "transform/parallelize.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

semantics::EventStructure run(const dcf::System& sys,
                              sim::FiringPolicy policy, std::uint64_t seed) {
  sim::Environment env = sim::Environment::random_for(sys, 23, 64, 1, 20);
  sim::SimOptions options;
  options.policy = policy;
  options.seed = seed;
  const sim::SimResult result = sim::simulate(sys, env, options);
  return semantics::EventStructure::extract(sys, result.trace);
}

/// Agreement rate of 10 randomized executions against maximal-step.
/// The randomized runs are independent, so they go through simulate_batch
/// (one shared immutable system, one Simulator per worker).
double agreement(const dcf::System& sys) {
  const semantics::EventStructure reference =
      run(sys, sim::FiringPolicy::kMaximalStep, 1);
  std::vector<sim::BatchRun> runs;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const sim::FiringPolicy policy :
         {sim::FiringPolicy::kRandomOrder, sim::FiringPolicy::kSingleRandom}) {
      sim::BatchRun job;
      job.environment = sim::Environment::random_for(sys, 23, 64, 1, 20);
      job.options.policy = policy;
      job.options.seed = seed;
      runs.push_back(std::move(job));
    }
  }
  const std::vector<sim::SimResult> results = sim::simulate_batch(sys, runs);
  int agree = 0;
  for (const sim::SimResult& result : results) {
    if (semantics::EventStructure::extract(sys, result.trace)
            .equivalent(reference)) {
      ++agree;
    }
  }
  return 100.0 * agree / static_cast<int>(results.size());
}

/// Free-choice conflict: one place, two unguarded consumers writing
/// different values to the same output — different winners under
/// different orders.
dcf::System improper_design() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto o = b.output("o");
  const auto r = b.reg("r");
  const auto c1 = b.constant("c1", 111);
  const auto c2 = b.constant("c2", 222);
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  const auto s3 = b.state("S3");
  const auto s4 = b.state("S4");
  b.connect(x, r, 0, {s0});
  b.connect(c1, r, 0, {s1});
  b.connect(c2, r, 0, {s2});
  b.chain(s0, s1, "Ta");  // unguarded conflict from S0
  b.chain(s0, s2, "Tb");
  b.chain(s1, s3, "Tc");
  b.chain(s2, s4, "Td");
  b.connect(r, o, 0, {s3});
  const auto arc = b.arc(b.out(r), b.in(o));
  b.control(s4, arc);
  const auto t1 = b.transition("Te");
  b.flow(s3, t1);
  const auto t2 = b.transition("Tf");
  b.flow(s4, t2);
  return b.build("improper");
}

void print_table() {
  // Two "properly designed" verdicts per system: the paper's structural
  // ∥ relation (conservative: exclusive if/else branches sharing a
  // register count as parallel) and the reachability-refined relation.
  Table table({"system", "proper (structural)", "proper (reachable)",
               "agreement %"});
  dcf::CheckOptions reachable;
  reachable.use_reachable_concurrency = true;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    bench::RandomProgramOptions options;
    options.straight_line_ops = 8;
    options.loops = 1;
    options.branches = 1;
    const dcf::System serial =
        synth::compile_source(bench::random_program(seed, options));
    const dcf::System sys = transform::parallelize(serial);
    table.add_row({"prog" + std::to_string(seed),
                   dcf::check_properly_designed(sys).ok() ? "yes" : "no",
                   dcf::check_properly_designed(sys, reachable).ok() ? "yes"
                                                                     : "no",
                   format_double(agreement(sys), 1)});
  }
  const dcf::System bad = improper_design();
  table.add_row({"free-choice conflict",
                 dcf::check_properly_designed(bad).ok() ? "yes" : "no",
                 dcf::check_properly_designed(bad, reachable).ok() ? "yes"
                                                                   : "no",
                 format_double(agreement(bad), 1)});
  std::cout << "E7: firing-order independence (10 randomized runs each)\n"
            << table.to_string() << '\n';
}

}  // namespace

int main() {
  print_table();
  return 0;
}
