// Differential and determinism tests for the plan engine
// (sim::SimEngine::kCompiled) against the reference per-cycle
// transcription of Def 3.1 (sim::SimEngine::kReference).
//
// The plan engine must be *bit-identical* to the reference on every
// observable: cycle count, termination/deadlock flags, full trace
// (markings, fired transitions, events, registers), final register
// state, and violation messages — across every design, firing policy,
// and seed. Only SimStats may differ (the reference engine has no plan
// cache).

#include <gtest/gtest.h>

#include "dcf/builder.h"
#include "dcf/portgraph.h"
#include "fixtures.h"
#include "sim/batch.h"
#include "sim/plan.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "workloads.h"

namespace camad {
namespace {

using test::make_gcd;
using test::make_two_lane;

constexpr sim::FiringPolicy kPolicies[] = {
    sim::FiringPolicy::kMaximalStep,
    sim::FiringPolicy::kRandomOrder,
    sim::FiringPolicy::kSingleRandom,
};

void expect_identical_traces(const sim::Trace& a, const sim::Trace& b) {
  EXPECT_EQ(a.events(), b.events());
  ASSERT_EQ(a.cycles.size(), b.cycles.size());
  for (std::size_t i = 0; i < a.cycles.size(); ++i) {
    const sim::CycleRecord& ca = a.cycles[i];
    const sim::CycleRecord& cb = b.cycles[i];
    EXPECT_EQ(ca.cycle, cb.cycle) << "cycle index " << i;
    EXPECT_EQ(ca.marked, cb.marked) << "cycle " << i;
    EXPECT_EQ(ca.fired, cb.fired) << "cycle " << i;
    EXPECT_EQ(ca.registers, cb.registers) << "cycle " << i;
  }
}

/// Everything observable must match; stats are intentionally excluded
/// (the reference engine has no plan cache, and cache warmth varies with
/// engine reuse). Both runs must keep per-cycle records: two runs without
/// them would pass the cycle comparison without checking a cycle.
void expect_identical_results(const sim::SimResult& a,
                              const sim::SimResult& b) {
  EXPECT_FALSE(a.cycles > 0 && a.trace.cycles.empty())
      << "compare runs simulated with record_cycles";
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.final_registers, b.final_registers);
  expect_identical_traces(a.trace, b.trace);
}

sim::SimResult run_engine(const dcf::System& sys, sim::SimEngine engine,
                          sim::FiringPolicy policy, std::uint64_t seed) {
  sim::Environment env = sim::Environment::random_for(sys, seed, 48, 1, 20);
  sim::SimOptions options;
  options.engine = engine;
  options.policy = policy;
  options.seed = seed;
  options.record_cycles = true;
  return sim::simulate(sys, env, options);
}

// ---------------------------------------------------------------------
// Differential: compiled == reference on the whole design corpus.

TEST(SimEngineDifferential, AllDesignsAllPoliciesAllSeeds) {
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    for (const sim::FiringPolicy policy : kPolicies) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(std::string(d.name) + " policy=" +
                     std::to_string(static_cast<int>(policy)) + " seed=" +
                     std::to_string(seed));
        const sim::SimResult compiled =
            run_engine(sys, sim::SimEngine::kCompiled, policy, seed);
        const sim::SimResult reference =
            run_engine(sys, sim::SimEngine::kReference, policy, seed);
        expect_identical_results(compiled, reference);
      }
    }
  }
}

TEST(SimEngineDifferential, HandBuiltFixtures) {
  for (const dcf::System& sys : {make_gcd(), make_two_lane()}) {
    for (const sim::FiringPolicy policy : kPolicies) {
      SCOPED_TRACE(sys.name());
      expect_identical_results(
          run_engine(sys, sim::SimEngine::kCompiled, policy, 7),
          run_engine(sys, sim::SimEngine::kReference, policy, 7));
    }
  }
}

// Free-choice conflict: two unguarded transitions compete for one place.
// Exercises the guard-conflict violation path and policy divergence.
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
  b.connect(x, r, 0, {s0});
  b.connect(c1, r, 0, {s1});
  b.connect(c2, r, 0, {s2});
  b.chain(s0, s1, "Ta");
  b.chain(s0, s2, "Tb");
  const auto arc = b.arc(b.out(r), b.in(o));
  b.control(s1, arc);
  b.control(s2, arc);
  return b.build("improper");
}

// Two states simultaneously driving the same input port: exercises the
// rule-10 drive-conflict violation path (identical messages, identical
// order, identical winner).
dcf::System multi_driver_design() {
  dcf::SystemBuilder b;
  const auto c1 = b.constant("c1", 5);
  const auto c2 = b.constant("c2", 9);
  const auto r = b.reg("r");
  const auto o = b.output("o");
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1", true);  // both marked at t=0
  const auto s2 = b.state("S2");
  b.connect(c1, r, 0, {s0});
  b.connect(c2, r, 0, {s1});  // conflict: both drive r.in[0]
  b.chain(s0, s2, "Ta");
  const auto arc = b.arc(b.out(r), b.in(o));
  b.control(s2, arc);
  return b.build("multidriver");
}

// One marking with two multi-driven input ports. Kahn's LIFO frontier
// reaches r2's input before r1's although r1's has the lower port id, so
// the violation order pins the topological order, not a port scan.
dcf::System double_conflict_design() {
  dcf::SystemBuilder b;
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto c1 = b.constant("c1", 1);
  const auto c2 = b.constant("c2", 2);
  const auto c3 = b.constant("c3", 3);
  const auto c4 = b.constant("c4", 4);
  const auto o = b.output("o");
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  b.connect(c1, r1, 0, {s0});
  b.connect(c2, r1, 0, {s0});  // conflict 1: r1.in[0]
  b.connect(c3, r2, 0, {s0});
  b.connect(c4, r2, 0, {s0});  // conflict 2: r2.in[0]
  b.chain(s0, s1, "Ta");
  b.connect(r1, o, 0, {s1});
  return b.build("doubleconflict");
}

TEST(SimEngineDifferential, ViolationPathsMatch) {
  for (const dcf::System& sys : {improper_design(), multi_driver_design()}) {
    for (const sim::FiringPolicy policy : kPolicies) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(sys.name() + " seed=" + std::to_string(seed));
        const sim::SimResult compiled =
            run_engine(sys, sim::SimEngine::kCompiled, policy, seed);
        const sim::SimResult reference =
            run_engine(sys, sim::SimEngine::kReference, policy, seed);
        expect_identical_results(compiled, reference);
      }
    }
  }
  // Sanity: those designs actually exercise the violation paths.
  const sim::SimResult r = run_engine(
      multi_driver_design(), sim::SimEngine::kCompiled,
      sim::FiringPolicy::kMaximalStep, 1);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_NE(r.violations.front().find("driven by"), std::string::npos);
}

TEST(SimEngineDifferential, DriveConflictsFollowTopologicalOrder) {
  const dcf::System sys = double_conflict_design();
  for (const sim::FiringPolicy policy : kPolicies) {
    SCOPED_TRACE(static_cast<int>(policy));
    expect_identical_results(
        run_engine(sys, sim::SimEngine::kCompiled, policy, 1),
        run_engine(sys, sim::SimEngine::kReference, policy, 1));
  }
  const dcf::DataPath& dp = sys.datapath();
  const dcf::PortId r1_in = dp.input_ports(dp.find_vertex("r1"))[0];
  const dcf::PortId r2_in = dp.input_ports(dp.find_vertex("r2"))[0];
  ASSERT_LT(r1_in.value(), r2_in.value());
  const sim::SimResult r = run_engine(sys, sim::SimEngine::kCompiled,
                                      sim::FiringPolicy::kMaximalStep, 1);
  const std::string tail = " driven by 2 simultaneously active arcs";
  const std::vector<std::string> expected = {
      "input port " + dp.name(r2_in) + tail,
      "input port " + dp.name(r1_in) + tail,
  };
  EXPECT_EQ(r.violations, expected);
}

// A marking that closes a combinational cycle stops both engines at the
// same cycle with the same message.
TEST(SimEngineDifferential, ActiveCombinationalLoopStopsBothEngines) {
  const dcf::System sys = test::make_comb_loop();
  for (const sim::FiringPolicy policy : kPolicies) {
    SCOPED_TRACE(static_cast<int>(policy));
    const sim::SimResult compiled =
        run_engine(sys, sim::SimEngine::kCompiled, policy, 1);
    const sim::SimResult reference =
        run_engine(sys, sim::SimEngine::kReference, policy, 1);
    expect_identical_results(compiled, reference);
    EXPECT_EQ(compiled.cycles, 2u);  // S0, then the looping Sloop
    EXPECT_FALSE(compiled.terminated);
    EXPECT_FALSE(compiled.deadlocked);
    EXPECT_EQ(compiled.violations,
              std::vector<std::string>{
                  "active combinational loop during evaluation"});
  }
}

// ---------------------------------------------------------------------
// Determinism.

TEST(SimEngineDeterminism, ReplaySameSeedIsIdentical) {
  const dcf::System sys = make_gcd();
  for (const sim::FiringPolicy policy : kPolicies) {
    const sim::SimResult a =
        run_engine(sys, sim::SimEngine::kCompiled, policy, 42);
    const sim::SimResult b =
        run_engine(sys, sim::SimEngine::kCompiled, policy, 42);
    expect_identical_results(a, b);
    // Fresh simulate() calls start from a cold cache both times, so even
    // the stats must replay exactly.
    EXPECT_EQ(a.stats, b.stats);
  }
}

// Batch workers reuse one Simulator across runs, so plan snapshots left
// by one run seed the next run's wavefronts; every run must still match
// a fresh sequential simulate().
TEST(SimEngineDeterminism, BatchMatchesSequential) {
  const std::size_t kRuns = 8;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    for (const sim::FiringPolicy policy : kPolicies) {
      auto make_runs = [&] {
        std::vector<sim::BatchRun> runs;
        for (std::size_t k = 0; k < kRuns; ++k) {
          sim::BatchRun job;
          job.environment =
              sim::Environment::random_for(sys, 100 + k, 32, 1, 30);
          job.options.policy = policy;
          job.options.seed = 100 + k;
          job.options.record_cycles = true;
          runs.push_back(std::move(job));
        }
        return runs;
      };

      // Sequential oracle: plain simulate() per run.
      std::vector<sim::SimResult> sequential;
      {
        std::vector<sim::BatchRun> runs = make_runs();
        for (sim::BatchRun& job : runs) {
          sequential.push_back(
              sim::simulate(sys, job.environment, job.options));
        }
      }
      // Parallel batch, twice (replay must also be deterministic).
      for (int round = 0; round < 2; ++round) {
        std::vector<sim::BatchRun> runs = make_runs();
        const std::vector<sim::SimResult> batched =
            sim::simulate_batch(sys, runs, 4);
        ASSERT_EQ(batched.size(), sequential.size());
        for (std::size_t k = 0; k < kRuns; ++k) {
          SCOPED_TRACE(std::string(d.name) + " policy=" +
                       std::to_string(static_cast<int>(policy)) +
                       " round=" + std::to_string(round) +
                       " run=" + std::to_string(k));
          expect_identical_results(batched[k], sequential[k]);
        }
      }
    }
  }
}

// Each sweep job draws its environment on its worker; every run must
// match a sequential simulate() against the same seeded environment.
TEST(SimEngineDeterminism, BatchSeedsSweep) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::all_designs()[0].source));
  sim::SimOptions options;
  options.record_cycles = true;
  const auto a = sim::simulate_batch_seeds(sys, 1, 6, 32, options, 3, 1, 20);
  const auto b = sim::simulate_batch_seeds(sys, 1, 6, 32, options, 1, 1, 20);
  ASSERT_EQ(a.size(), 6u);
  ASSERT_EQ(b.size(), 6u);
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("seed " + std::to_string(1 + k));
    sim::Environment env =
        sim::Environment::random_for(sys, 1 + k, 32, 1, 20);
    options.seed = 1 + k;
    const sim::SimResult sequential = sim::simulate(sys, env, options);
    expect_identical_results(a[k], sequential);
    expect_identical_results(b[k], sequential);
  }
}

// ---------------------------------------------------------------------
// Recording invariance: per-cycle records are a debugging view. A
// default run keeps none, a recording run keeps one per cycle, and both
// show the same observables on either engine.

TEST(SimEngineRecording, DefaultRunMatchesRecordingRun) {
  for (const bench::BenchDesign& d : bench::bench_designs()) {
    for (const sim::SimEngine engine :
         {sim::SimEngine::kCompiled, sim::SimEngine::kReference}) {
      for (const sim::FiringPolicy policy : kPolicies) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          SCOPED_TRACE(d.name + " engine=" +
                       std::string(sim::engine_name(engine)) + " policy=" +
                       std::to_string(static_cast<int>(policy)) +
                       " seed=" + std::to_string(seed));
          sim::Environment env =
              sim::Environment::random_for(d.system, seed, 48, 1, 20);
          sim::SimOptions options;
          options.engine = engine;
          options.policy = policy;
          options.seed = seed;
          const sim::SimResult plain = sim::simulate(d.system, env, options);
          env.rewind();
          options.record_cycles = true;
          const sim::SimResult recorded =
              sim::simulate(d.system, env, options);

          EXPECT_EQ(plain.cycles, recorded.cycles);
          EXPECT_EQ(plain.terminated, recorded.terminated);
          EXPECT_EQ(plain.deadlocked, recorded.deadlocked);
          EXPECT_EQ(plain.violations, recorded.violations);
          EXPECT_EQ(plain.final_registers, recorded.final_registers);
          EXPECT_EQ(plain.trace.events(), recorded.trace.events());
          EXPECT_FALSE(plain.trace.events().empty());

          EXPECT_TRUE(plain.trace.cycles.empty());
          ASSERT_EQ(recorded.trace.cycles.size(), recorded.cycles);
          for (std::size_t i = 0; i < recorded.trace.cycles.size(); ++i) {
            EXPECT_EQ(recorded.trace.cycles[i].cycle, i);
            EXPECT_FALSE(recorded.trace.cycles[i].registers.empty());
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Plan cache behaviour.

TEST(SimEnginePlanCache, LruCapBoundsResidencyWithoutChangingObservables) {
  const dcf::System sys = make_gcd();
  sim::Environment env = sim::Environment::random_for(sys, 3, 48, 1, 30);
  sim::SimOptions unbounded;
  unbounded.plan_cache_capacity = 0;
  unbounded.record_cycles = true;
  const sim::SimResult full = sim::simulate(sys, env, unbounded);
  ASSERT_GT(full.stats.plan_cache_misses, 2u);
  EXPECT_EQ(full.stats.plan_cache_evictions, 0u);

  env.rewind();
  sim::SimOptions capped = unbounded;
  capped.plan_cache_capacity = 2;
  const sim::SimResult small = sim::simulate(sys, env, capped);
  EXPECT_GT(small.stats.plan_cache_evictions, 0u);
  EXPECT_LE(small.stats.plan_cache_size, 2u);
  expect_identical_results(full, small);
}

// sim.plan_cache.bytes counts a plan's conflict messages with their
// std::string slots, not only their character buffers.
TEST(SimEnginePlanCache, ApproxBytesCountsDriveConflictSlots) {
  const dcf::System sys = multi_driver_design();
  const dcf::PortGraph graph(sys.datapath());
  sim::CompileScratch scratch;
  DynamicBitset marked(sys.control().net().place_count());
  marked.set(0);
  marked.set(1);  // S0 and S1: both drive r.in[0]
  sim::ConfigPlan plan = sim::compile_plan(sys, graph, marked, scratch);
  ASSERT_EQ(plan.drive_conflicts.size(), 1u);

  std::size_t conflict_bytes =
      plan.drive_conflicts.capacity() * sizeof(std::string);
  for (const std::string& conflict : plan.drive_conflicts) {
    conflict_bytes += conflict.capacity();
  }
  const std::size_t with_conflicts = plan.approx_bytes();
  plan.drive_conflicts = std::vector<std::string>();  // releases capacity
  EXPECT_EQ(with_conflicts - plan.approx_bytes(), conflict_bytes);
}

TEST(SimEnginePlanCache, PersistentSimulatorReusesPlans) {
  const dcf::System sys = make_gcd();
  sim::Simulator simulator(sys);
  sim::Environment env = sim::Environment::random_for(sys, 5, 48, 1, 30);
  sim::SimOptions options;
  options.record_cycles = true;
  const sim::SimResult first = simulator.run(env, options);
  EXPECT_GT(first.stats.plan_cache_misses, 0u);
  EXPECT_EQ(first.stats.plan_cache_hits + first.stats.plan_cache_misses,
            first.cycles);

  env.rewind();
  const sim::SimResult second = simulator.run(env, options);
  // Every configuration was compiled by the first run.
  EXPECT_EQ(second.stats.plan_cache_misses, 0u);
  EXPECT_EQ(second.stats.plan_cache_hits, second.cycles);
  expect_identical_results(first, second);
}

// ---------------------------------------------------------------------
// Change propagation: plans skip the steps whose leaves did not change.

TEST(SimEngineSparse, SkipsStepsAndKeepsCacheInvariant) {
  const dcf::System sys = make_gcd();
  sim::Simulator simulator(sys);
  sim::Environment env = sim::Environment::random_for(sys, 9, 48, 1, 30);
  sim::SimOptions options;
  options.record_cycles = true;

  const sim::SimResult first = simulator.run(env, options);
  ASSERT_GT(first.cycles, 4u);
  EXPECT_EQ(first.stats.plan_cache_hits + first.stats.plan_cache_misses,
            first.cycles);
  EXPECT_GT(first.stats.steps_evaluated, 0u);
  // The GCD loop re-enters each configuration with most leaves unchanged
  // — a meaningful fraction of the schedule must be skipped.
  EXPECT_GT(first.stats.steps_skipped, 0u);
  EXPECT_GT(first.stats.activity_factor(), 0.0);
  EXPECT_LE(first.stats.activity_factor(), 1.0);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t count : first.stats.wavefront_hist) {
    bucketed += count;
  }
  EXPECT_GT(bucketed, 0u);

  // A rewound replay re-enters warm plans: hits only, even fewer steps.
  env.rewind();
  const sim::SimResult second = simulator.run(env, options);
  EXPECT_EQ(second.stats.plan_cache_misses, 0u);
  EXPECT_EQ(second.stats.plan_cache_hits, second.cycles);
  EXPECT_GE(second.stats.steps_skipped, first.stats.steps_skipped);
  expect_identical_results(first, second);
}

}  // namespace
}  // namespace camad
