// Tests for critical-path analysis and VCD waveform export.
#include <gtest/gtest.h>

#include <limits>
#include <optional>

#include "fixtures.h"
#include "graph/algorithms.h"
#include "graph/digraph.h"
#include "semantics/analysis.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "synth/compile.h"
#include "synth/cost.h"
#include "synth/critpath.h"
#include "synth/designs.h"
#include "synth/optimizer.h"
#include "transform/merge.h"
#include "util/error.h"
#include "workloads.h"

namespace camad {
namespace {

// ---------------------------------------------------------------------
// State-delay oracle: the direct per-state computation — a Digraph over
// every port per state, then graph::longest_path — which the shared
// port-graph kernel behind estimate_cycle_time and state_delays
// (synth::state_path_delays) must match exactly.

/// Longest path of state `s`'s active subgraph in hundredths of a ns;
/// throws ModelError (from graph::longest_path) on an active loop.
std::int64_t oracle_state_best(const dcf::System& system,
                               const synth::ModuleLibrary& lib,
                               petri::PlaceId s) {
  const dcf::DataPath& dp = system.datapath();
  const double scale = 100.0;
  graph::Digraph g(dp.port_count());
  std::vector<std::int64_t> weight(dp.port_count(), 0);
  std::vector<bool> active_vertex(dp.vertex_count(), false);
  for (dcf::ArcId a : system.control().controlled_arcs(s)) {
    g.add_edge(graph::NodeId(dp.arc_source(a).value()),
               graph::NodeId(dp.arc_target(a).value()));
    active_vertex[dp.arc_source_vertex(a).index()] = true;
    active_vertex[dp.arc_target_vertex(a).index()] = true;
  }
  for (dcf::VertexId v : dp.vertices()) {
    if (!active_vertex[v.index()]) continue;
    for (dcf::PortId o : dp.output_ports(v)) {
      const dcf::Operation& op = dp.operation(o);
      weight[o.index()] =
          static_cast<std::int64_t>(lib.module_for(op.code).delay * scale);
      if (dcf::op_is_sequential(op.code)) continue;
      const int arity = dcf::op_arity(op.code);
      const auto& ins = dp.input_ports(v);
      for (int k = 0; k < arity; ++k) {
        g.add_edge(graph::NodeId(ins[static_cast<std::size_t>(k)].value()),
                   graph::NodeId(o.value()));
      }
    }
    for (dcf::PortId in : dp.input_ports(v)) {
      if (dp.arcs_into(in).size() > 1) {
        weight[in.index()] =
            static_cast<std::int64_t>(lib.mux_delay() * scale);
      }
    }
  }
  return graph::longest_path(g, weight).best;
}

synth::TimingReport oracle_cycle_time(const dcf::System& system,
                                      const synth::ModuleLibrary& lib) {
  synth::TimingReport report;
  for (petri::PlaceId s : system.control().net().places()) {
    std::int64_t best;
    try {
      best = oracle_state_best(system, lib, s);
    } catch (const ModelError&) {
      best = std::numeric_limits<std::int64_t>::max() / 2;
    }
    const double path_ns = static_cast<double>(best) / 100.0;
    if (path_ns > report.cycle_time) {
      report.cycle_time = path_ns;
      report.critical_state = s;
    }
  }
  return report;
}

std::vector<double> oracle_state_delays(const dcf::System& system,
                                        const synth::ModuleLibrary& lib) {
  std::vector<double> delays(system.control().net().place_count(), 0);
  for (petri::PlaceId s : system.control().net().places()) {
    try {
      delays[s.index()] =
          static_cast<double>(oracle_state_best(system, lib, s)) / 100.0;
    } catch (const ModelError&) {
      delays[s.index()] = 1e9;
    }
  }
  return delays;
}

/// Exact (bit-for-bit) agreement of both callers with the oracle.
void expect_matches_oracle(const dcf::System& system,
                           const synth::ModuleLibrary& lib) {
  const synth::TimingReport timing = synth::estimate_cycle_time(system, lib);
  const synth::TimingReport oracle = oracle_cycle_time(system, lib);
  EXPECT_EQ(timing.cycle_time, oracle.cycle_time);
  EXPECT_EQ(timing.critical_state, oracle.critical_state);
  EXPECT_EQ(synth::state_delays(system, lib), oracle_state_delays(system, lib));
}

TEST(StateDelays, MatchDigraphOracleOnDesignsAndSchedules) {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  std::vector<bench::BenchDesign> designs;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    designs.push_back(
        {std::string(d.name), synth::compile_source(std::string(d.source))});
  }
  for (bench::BenchDesign& d : bench::bench_designs()) {
    if (d.name == "guarded_branch") designs.push_back(std::move(d));
  }
  ASSERT_EQ(designs.size(), synth::all_designs().size() + 1);
  for (const bench::BenchDesign& d : designs) {
    SCOPED_TRACE(d.name);
    expect_matches_oracle(d.system, lib);
    const semantics::AnalysisCache cache(d.system);
    const dcf::System derived = synth::derive_schedule(d.system);
    expect_matches_oracle(derived, lib);
    expect_matches_oracle(synth::derive_schedule(d.system, cache), lib);
    // Shared units: an active unit's output also feeds arcs of other
    // states, which the per-state subgraph must leave closed. (merge_all
    // takes seconds on guarded_branch's ~1000 vertices; the corpus
    // designs cover merging.)
    if (d.name == "guarded_branch") continue;
    expect_matches_oracle(transform::merge_all(d.system), lib);
    expect_matches_oracle(transform::merge_all(derived), lib);
  }
}

TEST(StateDelays, MatchDigraphOracleOnRandomPrograms) {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  bench::RandomProgramOptions options;
  options.variables = 5;
  options.branches = 2;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dcf::System sys =
        synth::compile_source(bench::random_program(seed, options));
    expect_matches_oracle(sys, lib);
    expect_matches_oracle(synth::derive_schedule(sys), lib);
    expect_matches_oracle(transform::merge_all(sys), lib);
  }
}

TEST(StateDelays, ActiveLoopHitsEachCallersSentinel) {
  const dcf::System sys = test::make_comb_loop();
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const petri::PlaceId loop = petri::PlaceId(1);
  ASSERT_EQ(sys.control().net().name(loop), "Sloop");

  const synth::TimingReport timing = synth::estimate_cycle_time(sys, lib);
  EXPECT_EQ(timing.cycle_time,
            static_cast<double>(std::numeric_limits<std::int64_t>::max() / 2) /
                100.0);
  EXPECT_EQ(timing.critical_state, loop);

  const std::vector<double> delays = synth::state_delays(sys, lib);
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_EQ(delays[loop.index()], 1e9);
  EXPECT_LT(delays[0], 1e9);
  EXPECT_LT(delays[2], 1e9);
  expect_matches_oracle(sys, lib);
}

TEST(CritPath, StraightLineSumsStateDelays) {
  const dcf::System sys = synth::compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x * x; end }");
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const auto delays = synth::state_delays(sys, lib);
  ASSERT_EQ(delays.size(), 2u);

  const synth::CriticalPathResult path = synth::critical_path(sys, lib);
  ASSERT_EQ(path.states.size(), 2u);
  EXPECT_NEAR(path.total_delay_ns, delays[0] + delays[1], 1e-9);
  EXPECT_NEAR(path.state_delay_ns[0], delays[0], 1e-9);
}

TEST(CritPath, LoopWeightedByTripCount) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::gcd_source()));
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();

  synth::CriticalPathOptions one;
  one.loop_trip_count = 1.0;
  synth::CriticalPathOptions ten;
  ten.loop_trip_count = 10.0;
  const double d1 = synth::critical_path(sys, lib, one).total_delay_ns;
  const double d10 = synth::critical_path(sys, lib, ten).total_delay_ns;
  EXPECT_GT(d10, d1 * 2);  // the loop dominates gcd
}

TEST(CritPath, ToStringNamesStates) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::gcd_source()));
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const std::string text = synth::critical_path(sys, lib).to_string(sys);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("->"), std::string::npos);
}

TEST(Vcd, EmitsHeaderSignalsAndChanges) {
  const dcf::System sys = synth::compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x; end }");
  sim::Environment env;
  env.set_stream(sys.datapath().find_vertex("a"), {41});
  sim::SimOptions options;
  options.record_cycles = true;
  const sim::SimResult result = sim::simulate(sys, env, options);

  const std::string vcd = sim::to_vcd(sys, result);
  EXPECT_NE(vcd.find("$timescale 1 ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 64"), std::string::npos);  // register x
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);   // control states
  EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
  EXPECT_NE(vcd.find("#0"), std::string::npos);
  // 42 = 0b101010.
  EXPECT_NE(vcd.find("b101010 "), std::string::npos);
}

TEST(Vcd, RequiresRegisterRecords) {
  const dcf::System sys = synth::compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x; end }");
  sim::Environment env;
  env.set_stream(sys.datapath().find_vertex("a"), {41});
  const sim::SimResult result = sim::simulate(sys, env);  // no registers
  EXPECT_THROW(sim::to_vcd(sys, result), SimulationError);
}

// A run with cycles but no external events still lacks its register
// records when simulated under default options.
TEST(Vcd, RequiresRegisterRecordsWithoutEvents) {
  const dcf::System sys = synth::compile_source(
      "design t { var x; begin x := 1; x := x + 1; end }");
  sim::Environment env;
  const sim::SimResult result = sim::simulate(sys, env);  // no registers
  ASSERT_GT(result.cycles, 0u);
  ASSERT_TRUE(result.trace.events().empty());
  EXPECT_THROW(sim::to_vcd(sys, result), SimulationError);
}

// A zero-cycle run needs no records, so its waveform is the header
// alone, not a missing-registers error.
TEST(Vcd, ZeroCycleRunWritesHeaderOnly) {
  const dcf::System sys = synth::compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x; end }");
  sim::Environment env;
  sim::SimOptions options;
  options.max_cycles = 0;
  options.record_cycles = true;
  const sim::SimResult result = sim::simulate(sys, env, options);
  ASSERT_EQ(result.cycles, 0u);
  const std::string vcd = sim::to_vcd(sys, result);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_EQ(vcd.find("\n#"), std::string::npos);  // no timestamp
}

TEST(Vcd, TokenFlowVisibleAsStateBits) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::gcd_source()));
  sim::Environment env;
  env.set_stream(sys.datapath().find_vertex("a"), {12});
  env.set_stream(sys.datapath().find_vertex("b"), {8});
  sim::SimOptions options;
  options.record_cycles = true;
  const sim::SimResult result = sim::simulate(sys, env, options);
  const std::string vcd = sim::to_vcd(sys, result);
  // Every cycle emits a timestamp; count them.
  std::size_t stamps = 0;
  for (std::size_t pos = vcd.find("\n#"); pos != std::string::npos;
       pos = vcd.find("\n#", pos + 1)) {
    ++stamps;
  }
  EXPECT_GE(stamps, result.cycles);
}

}  // namespace
}  // namespace camad
