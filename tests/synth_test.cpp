#include <gtest/gtest.h>

#include "dcf/check.h"
#include "transform/merge.h"
#include "util/error.h"
#include "semantics/equivalence.h"
#include "synth/compile.h"
#include "synth/cost.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/netlist.h"
#include "synth/optimizer.h"
#include "synth/synthesis.h"

namespace camad::synth {
namespace {

TEST(Library, StandardRelativeMagnitudes) {
  const ModuleLibrary lib = ModuleLibrary::standard();
  EXPECT_GT(lib.module_for(dcf::OpCode::kMul).area,
            5 * lib.module_for(dcf::OpCode::kAdd).area);
  EXPECT_GT(lib.module_for(dcf::OpCode::kMul).delay,
            lib.module_for(dcf::OpCode::kAdd).delay);
  EXPECT_GT(lib.module_for(dcf::OpCode::kAdd).area,
            lib.module_for(dcf::OpCode::kEq).area);
  EXPECT_EQ(lib.mux_area(1), 0);
  EXPECT_GT(lib.mux_area(3), lib.mux_area(2));
}

TEST(Library, Overrides) {
  ModuleLibrary lib = ModuleLibrary::standard();
  lib.set_module(dcf::OpCode::kAdd, {999, 1});
  EXPECT_EQ(lib.module_for(dcf::OpCode::kAdd).area, 999);
  lib.set_mux(10, 5);
  EXPECT_EQ(lib.mux_area(3), 20);
  EXPECT_EQ(lib.mux_delay(), 5);
}

TEST(Cost, AreaBreakdownCountsEveryPiece) {
  const dcf::System sys = compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x * 2; end }");
  const ModuleLibrary lib = ModuleLibrary::standard();
  const AreaReport area = estimate_area(sys, lib);
  // add + mul + flagless design: 120 + 1400 FU area.
  EXPECT_EQ(area.functional_units,
            lib.module_for(dcf::OpCode::kAdd).area +
                lib.module_for(dcf::OpCode::kMul).area);
  EXPECT_EQ(area.registers, lib.module_for(dcf::OpCode::kReg).area);
  EXPECT_EQ(area.constants, 2 * lib.module_for(dcf::OpCode::kConst).area);
  EXPECT_EQ(area.steering, 0);  // no shared input ports
  EXPECT_GT(area.total(), 0);
}

TEST(Cost, SteeringAppearsAfterMerge) {
  // Two adders in sequence share operand sources after merge_all.
  const char* source = R"(design t {
    in a; out o; var x, y;
    begin
      x := a + 1;
      y := x + 2;
      o := y;
    end
  })";
  const dcf::System serial = compile_source(source);
  std::size_t merges = 0;
  const dcf::System merged = transform::merge_all(serial, &merges);
  EXPECT_GE(merges, 1u);
  const ModuleLibrary lib = ModuleLibrary::standard();
  EXPECT_EQ(estimate_area(serial, lib).steering, 0);
  EXPECT_GT(estimate_area(merged, lib).steering, 0);
  EXPECT_LT(estimate_area(merged, lib).total(),
            estimate_area(serial, lib).total());
}

TEST(Cost, CycleTimeTracksSlowestState) {
  const ModuleLibrary lib = ModuleLibrary::standard();
  // x := a + 1 (add: 18ns + reg 3) vs o := x * 2 (mul 60 + reg-to-out).
  const dcf::System sys = compile_source(
      "design t { in a; out o; var x; begin x := a + 1; o := x * x; end }");
  const TimingReport timing = estimate_cycle_time(sys, lib);
  // The multiply state dominates: reg clk-to-q + mul.
  EXPECT_NEAR(timing.cycle_time,
              lib.module_for(dcf::OpCode::kReg).delay +
                  lib.module_for(dcf::OpCode::kMul).delay,
              1e-9);
}

TEST(Cost, ChainedOpsAddDelays) {
  const ModuleLibrary lib = ModuleLibrary::standard();
  const dcf::System sys = compile_source(
      "design t { in a; out o; var x; begin x := (a + 1) + (a + 2); o := x; "
      "end }");
  const TimingReport timing = estimate_cycle_time(sys, lib);
  // Two adds chained in one state: >= 2 * add delay.
  EXPECT_GE(timing.cycle_time, 2 * lib.module_for(dcf::OpCode::kAdd).delay);
}

TEST(Cost, MeasurePerformanceTerminatesAndAverages) {
  const dcf::System sys = compile_source(std::string(gcd_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  MeasureOptions options;
  options.environments = 3;
  const PerformanceReport perf = measure_performance(sys, lib, options);
  EXPECT_TRUE(perf.all_terminated);
  EXPECT_GT(perf.mean_cycles, 3);
  EXPECT_GT(perf.cycle_time, 0);
  EXPECT_GT(perf.mean_time_ns(), perf.mean_cycles);  // cycle_time > 1ns
  EXPECT_GE(static_cast<double>(perf.max_cycles), perf.mean_cycles);
}

TEST(Optimizer, AreaWeightOneMinimizesArea) {
  const dcf::System serial = compile_source(std::string(diffeq_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  OptimizerOptions options;
  options.area_weight = 1.0;  // care only about area
  options.measure.environments = 2;
  options.measure.value_hi = 20;  // keep loop iteration counts small
  const OptimizerResult result = optimize(serial, lib, options);
  EXPECT_GT(result.merges_applied, 0u);
  EXPECT_LT(result.final.area, result.initial.area);
  // The merged design must still work.
  const auto verdict = semantics::differential_equivalence(
      serial, result.best, {.environments = 2, .value_hi = 20, .sim = {}});
  EXPECT_TRUE(verdict.holds) << verdict.why;
}

TEST(Optimizer, DelayWeightZeroKeepsSpeed) {
  const dcf::System serial = compile_source(std::string(diffeq_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  OptimizerOptions fast;
  fast.area_weight = 0.0;  // care only about time
  fast.measure.environments = 2;
  fast.measure.value_hi = 20;
  const OptimizerResult speed = optimize(serial, lib, fast);

  OptimizerOptions small;
  small.area_weight = 1.0;
  small.measure.environments = 2;
  small.measure.value_hi = 20;
  const OptimizerResult area = optimize(serial, lib, small);

  EXPECT_LE(speed.final.time_ns, area.final.time_ns);
  EXPECT_LE(area.final.area, speed.final.area);
}

TEST(Optimizer, StepsAreRecorded) {
  const dcf::System serial = compile_source(std::string(gcd_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  OptimizerOptions options;
  options.area_weight = 1.0;
  options.measure.environments = 2;
  const OptimizerResult result = optimize(serial, lib, options);
  ASSERT_FALSE(result.steps.empty());
  EXPECT_NE(result.steps[0].description.find("initial"), std::string::npos);
  // One step per merger, plus the initial point and any accepted
  // post-passes (register sharing / chaining).
  EXPECT_GE(result.steps.size(), result.merges_applied + 1);
  EXPECT_LE(result.steps.size(), result.merges_applied + 3);
}

TEST(Optimizer, VerifiedStepsPassOnSoundTransformations) {
  const dcf::System serial = compile_source(std::string(gcd_source()));
  OptimizerOptions options;
  options.area_weight = 1.0;
  options.measure.environments = 2;
  options.verify_steps = true;  // differential check after every step
  EXPECT_NO_THROW(optimize(serial, ModuleLibrary::standard(), options));
}

TEST(Netlist, EmissionIsDeterministic) {
  const dcf::System sys = compile_source(std::string(diffeq_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  EXPECT_EQ(emit_netlist(sys, lib), emit_netlist(sys, lib));
}

TEST(Netlist, MentionsAllStructuralPieces) {
  const dcf::System sys = compile_source(std::string(gcd_source()));
  const ModuleLibrary lib = ModuleLibrary::standard();
  const std::string netlist = emit_netlist(sys, lib);
  EXPECT_NE(netlist.find("module gcd"), std::string::npos);
  EXPECT_NE(netlist.find("input  a;"), std::string::npos);
  EXPECT_NE(netlist.find("output g;"), std::string::npos);
  EXPECT_NE(netlist.find("reg x;"), std::string::npos);
  EXPECT_NE(netlist.find("unit "), std::string::npos);
  EXPECT_NE(netlist.find("state "), std::string::npos);
  EXPECT_NE(netlist.find("[initial]"), std::string::npos);
  EXPECT_NE(netlist.find("when "), std::string::npos);  // guarded trans
  EXPECT_NE(netlist.find("// area"), std::string::npos);
  EXPECT_NE(netlist.find("endmodule"), std::string::npos);
}

TEST(Netlist, MuxesAppearForSharedPorts) {
  const dcf::System serial = compile_source(
      "design t { in a; out o; var x, y; begin x := a + 1; y := x + 2; o := "
      "y; end }");
  const dcf::System merged = transform::merge_all(serial);
  const std::string netlist =
      emit_netlist(merged, ModuleLibrary::standard());
  EXPECT_NE(netlist.find("mux"), std::string::npos);
}

TEST(Synthesize, EndToEndGcd) {
  SynthesisOptions options;
  options.optimizer.area_weight = 0.5;
  options.optimizer.measure.environments = 2;
  const SynthesisResult result =
      synthesize(std::string(gcd_source()), options);
  EXPECT_EQ(result.program.name, "gcd");
  EXPECT_GT(result.compile_stats.states, 4u);
  EXPECT_FALSE(result.netlist.empty());
  EXPECT_NE(result.report.find("synthesis of 'gcd'"), std::string::npos);
  // Verified by construction (verify_result defaults to true).
  const dcf::CheckReport report = dcf::check_properly_designed(result.optimized);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Synthesize, EndToEndAllDesigns) {
  for (const NamedDesign& d : all_designs()) {
    SynthesisOptions options;
    options.optimizer.area_weight = 0.7;
    options.optimizer.measure.environments = 2;
    options.optimizer.measure.value_hi = 20;
    options.optimizer.max_steps = 8;  // keep CI time bounded
    EXPECT_NO_THROW({
      const SynthesisResult result = synthesize(std::string(d.source), options);
      EXPECT_FALSE(result.netlist.empty()) << d.name;
    }) << d.name;
  }
}

TEST(Synthesize, ParserErrorsPropagate) {
  EXPECT_THROW(synthesize("design broken {"), camad::ParseError);
}

}  // namespace
}  // namespace camad::synth
