// Tests for net classification, control-net cleanup, and scheduling
// bound analysis.
#include <gtest/gtest.h>

#include "petri/classify.h"
#include "semantics/equivalence.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/schedule.h"
#include "transform/cleanup.h"
#include "transform/parallelize.h"

namespace camad {
namespace {

using petri::Net;
using petri::PlaceId;
using petri::TransitionId;

TEST(Classify, RingIsEverything) {
  // Closed two-place ring: the strict marked-graph definition needs
  // exactly one producer and consumer per place, so open chains with
  // boundary places do not qualify.
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const TransitionId t0 = net.add_transition();
  const TransitionId t1 = net.add_transition();
  net.connect(p0, t0);
  net.connect(t0, p1);
  net.connect(p1, t1);
  net.connect(t1, p0);
  const petri::NetClass cls = petri::classify(net);
  EXPECT_TRUE(cls.state_machine);
  EXPECT_TRUE(cls.marked_graph);
  EXPECT_TRUE(cls.free_choice);
  EXPECT_NE(cls.to_string().find("state-machine"), std::string::npos);
}

TEST(Classify, OpenChainIsNotAMarkedGraph) {
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const TransitionId t = net.add_transition();
  net.connect(p0, t);
  net.connect(t, p1);
  EXPECT_FALSE(petri::is_marked_graph(net));
  EXPECT_TRUE(petri::is_state_machine(net));
}

TEST(Classify, ForkJoinRingIsMarkedGraphNotStateMachine) {
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const PlaceId p2 = net.add_place();
  const TransitionId fork = net.add_transition();
  const TransitionId join = net.add_transition();
  net.connect(p0, fork);
  net.connect(fork, p1);
  net.connect(fork, p2);
  net.connect(p1, join);
  net.connect(p2, join);
  net.connect(join, p0);  // closed
  const petri::NetClass cls = petri::classify(net);
  EXPECT_FALSE(cls.state_machine);
  EXPECT_TRUE(cls.marked_graph);
  EXPECT_TRUE(cls.free_choice);
}

TEST(Classify, BranchIsStateMachineNotMarkedGraph) {
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const PlaceId p2 = net.add_place();
  const TransitionId ta = net.add_transition();
  const TransitionId tb = net.add_transition();
  net.connect(p0, ta);
  net.connect(ta, p1);
  net.connect(p0, tb);
  net.connect(tb, p2);
  const petri::NetClass cls = petri::classify(net);
  EXPECT_TRUE(cls.state_machine);
  EXPECT_FALSE(cls.marked_graph);
  EXPECT_TRUE(cls.free_choice);  // conflicts have singleton pre-sets
}

TEST(Classify, NonFreeChoice) {
  // p0 and p1 both feed t1, p0 also feeds t0 alone: the conflict at p0
  // is not free (t1 has a second input).
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const PlaceId q = net.add_place();
  const TransitionId t0 = net.add_transition();
  const TransitionId t1 = net.add_transition();
  net.connect(p0, t0);
  net.connect(t0, q);
  net.connect(p0, t1);
  net.connect(p1, t1);
  net.connect(t1, q);
  const petri::NetClass cls = petri::classify(net);
  EXPECT_FALSE(cls.free_choice);
  EXPECT_FALSE(cls.extended_free_choice);
  EXPECT_EQ(cls.to_string(), "general");
}

TEST(Classify, WeightedArcCountsOnce) {
  // Assembly-PT-04's shape: parts -2-> assemble and recycle -2-> parts.
  // By distinct arcs every place has one producer and one consumer.
  Net net;
  const PlaceId parts = net.add_place();
  const PlaceId machine = net.add_place();
  const PlaceId widgets = net.add_place();
  const TransitionId assemble = net.add_transition();
  const TransitionId recycle = net.add_transition();
  net.connect(parts, assemble, 2);
  net.connect(machine, assemble);
  net.connect(assemble, machine);
  net.connect(assemble, widgets);
  net.connect(widgets, recycle);
  net.connect(recycle, parts, 2);
  const petri::NetClass cls = petri::classify(net);
  EXPECT_FALSE(cls.state_machine);  // assemble has two input places
  EXPECT_TRUE(cls.marked_graph);
  EXPECT_TRUE(cls.free_choice);
  EXPECT_EQ(cls.to_string(), "marked-graph, free-choice");
}

TEST(Classify, CompiledDesignsAreFreeChoice) {
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    EXPECT_TRUE(petri::is_free_choice(sys.control().net())) << d.name;
  }
}

TEST(Cleanup, RemovesEmptyElseNopState) {
  // `if` without else compiles a Tskip transition; an empty else block
  // would compile a control-only Snop state — build one via the builder
  // path: use a par branch collector instead.
  const char* source = R"(design c {
    in a; out o; var x, y;
    begin
      x := a;
      if x > 2 { y := x; } else { y := 0 - x; }
      par {
        branch { x := x + 1; o := x; }
        branch { y := y + 1; }
      }
    end
  })";
  const dcf::System sys = synth::compile_source(source);
  transform::CleanupStats stats;
  const dcf::System cleaned = transform::cleanup_control(sys, &stats);
  EXPECT_GE(stats.states_removed, 1u);  // the par entry place at least
  EXPECT_LT(cleaned.control().net().place_count(),
            sys.control().net().place_count());

  semantics::DifferentialOptions diff;
  diff.environments = 4;
  const auto verdict = semantics::differential_equivalence(sys, cleaned,
                                                           diff);
  EXPECT_TRUE(verdict.holds) << verdict.why;
}

TEST(Cleanup, ReducesCycleCount) {
  const char* source = R"(design c {
    in a; out o; var x;
    begin
      x := a;
      par {
        branch { x := x + 1; }
      }
      o := x;
    end
  })";
  const dcf::System sys = synth::compile_source(source);
  const dcf::System cleaned = transform::cleanup_control(sys);
  auto cycles = [](const dcf::System& s) {
    sim::Environment env = sim::Environment::random_for(s, 1, 8);
    return sim::simulate(s, env).cycles;
  };
  EXPECT_LT(cycles(cleaned), cycles(sys));
}

TEST(Cleanup, AllDesignsStayEquivalent) {
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    const dcf::System cleaned = transform::cleanup_control(sys);
    semantics::DifferentialOptions diff;
    diff.environments = 3;
    diff.value_lo = 1;
    diff.value_hi = 20;
    const auto verdict =
        semantics::differential_equivalence(sys, cleaned, diff);
    EXPECT_TRUE(verdict.holds) << d.name << ": " << verdict.why;
  }
}

TEST(Schedule, AsapMatchesParallelizeOnTwoLane) {
  const char* source = R"(design two {
    in a, b; out o1, o2; var w, x, y, z;
    begin
      w := a;
      x := b;
      y := w + 1;
      z := x * 2;
      o1 := y;
      o2 := z;
    end
  })";
  const dcf::System sys = synth::compile_source(source);
  const synth::ScheduleAnalysis analysis = synth::analyze_schedules(sys);
  ASSERT_FALSE(analysis.segments.empty());
  EXPECT_LT(analysis.asap_total, analysis.serial_total);
  EXPECT_EQ(analysis.list_total, analysis.asap_total);  // empty budget

  // ASAP levels must respect the dependence DAG.
  for (const synth::SegmentSchedule& seg : analysis.segments) {
    for (std::size_t i = 0; i < seg.states.size(); ++i) {
      EXPECT_LE(seg.asap[i], seg.alap[i]);
      EXPECT_EQ(seg.slack[i], seg.alap[i] - seg.asap[i]);
      EXPECT_LT(seg.asap[i], seg.asap_length);
    }
  }
}

TEST(Schedule, BudgetStretchesSchedule) {
  // Four independent multiplications; with one multiplier they take four
  // steps, unconstrained they take one.
  const char* source = R"(design muls {
    in a; out o; var p, q, r, s, t0;
    begin
      t0 := a;
      p := t0 * 2;
      q := t0 * 3;
      r := t0 * 5;
      s := t0 * 7;
      o := p + q + r + s;
    end
  })";
  const dcf::System sys = synth::compile_source(source);

  synth::ScheduleOptions unlimited;
  const auto free = synth::analyze_schedules(sys, unlimited);

  synth::ScheduleOptions constrained;
  constrained.budget[dcf::OpCode::kMul] = 1;
  const auto tight = synth::analyze_schedules(sys, constrained);

  EXPECT_GT(tight.list_total, free.list_total);
  EXPECT_GE(tight.list_total, free.asap_total + 3);  // 4 muls serialized
}

TEST(Schedule, ToStringMentionsBounds) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::diffeq_source()));
  const auto analysis = synth::analyze_schedules(sys);
  const std::string text = analysis.to_string(sys);
  EXPECT_NE(text.find("serial"), std::string::npos);
  EXPECT_NE(text.find("asap"), std::string::npos);
}

}  // namespace
}  // namespace camad
