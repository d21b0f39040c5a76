#include <gtest/gtest.h>

#include <numeric>

#include "dcf/builder.h"
#include "fixtures.h"
#include "sim/environment.h"
#include "sim/simulator.h"

namespace camad::sim {
namespace {

using dcf::OpCode;
using dcf::Value;

TEST(Environment, StreamsAdvanceOnConsume) {
  Environment env;
  const dcf::VertexId v(0);
  env.set_stream(v, {10, 20, 30});
  EXPECT_EQ(env.current(v), Value(10));
  EXPECT_EQ(env.current(v), Value(10));  // peek is idempotent
  env.consume(v);
  EXPECT_EQ(env.current(v), Value(20));
  env.consume(v);
  env.consume(v);
  EXPECT_FALSE(env.current(v).defined());
  EXPECT_TRUE(env.exhausted());
  env.rewind();
  EXPECT_EQ(env.current(v), Value(10));
  EXPECT_FALSE(env.exhausted());
}

TEST(Environment, UnsetStreamIsUndefined) {
  Environment env;
  EXPECT_FALSE(env.current(dcf::VertexId(3)).defined());
  EXPECT_TRUE(env.exhausted());
}

TEST(Environment, RandomForSeedsByChannelName) {
  const dcf::System sys = test::make_two_lane();
  Environment a = Environment::random_for(sys, 7, 16);
  Environment b = Environment::random_for(sys, 7, 16);
  Environment c = Environment::random_for(sys, 8, 16);
  const dcf::VertexId x = sys.datapath().find_vertex("x");
  EXPECT_EQ(a.current(x), b.current(x));
  // Different seeds should (overwhelmingly) give different heads somewhere.
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) {
    if (a.current(x) != c.current(x)) any_diff = true;
    a.consume(x);
    c.consume(x);
  }
  EXPECT_TRUE(any_diff);
}

TEST(Simulate, DoublerComputesTwiceInput) {
  const dcf::System sys = test::make_doubler();
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {21});
  const SimResult result = simulate(sys, env);
  EXPECT_TRUE(result.terminated);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.cycles, 3u);

  // Events: x read at S0, y written at S2 with 42.
  const auto events = result.trace.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].value, Value(21));
  EXPECT_EQ(events[1].value, Value(42));
}

TEST(Simulate, TwoLaneProducesBothOutputs) {
  const dcf::System sys = test::make_two_lane();
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {5});
  env.set_stream(sys.datapath().find_vertex("y"), {7});
  const SimResult result = simulate(sys, env);
  EXPECT_TRUE(result.terminated);
  EXPECT_EQ(result.cycles, 5u);

  const dcf::DataPath& dp = sys.datapath();
  std::vector<std::pair<std::string, Value>> io;
  for (const ExternalEvent& e : result.trace.events()) {
    const dcf::VertexId src = dp.arc_source_vertex(e.arc);
    const dcf::VertexId dst = dp.arc_target_vertex(e.arc);
    const dcf::VertexId ext =
        dp.kind(src) != dcf::VertexKind::kInternal ? src : dst;
    io.emplace_back(dp.name(ext), e.value);
  }
  // x=5 -> o1 = 10; y=7 -> o2 = 49.
  ASSERT_EQ(io.size(), 4u);
  EXPECT_EQ(io[2], (std::pair<std::string, Value>{"o1", Value(10)}));
  EXPECT_EQ(io[3], (std::pair<std::string, Value>{"o2", Value(49)}));
}

TEST(Simulate, GcdLoop) {
  const dcf::System sys = test::make_gcd();
  struct Case {
    std::int64_t a, b, g;
  };
  for (const Case c : {Case{12, 8, 4}, Case{35, 14, 7}, Case{9, 9, 9},
                       Case{13, 7, 1}, Case{100, 1, 1}}) {
    Environment env;
    env.set_stream(sys.datapath().find_vertex("a"), {c.a});
    env.set_stream(sys.datapath().find_vertex("b"), {c.b});
    const SimResult result = simulate(sys, env);
    EXPECT_TRUE(result.terminated) << c.a << "," << c.b;
    EXPECT_TRUE(result.violations.empty());
    const auto events = result.trace.events();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.back().value, Value(c.g)) << c.a << "," << c.b;
  }
}

TEST(Simulate, GcdConsumesOneValuePerInput) {
  const dcf::System sys = test::make_gcd();
  Environment env;
  const auto va = sys.datapath().find_vertex("a");
  const auto vb = sys.datapath().find_vertex("b");
  env.set_stream(va, {12, 99});
  env.set_stream(vb, {8, 99});
  simulate(sys, env);
  // Exactly one value consumed per input: each stream now shows its second.
  EXPECT_EQ(env.current(va), Value(99));
  EXPECT_EQ(env.current(vb), Value(99));
}

TEST(Simulate, PoliciesAgreeOnProperDesigns) {
  const dcf::System sys = test::make_gcd();
  auto run = [&](FiringPolicy policy, std::uint64_t seed) {
    Environment env;
    env.set_stream(sys.datapath().find_vertex("a"), {36});
    env.set_stream(sys.datapath().find_vertex("b"), {24});
    SimOptions options;
    options.policy = policy;
    options.seed = seed;
    const SimResult result = simulate(sys, env, options);
    EXPECT_TRUE(result.terminated);
    return result.trace.events().back().value;
  };
  const Value expected = run(FiringPolicy::kMaximalStep, 1);
  EXPECT_EQ(expected, Value(12));
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_EQ(run(FiringPolicy::kRandomOrder, seed), expected);
    EXPECT_EQ(run(FiringPolicy::kSingleRandom, seed), expected);
  }
}

TEST(Simulate, ExhaustedEnvironmentYieldsUndefinedEvent) {
  const dcf::System sys = test::make_doubler();
  Environment env;  // no stream for x at all
  const SimResult result = simulate(sys, env);
  const auto events = result.trace.events();
  ASSERT_FALSE(events.empty());
  EXPECT_FALSE(events[0].value.defined());
  EXPECT_TRUE(env.exhausted());
}

TEST(Simulate, MaxCyclesStopsRunawayLoop) {
  // Loop with no exit: S0 <-> S1 forever.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto r = b.reg("r");
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  b.connect(x, r, 0, {s0});
  b.arc(b.out(r), b.in(r), {s1});
  b.chain(s0, s1);
  b.chain(s1, s0);
  const dcf::System sys = b.build("spin");
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), std::vector<std::int64_t>(
                                                      300, 1));
  SimOptions options;
  options.max_cycles = 50;
  const SimResult result = simulate(sys, env, options);
  EXPECT_FALSE(result.terminated);
  EXPECT_FALSE(result.deadlocked);
  EXPECT_EQ(result.cycles, 50u);
}

TEST(Simulate, GuardStuckIsDeadlock) {
  // Transition guarded by a register that always holds 0.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto r = b.reg("r");
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  b.connect(x, r, 0, {s0});
  const auto t = b.chain(s0, s1);
  b.guard(t, r);
  b.arc(b.out(r), b.in(r), {s1});
  const dcf::System sys = b.build("stuck");
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {0});
  const SimResult result = simulate(sys, env);
  EXPECT_FALSE(result.terminated);
  EXPECT_TRUE(result.deadlocked);
  EXPECT_LT(result.cycles, 10u);
}

TEST(Simulate, DriveConflictReported) {
  // Two arcs into one register input active in the same state.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto r = b.reg("r");
  const auto s0 = b.state("S0", true);
  b.connect(x, r, 0, {s0});
  b.arc(b.out(y), b.in(r), {s0});
  const auto t = b.transition("T");
  b.flow(s0, t);
  const dcf::System sys = b.build("conflict");
  Environment env = Environment::random_for(sys, 1, 4);
  const SimResult result = simulate(sys, env);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_NE(result.violations[0].find("driven by 2"), std::string::npos);
}

TEST(Simulate, FinalRegistersExposeLatchedState) {
  const dcf::System sys = test::make_doubler();
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {21});
  const SimResult result = simulate(sys, env);
  const dcf::VertexId r2 = sys.datapath().find_vertex("r2");
  EXPECT_EQ(result.final_registers[r2.index()], Value(42));
}

TEST(Trace, ToStringMentionsStatesAndValues) {
  const dcf::System sys = test::make_doubler();
  Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {21});
  SimOptions options;
  options.record_cycles = true;  // to_string prints per-cycle records
  const SimResult result = simulate(sys, env, options);
  const std::string text = result.trace.to_string(sys);
  EXPECT_NE(text.find("S0"), std::string::npos);
  EXPECT_NE(text.find("y=42"), std::string::npos);
}

}  // namespace
}  // namespace camad::sim
