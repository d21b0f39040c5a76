#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dcf/builder.h"
#include "fixtures.h"
#include "semantics/dependence.h"
#include "semantics/equivalence.h"
#include "semantics/events.h"
#include "synth/compile.h"
#include "synth/optimizer.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "sim/simulator.h"
#include "util/bitset.h"
#include "workloads.h"

namespace camad::semantics {
namespace {

using dcf::Value;
using petri::PlaceId;

PlaceId state_by_name(const dcf::System& sys, const std::string& name) {
  for (PlaceId p : sys.control().net().places()) {
    if (sys.control().net().name(p) == name) return p;
  }
  ADD_FAILURE() << "no state " << name;
  return PlaceId();
}

EventStructure run_and_extract(const dcf::System& sys, std::uint64_t seed) {
  sim::Environment env = sim::Environment::random_for(sys, seed, 32);
  const sim::SimResult result = sim::simulate(sys, env);
  return EventStructure::extract(sys, result.trace);
}

TEST(EventStructure, DoublerEventsAndOrder) {
  const dcf::System sys = test::make_doubler();
  sim::Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {21});
  const sim::SimResult result = sim::simulate(sys, env);
  const EventStructure s = EventStructure::extract(sys, result.trace);

  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].channel, "x");
  EXPECT_EQ(s.events()[0].occurrence, 0u);
  EXPECT_EQ(s.events()[1].channel, "y");
  EXPECT_EQ(s.events()[1].value, Value(42));
  // x read at S0 precedes y written at S2 (S0 => S2).
  EXPECT_TRUE(s.precedes(0, 1));
  EXPECT_FALSE(s.precedes(1, 0));
  EXPECT_FALSE(s.concurrent(0, 1));
  EXPECT_EQ(s.channels(), (std::vector<std::string>{"x", "y"}));
}

TEST(EventStructure, SameStateEventsAreConcurrent) {
  const dcf::System sys = test::make_two_lane();
  sim::Environment env;
  env.set_stream(sys.datapath().find_vertex("x"), {1});
  env.set_stream(sys.datapath().find_vertex("y"), {2});
  const sim::SimResult result = sim::simulate(sys, env);
  const EventStructure s = EventStructure::extract(sys, result.trace);
  // Events 0 and 1 are the S0 reads of x and y: same state, same cycle.
  ASSERT_GE(s.size(), 2u);
  EXPECT_TRUE(s.concurrent(0, 1));
  EXPECT_FALSE(s.precedes(0, 1));
}

TEST(EventStructure, EquivalentToItself) {
  const dcf::System sys = test::make_gcd();
  const EventStructure a = run_and_extract(sys, 3);
  const EventStructure b = run_and_extract(sys, 3);
  std::string why;
  EXPECT_TRUE(a.equivalent(b, &why)) << why;
}

TEST(EventStructure, DetectsValueDifference) {
  const dcf::System sys = test::make_gcd();
  const EventStructure a = run_and_extract(sys, 3);
  const EventStructure b = run_and_extract(sys, 4);
  std::string why;
  EXPECT_FALSE(a.equivalent(b, &why));
  EXPECT_FALSE(why.empty());
}

TEST(EventStructure, ToStringDescribes) {
  const dcf::System sys = test::make_doubler();
  const EventStructure s = run_and_extract(sys, 1);
  const std::string text = s.to_string();
  EXPECT_NE(text.find("x[0]"), std::string::npos);
  EXPECT_NE(text.find("precedent pairs"), std::string::npos);
}

TEST(Dependence, TwoLaneClauses) {
  const dcf::System sys = test::make_two_lane();
  const DependenceRelation dep(sys);
  const PlaceId s0 = state_by_name(sys, "S0");
  const PlaceId s1 = state_by_name(sys, "S1");
  const PlaceId s2 = state_by_name(sys, "S2");
  const PlaceId s3 = state_by_name(sys, "S3");
  const PlaceId s4 = state_by_name(sys, "S4");

  EXPECT_TRUE(dep.direct(s0, s1));   // r1 written by S0, read by S1
  EXPECT_TRUE(dep.direct(s0, s2));   // r2
  EXPECT_TRUE(dep.direct(s1, s3));   // r3
  EXPECT_TRUE(dep.direct(s2, s4));   // r4
  EXPECT_FALSE(dep.direct(s1, s2));  // independent lanes
  EXPECT_FALSE(dep.direct(s1, s4));
  EXPECT_FALSE(dep.direct(s2, s3));
  EXPECT_TRUE(dep.direct(s3, s4));   // clause (e): both external
  EXPECT_TRUE(dep.direct(s0, s3));   // clause (e) again
  // Symmetry.
  EXPECT_TRUE(dep.direct(s1, s0));
}

TEST(Dependence, TransitiveClosureMergesComponents) {
  const dcf::System sys = test::make_two_lane();
  const DependenceRelation dep(sys);
  const PlaceId s1 = state_by_name(sys, "S1");
  const PlaceId s2 = state_by_name(sys, "S2");
  // Not directly dependent, but connected through S0 (and the external
  // clique): the literal Def 4.4 closure relates them.
  EXPECT_FALSE(dep.direct(s1, s2));
  EXPECT_TRUE(dep.transitive(s1, s2));
  EXPECT_FALSE(dep.transitive(s1, s1));
}

TEST(Dependence, ClauseToggles) {
  const dcf::System sys = test::make_two_lane();
  DependenceOptions options;
  options.clause_e = false;
  const DependenceRelation dep(sys, options);
  const PlaceId s3 = state_by_name(sys, "S3");
  const PlaceId s4 = state_by_name(sys, "S4");
  // Without clause (e) the two output states are unrelated.
  EXPECT_FALSE(dep.direct(s3, s4));
}

TEST(Dependence, ControlDependenceThroughGuards) {
  const dcf::System sys = test::make_gcd();
  const PlaceId s_test = state_by_name(sys, "Stest");
  const PlaceId s_sub_a = state_by_name(sys, "SsubA");
  const PlaceId s_load = state_by_name(sys, "Sload");

  DependenceOptions only_d;
  only_d.clause_a = only_d.clause_b = only_d.clause_c = only_d.clause_e =
      false;
  const DependenceRelation dep(sys, only_d);
  // The guards of Stest's outgoing transitions read cmp ports whose
  // sequential support is {ra, rb} ⊆ R(Sload) ∪ R(SsubA)...
  EXPECT_TRUE(dep.direct(s_test, s_load));
  EXPECT_TRUE(dep.direct(s_test, s_sub_a));
}

// --- dependence and rule-1 oracles ---------------------------------------
//
// DependenceRelation builds R(S) and dom(S) as bitsets straight from the
// controlled arcs and finds clause (d)'s guard support by a backward
// search from the guard ports. The oracle below is the construction it
// replaced: vector-valued R(S)/dom(S) from the System accessors and a
// support fixpoint over every output port. Both must agree pair for pair
// under every clause selection.

using dcf::ArcId;
using dcf::PortId;
using dcf::VertexId;
using petri::TransitionId;

DynamicBitset oracle_bitset(const std::vector<VertexId>& vertices,
                            std::size_t n) {
  DynamicBitset out(n);
  for (VertexId v : vertices) out.set(v.index());
  return out;
}

/// Sequential vertices each port combinationally depends on, iterated to
/// the least fixpoint over every output port.
std::vector<DynamicBitset> oracle_sequential_support(
    const dcf::System& system) {
  const dcf::DataPath& dp = system.datapath();
  const std::size_t verts = dp.vertex_count();
  std::vector<DynamicBitset> support(dp.port_count(), DynamicBitset(verts));
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId v : dp.vertices()) {
      for (PortId o : dp.output_ports(v)) {
        DynamicBitset next(verts);
        if (dcf::op_is_sequential(dp.operation(o).code)) {
          next.set(v.index());
        } else {
          const int arity = dcf::op_arity(dp.operation(o).code);
          const auto& ins = dp.input_ports(v);
          for (int k = 0; k < arity; ++k) {
            for (ArcId a : dp.arcs_into(ins[static_cast<std::size_t>(k)])) {
              next |= support[dp.arc_source(a).index()];
            }
          }
        }
        if (!(next == support[o.index()])) {
          support[o.index()] = std::move(next);
          changed = true;
        }
      }
    }
  }
  return support;
}

std::vector<DynamicBitset> oracle_direct(
    const dcf::System& system, const DependenceOptions& options,
    const std::vector<DynamicBitset>& port_support) {
  const petri::Net& net = system.control().net();
  const std::size_t n = net.place_count();
  const std::size_t verts = system.datapath().vertex_count();
  std::vector<DynamicBitset> result(n), domain(n);
  std::vector<bool> external(n);
  for (PlaceId s : net.places()) {
    result[s.index()] = oracle_bitset(system.result_set(s), verts);
    domain[s.index()] = oracle_bitset(system.domain(s), verts);
    external[s.index()] = system.touches_environment(s);
  }
  std::vector<DynamicBitset> guard_support(n, DynamicBitset(verts));
  if (options.clause_d) {
    for (TransitionId t : net.transitions()) {
      DynamicBitset s(verts);
      for (PortId g : system.control().guards(t)) {
        s |= port_support[g.index()];
      }
      for (PlaceId p : net.pre(t)) guard_support[p.index()] |= s;
      for (PlaceId p : net.post(t)) guard_support[p.index()] |= s;
    }
  }
  std::vector<DynamicBitset> direct(n, DynamicBitset(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const bool dependent =
          (options.clause_a && result[i].intersects(domain[j])) ||
          (options.clause_b && result[j].intersects(domain[i])) ||
          (options.clause_c && result[i].intersects(result[j])) ||
          (options.clause_d && (guard_support[i].intersects(result[j]) ||
                                guard_support[j].intersects(result[i]))) ||
          (options.clause_e && external[i] && external[j]);
      if (dependent) {
        direct[i].set(j);
        direct[j].set(i);
      }
    }
  }
  return direct;
}

DependenceOptions clause_selection(unsigned mask) {
  DependenceOptions options;
  options.clause_a = (mask & 1U) != 0;
  options.clause_b = (mask & 2U) != 0;
  options.clause_c = (mask & 4U) != 0;
  options.clause_d = (mask & 8U) != 0;
  options.clause_e = (mask & 16U) != 0;
  return options;
}

/// Ordered state pairs on which the library and the oracle disagree,
/// over all 32 clause selections.
std::size_t dependence_mismatches(const dcf::System& system) {
  const std::size_t n = system.control().net().place_count();
  const std::vector<DynamicBitset> port_support =
      oracle_sequential_support(system);
  std::size_t mismatches = 0;
  for (unsigned mask = 0; mask < 32; ++mask) {
    const DependenceOptions options = clause_selection(mask);
    const DependenceRelation dep(system, options);
    const std::vector<DynamicBitset> oracle =
        oracle_direct(system, options, port_support);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (dep.direct(PlaceId(static_cast<std::uint32_t>(i)),
                       PlaceId(static_cast<std::uint32_t>(j))) !=
            oracle[i].test(j)) {
          ++mismatches;
        }
      }
    }
  }
  return mismatches;
}

/// Def 3.2 rule 1 as parallelize tested it before: the two states share
/// a controlled arc or an associated vertex.
bool oracle_resource_conflict(const dcf::System& system, PlaceId a,
                              PlaceId b) {
  const auto& arcs_a = system.control().controlled_arcs(a);
  const auto& arcs_b = system.control().controlled_arcs(b);
  for (ArcId arc : arcs_a) {
    if (std::find(arcs_b.begin(), arcs_b.end(), arc) != arcs_b.end()) {
      return true;
    }
  }
  const auto va = system.associated_vertices(a);
  const auto vb = system.associated_vertices(b);
  for (VertexId v : va) {
    if (std::find(vb.begin(), vb.end(), v) != vb.end()) return true;
  }
  return false;
}

/// Ordered state pairs where the oracle's rule-1 test and the
/// intersection of transform::association_sets (the rule-1 half of
/// transform::ordering_edges) disagree.
std::size_t rule_one_mismatches(const dcf::System& system) {
  const petri::Net& net = system.control().net();
  const std::vector<DynamicBitset> associated =
      transform::association_sets(system, net.places());
  std::size_t mismatches = 0;
  for (PlaceId a : net.places()) {
    for (PlaceId b : net.places()) {
      if (oracle_resource_conflict(system, a, b) !=
          associated[a.index()].intersects(associated[b.index()])) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void expect_matches_oracles(const dcf::System& system) {
  EXPECT_EQ(dependence_mismatches(system), 0u);
  EXPECT_EQ(rule_one_mismatches(system), 0u);
}

// One instance per bench design, and 200 random programs in four
// shards, so each instance stays inside the per-test timeout under the
// sanitizer build. merge_all on guarded_branch's ~1000 vertices takes
// over two minutes there, so that one form is left out; the corpus
// designs and the random programs cover merging.
class DependenceOracleOnBenchDesign
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DependenceOracleOnBenchDesign, WithMergedAndScheduledForms) {
  const std::vector<bench::BenchDesign> designs = bench::bench_designs();
  ASSERT_LT(GetParam(), designs.size());
  const bench::BenchDesign& d = designs[GetParam()];
  SCOPED_TRACE(d.name);
  expect_matches_oracles(d.system);
  expect_matches_oracles(synth::derive_schedule(d.system));
  if (d.name != "guarded_branch") {
    expect_matches_oracles(transform::merge_all(d.system));
  }
}

INSTANTIATE_TEST_SUITE_P(Designs, DependenceOracleOnBenchDesign,
                         ::testing::Range<std::size_t>(0, 7));

constexpr std::uint64_t kOracleShardSize = 50;

class DependenceOracleOnRandomPrograms
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependenceOracleOnRandomPrograms, WithMergedAndScheduledForms) {
  const std::uint64_t first = 1 + GetParam() * kOracleShardSize;
  for (std::uint64_t seed = first; seed < first + kOracleShardSize; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dcf::System sys =
        synth::compile_source(bench::random_program(seed));
    expect_matches_oracles(sys);
    expect_matches_oracles(transform::merge_all(sys));
    expect_matches_oracles(synth::derive_schedule(sys));
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, DependenceOracleOnRandomPrograms,
                         ::testing::Range<std::uint64_t>(0, 4));

DependenceOptions only_clause_d() {
  return clause_selection(8U);
}

// make_comb_loop's a1/a2 loop, with the transition out of Sloop guarded
// by a1's output: the search must go round the loop and stop at r.
TEST(DependenceOracle, GuardReadsCombinationalLoop) {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r = b.reg("r");
  const auto a1 = b.unit("a1", dcf::OpCode::kAdd);
  const auto a2 = b.unit("a2", dcf::OpCode::kAdd);
  const auto s0 = b.state("S0", /*initial=*/true);
  const auto loop = b.state("Sloop");
  const auto s2 = b.state("S2");
  b.connect(x, r, 0, {s0});
  b.arc(b.out(a2), b.in(a1, 0), {loop});
  b.arc(b.out(r), b.in(a1, 1), {loop});
  b.arc(b.out(a1), b.in(a2, 0), {loop});
  b.arc(b.out(r), b.in(a2, 1), {loop});
  b.connect(r, y, 0, {s2});
  b.chain(s0, loop, "T0");
  const auto exit = b.chain(loop, s2, "T1");
  b.guard(exit, a1);
  const auto t_end = b.transition("Tend");
  b.flow(s2, t_end);
  const dcf::System sys = b.build("comb_loop_guard");

  const DependenceRelation dep(sys, only_clause_d());
  EXPECT_TRUE(dep.direct(s0, loop));  // the guard reads r, written by S0
  EXPECT_TRUE(dep.direct(s0, s2));
  EXPECT_FALSE(dep.direct(loop, s2));
  expect_matches_oracles(sys);
}

// A guard bound to an input port: the fixpoint only ever assigns output
// ports, so its support stays empty although r feeds that port.
TEST(DependenceOracle, GuardOnInputPortHasNoSupport) {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r = b.reg("r");
  const auto add = b.unit("add", dcf::OpCode::kAdd);
  const auto s0 = b.state("S0", /*initial=*/true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  b.connect(x, r, 0, {s0});
  b.arc(b.out(r), b.in(add, 0), {s1});
  b.arc(b.out(r), b.in(add, 1), {s1});
  b.connect(r, y, 0, {s2});
  b.chain(s0, s1, "T0");
  const auto guarded = b.chain(s1, s2, "T1");
  const auto t_end = b.transition("Tend");
  b.flow(s2, t_end);
  const dcf::System built = b.build("input_port_guard");
  // validate() would reject it, so bind the guard in a copy of the built
  // control net and assemble the System without validating.
  dcf::ControlNet control = built.control();
  control.guard(guarded, built.datapath().input_ports(add).front());
  const dcf::System sys(built.datapath(), std::move(control), built.name());

  const DependenceRelation dep(sys, only_clause_d());
  for (PlaceId i : sys.control().net().places()) {
    for (PlaceId j : sys.control().net().places()) {
      EXPECT_FALSE(dep.direct(i, j));
    }
  }
  expect_matches_oracles(sys);
}

// One transition guarded by two ports with different supports: its
// adjacent states depend on the writers of both.
TEST(DependenceOracle, SeveralGuardPortsUnionTheirSupports) {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r = b.reg("r");
  const auto q = b.reg("q");
  const auto neg = b.unit("neg", dcf::OpCode::kNeg);
  const auto s0 = b.state("S0", /*initial=*/true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  b.connect(x, r, 0, {s0});
  b.connect(x, q, 0, {s1});
  b.arc(b.out(q), b.in(neg), {s2});
  b.connect(r, y, 0, {s2});
  b.chain(s0, s1, "T0");
  const auto guarded = b.chain(s1, s2, "T1");
  b.guard(guarded, r);    // sequential: support {r}
  b.guard(guarded, neg);  // combinational: support {q}
  const auto t_end = b.transition("Tend");
  b.flow(s2, t_end);
  const dcf::System sys = b.build("two_guards");

  const DependenceRelation dep(sys, only_clause_d());
  EXPECT_TRUE(dep.direct(s0, s1));  // r
  EXPECT_TRUE(dep.direct(s0, s2));  // r
  EXPECT_TRUE(dep.direct(s1, s2));  // q, through neg only
  expect_matches_oracles(sys);
}

TEST(DataInvariant, SystemEquivalentToItself) {
  const dcf::System sys = test::make_gcd();
  const EquivalenceVerdict verdict = check_data_invariant(sys, sys);
  EXPECT_TRUE(verdict.holds) << verdict.why;
}

TEST(DataInvariant, DetectsLostOrder) {
  // Build two versions of the doubler: S1 and S2 swapped in the second.
  // S1 writes r2 (read by S2's output move), so they are dependent and
  // the swap must be flagged.
  const dcf::System a = test::make_doubler();

  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto add = b.unit("add", dcf::OpCode::kAdd);
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  b.connect(x, r1, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r2), {s1});
  b.connect(r2, y, 0, {s2});
  // Control visits S2 *before* S1.
  b.chain(s0, s2, "T0");
  b.chain(s2, s1, "T1");
  const auto t_end = b.transition("Tend");
  b.flow(s1, t_end);
  const dcf::System swapped = b.build("doubler");

  const EquivalenceVerdict verdict = check_data_invariant(a, swapped);
  EXPECT_FALSE(verdict.holds);
  EXPECT_FALSE(verdict.why.empty());
}

TEST(DataInvariant, StrictTransitiveModeIsStronger) {
  // two_lane parallelized: fine under the direct reading, but the literal
  // Def 4.4 closure relates S1/S2 through their shared neighbours, so the
  // strict check must reject the reordering the transformation performed.
  const dcf::System serial = test::make_two_lane();
  const dcf::System par = transform::parallelize(serial);

  DataInvariantOptions direct;
  EXPECT_TRUE(check_data_invariant(serial, par, direct).holds);

  DataInvariantOptions strict;
  strict.strict_transitive = true;
  const EquivalenceVerdict verdict = check_data_invariant(serial, par, strict);
  EXPECT_FALSE(verdict.holds);
  EXPECT_FALSE(verdict.why.empty());
}

TEST(DataInvariant, RequiresIdenticalDatapaths) {
  const dcf::System a = test::make_doubler();
  const dcf::System b = test::make_two_lane();
  const EquivalenceVerdict verdict = check_data_invariant(a, b);
  EXPECT_FALSE(verdict.holds);
  EXPECT_NE(verdict.why.find("data paths"), std::string::npos);
}

TEST(Differential, IdenticalSystemsAgree) {
  const dcf::System sys = test::make_gcd();
  DifferentialOptions options;
  options.environments = 4;
  options.value_lo = 1;  // gcd(0, n) loops forever on subtraction
  options.value_hi = 60;
  const EquivalenceVerdict verdict =
      differential_equivalence(sys, sys, options);
  EXPECT_TRUE(verdict.holds) << verdict.why;
}

TEST(Differential, CatchesBehavioralDifference) {
  // Doubler vs "tripler": same interface, different computation.
  const dcf::System a = test::make_doubler();

  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto add = b.unit("add", dcf::OpCode::kMul);  // note: mul
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  b.connect(x, r1, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r2), {s1});
  b.connect(r2, y, 0, {s2});
  b.chain(s0, s1, "T0");
  b.chain(s1, s2, "T1");
  const auto t_end = b.transition("Tend");
  b.flow(s2, t_end);
  const dcf::System tripler = b.build("doubler");

  DifferentialOptions options;
  options.environments = 2;
  options.value_lo = 3;  // 2*x != x*x away from 0 and 2
  options.value_hi = 50;
  const EquivalenceVerdict verdict =
      differential_equivalence(a, tripler, options);
  EXPECT_FALSE(verdict.holds);
}

TEST(Datapaths, IdenticalOnCopies) {
  const dcf::System sys = test::make_gcd();
  EXPECT_TRUE(datapaths_identical(sys.datapath(), sys.datapath()));
  const dcf::System other = test::make_doubler();
  EXPECT_FALSE(datapaths_identical(sys.datapath(), other.datapath()));
}

}  // namespace
}  // namespace camad::semantics
