// Tests for the extension transformations: state chaining and vertex
// splitting.
#include <gtest/gtest.h>

#include "dcf/check.h"
#include "semantics/equivalence.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "transform/chain.h"
#include "transform/merge.h"
#include "transform/split.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using petri::PlaceId;

std::uint64_t cycles(const dcf::System& sys, std::uint64_t seed = 5) {
  sim::Environment env = sim::Environment::random_for(sys, seed, 32, 1, 20);
  const sim::SimResult r = sim::simulate(sys, env);
  EXPECT_TRUE(r.terminated);
  return r.cycles;
}

const char* kIndependent = R"(design ind {
  in a, b; out o; var w, x, y, z;
  begin
    w := a;
    x := b;
    y := w + 1;
    z := x * 2;
    o := y + z;
  end
})";

TEST(Chain, MergesIndependentAdjacentStates) {
  const dcf::System sys = synth::compile_source(kIndependent);
  ChainStats stats;
  const dcf::System chained = chain_states(sys, {}, &stats);
  // y:=w+1 and z:=x*2 are independent and adjacent; w:=a / x:=b both
  // touch the environment (clause e) so they stay separate.
  EXPECT_GE(stats.states_merged, 1u);
  EXPECT_LT(cycles(chained), cycles(sys));

  const auto verdict = semantics::differential_equivalence(sys, chained);
  EXPECT_TRUE(verdict.holds) << verdict.why;
  const dcf::CheckReport report = dcf::check_properly_designed(chained);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Chain, RefusesDependentStates) {
  // Every statement feeds the next: nothing can chain.
  const dcf::System sys = synth::compile_source(R"(design seq {
    in a; out o; var x;
    begin
      x := a;
      x := x + 1;
      x := x * 2;
      o := x;
    end
  })");
  ChainStats stats;
  const dcf::System chained = chain_states(sys, {}, &stats);
  EXPECT_EQ(stats.states_merged, 0u);
  EXPECT_EQ(chained.control().net().place_count(),
            sys.control().net().place_count());
}

TEST(Chain, AllDesignsStayEquivalent) {
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    const dcf::System chained = chain_states(sys);
    semantics::DifferentialOptions diff;
    diff.environments = 3;
    diff.value_lo = 1;
    diff.value_hi = 20;
    const auto verdict =
        semantics::differential_equivalence(sys, chained, diff);
    EXPECT_TRUE(verdict.holds) << d.name << ": " << verdict.why;
  }
}

TEST(Split, UndoesAMergerAndRestoresParallelism) {
  // Start from a shared adder used by two sequential states; split it
  // back apart and verify equivalence.
  const char* source = R"(design s {
    in a, b; out o; var x, y;
    begin
      x := a + 1;
      y := b + 2;
      o := x + y;
    end
  })";
  const dcf::System separate = synth::compile_source(source);
  std::size_t merges = 0;
  const dcf::System merged = merge_all(separate, &merges);
  ASSERT_GE(merges, 1u);

  // The shared adder is used by several states; move one use away.
  dcf::VertexId shared_add;
  for (dcf::VertexId v : merged.datapath().vertices()) {
    if (merged.datapath().kind(v) == dcf::VertexKind::kInternal &&
        !merged.datapath().is_sequential_vertex(v)) {
      shared_add = v;
      break;
    }
  }
  ASSERT_TRUE(shared_add.valid());

  // Find a state associated with the shared unit.
  PlaceId user;
  for (PlaceId p : merged.control().net().places()) {
    const auto assoc = merged.associated_vertices(p);
    if (std::find(assoc.begin(), assoc.end(), shared_add) != assoc.end()) {
      user = p;
      break;
    }
  }
  ASSERT_TRUE(user.valid());

  const SplitCheck check = can_split(merged, shared_add, {user});
  ASSERT_TRUE(check.legal) << check.why;
  const dcf::System split = split_vertex(merged, shared_add, {user});
  EXPECT_EQ(split.datapath().vertex_count(),
            merged.datapath().vertex_count() + 1);
  EXPECT_TRUE(split.datapath().find_vertex(
      merged.datapath().name(shared_add) + "_split").valid());

  const auto verdict = semantics::differential_equivalence(merged, split);
  EXPECT_TRUE(verdict.holds) << verdict.why;
  const dcf::CheckReport report = dcf::check_properly_designed(split);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(Split, RejectsBadRequests) {
  const dcf::System sys = synth::compile_source(kIndependent);
  const dcf::VertexId reg = sys.datapath().find_vertex("w");
  const dcf::VertexId input = sys.datapath().find_vertex("a");
  const PlaceId s0 = sys.control().net().places().front();
  EXPECT_FALSE(can_split(sys, reg, {s0}).legal);
  EXPECT_FALSE(can_split(sys, input, {s0}).legal);
  EXPECT_THROW(split_vertex(sys, reg, {s0}), camad::TransformError);
}

TEST(Split, RejectsStateNotUsingVertex) {
  const dcf::System sys = synth::compile_source(kIndependent);
  // Find the adder and a state that does not use it.
  dcf::VertexId add;
  for (dcf::VertexId v : sys.datapath().vertices()) {
    if (sys.datapath().kind(v) == dcf::VertexKind::kInternal &&
        !sys.datapath().is_sequential_vertex(v) &&
        sys.datapath().operation(sys.datapath().output_ports(v)[0]).code ==
            dcf::OpCode::kAdd) {
      add = v;
      break;
    }
  }
  ASSERT_TRUE(add.valid());
  PlaceId non_user;
  for (PlaceId p : sys.control().net().places()) {
    const auto assoc = sys.associated_vertices(p);
    if (std::find(assoc.begin(), assoc.end(), add) == assoc.end()) {
      non_user = p;
      break;
    }
  }
  ASSERT_TRUE(non_user.valid());
  EXPECT_FALSE(can_split(sys, add, {non_user}).legal);
}

}  // namespace
}  // namespace camad::transform
