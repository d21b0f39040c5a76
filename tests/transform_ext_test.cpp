// Tests for the extension transformations: state chaining and vertex
// splitting; and every pass over a control net with weighted arcs.
#include <gtest/gtest.h>

#include <utility>

#include "dcf/builder.h"
#include "dcf/check.h"
#include "semantics/equivalence.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "transform/chain.h"
#include "transform/cleanup.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "transform/regshare.h"
#include "transform/split.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using petri::PlaceId;
using petri::TransitionId;

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
  const dcf::System chained = chain_states(sys, &stats);
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
  const dcf::System chained = chain_states(sys, &stats);
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

// ---- weighted flow arcs ----------------------------------------------------

/// `sys` plus a side loop with weight-2 arcs, the shape of an imported P/T
/// net: W0 (2 tokens) -2-> Tw -> W1 -> Tr -2-> W0. The loop controls no
/// data-path arc, so each pass finds in the design what it finds without
/// the loop, and must carry the loop's weights over.
dcf::System with_weighted_loop(const dcf::System& sys) {
  dcf::ControlNet control = sys.control();
  const PlaceId w0 = control.add_state("W0");
  const PlaceId w1 = control.add_state("W1");
  const TransitionId tw = control.add_transition("Tw");
  const TransitionId tr = control.add_transition("Tr");
  control.net().set_initial_tokens(w0, 2);
  control.net().connect(w0, tw, 2);
  control.net().connect(tw, w1);
  control.net().connect(w1, tr);
  control.net().connect(tr, w0, 2);
  return dcf::System(sys.datapath(), std::move(control), sys.name());
}

PlaceId place_named(const petri::Net& net, const std::string& name) {
  for (PlaceId p : net.places()) {
    if (net.name(p) == name) return p;
  }
  return PlaceId::invalid();
}

TransitionId transition_named(const petri::Net& net, const std::string& name) {
  for (TransitionId t : net.transitions()) {
    if (net.name(t) == name) return t;
  }
  return TransitionId::invalid();
}

/// The side loop is still there, each arc with its weight.
void expect_loop_kept(const dcf::System& sys) {
  const petri::Net& net = sys.control().net();
  const PlaceId w0 = place_named(net, "W0");
  const PlaceId w1 = place_named(net, "W1");
  const TransitionId tw = transition_named(net, "Tw");
  const TransitionId tr = transition_named(net, "Tr");
  ASSERT_TRUE(w0.valid() && w1.valid() && tw.valid() && tr.valid());
  EXPECT_EQ(net.initial_tokens(w0), 2u);
  EXPECT_EQ(net.arc_weight(w0, tw), 2u);
  EXPECT_EQ(net.arc_weight(tw, w1), 1u);
  EXPECT_EQ(net.arc_weight(w1, tr), 1u);
  EXPECT_EQ(net.arc_weight(tr, w0), 2u);
  EXPECT_FALSE(net.is_ordinary());
}

dcf::System weighted_independent() {
  return with_weighted_loop(synth::compile_source(kIndependent));
}

TEST(WeightedArcs, ParallelizeKeepsWeights) {
  const dcf::System sys = weighted_independent();
  ParallelizeStats stats;
  const dcf::System out = parallelize(sys, {}, &stats);
  EXPECT_GE(stats.segments_transformed, 1u);
  expect_loop_kept(out);
}

TEST(WeightedArcs, MergeAllKeepsWeights) {
  const dcf::System sys = weighted_independent();
  ASSERT_FALSE(mergeable_pairs(sys).empty());
  std::size_t merges = 0;
  const dcf::System out = merge_all(sys, &merges);
  EXPECT_GE(merges, 1u);
  EXPECT_LT(out.datapath().vertex_count(), sys.datapath().vertex_count());
  expect_loop_kept(out);
}

TEST(WeightedArcs, ShareRegistersKeepsWeights) {
  const dcf::System sys = weighted_independent();
  RegShareStats stats;
  const dcf::System out = share_registers(sys, &stats);
  EXPECT_LT(stats.registers_after, stats.registers_before);
  EXPECT_LT(out.datapath().vertex_count(), sys.datapath().vertex_count());
  expect_loop_kept(out);
}

TEST(WeightedArcs, ChainKeepsWeights) {
  const dcf::System sys = weighted_independent();
  ChainStats stats;
  const dcf::System out = chain_states(sys, &stats);
  EXPECT_GE(stats.states_merged, 1u);
  expect_loop_kept(out);
}

TEST(WeightedArcs, SplitKeepsWeights) {
  const dcf::System merged = merge_all(weighted_independent());
  // The first shared combinational unit, and one state using it.
  const dcf::DataPath& dp = merged.datapath();
  for (dcf::VertexId v : dp.vertices()) {
    if (dp.kind(v) != dcf::VertexKind::kInternal ||
        dp.is_sequential_vertex(v)) {
      continue;
    }
    for (PlaceId p : merged.control().net().places()) {
      if (!can_split(merged, v, {p}).legal) continue;
      const dcf::System out = split_vertex(merged, v, {p});
      EXPECT_EQ(out.datapath().vertex_count(), dp.vertex_count() + 1);
      expect_loop_kept(out);
      return;
    }
  }
  FAIL() << "no splittable unit in the merged fixture";
}

TEST(WeightedArcs, CleanupFusesAcrossAWeightedArc) {
  const dcf::System sys = weighted_independent();
  CleanupStats stats;
  const dcf::System out = cleanup_control(sys, &stats);
  EXPECT_GE(stats.states_removed, 1u);
  // W1 is control-only and passes its token straight on: Tw inherits
  // Tr's weight-2 post, and W0 -> Tw keeps its weight.
  const petri::Net& net = out.control().net();
  const PlaceId w0 = place_named(net, "W0");
  const TransitionId tw = transition_named(net, "Tw");
  ASSERT_TRUE(w0.valid() && tw.valid());
  EXPECT_FALSE(place_named(net, "W1").valid());
  EXPECT_EQ(net.arc_weight(w0, tw), 2u);
  EXPECT_EQ(net.arc_weight(tw, w0), 2u);
}

TEST(WeightedArcs, CleanupKeepsAPlaceFedTwoTokensAtOnce) {
  // Ta puts two tokens on the control-only P, so Tb fires twice: fusing
  // Tb into Ta would fire it once.
  dcf::SystemBuilder b;
  const PlaceId w0 = b.state("W0", true);
  const PlaceId p = b.state("P");
  const PlaceId w2 = b.state("W2");
  const TransitionId ta = b.transition("Ta");
  const TransitionId tb = b.transition("Tb");
  b.flow(w0, ta);
  b.flow(p, tb);
  b.flow(tb, w2);
  const dcf::System built = b.build("weighted_producer");
  dcf::ControlNet control = built.control();
  control.net().connect(ta, p, 2);
  const dcf::System sys(built.datapath(), std::move(control), built.name());
  CleanupStats stats;
  const dcf::System out = cleanup_control(sys, &stats);
  EXPECT_EQ(stats.states_removed, 0u);
  EXPECT_EQ(out.control().net().arc_weight(ta, p), 2u);
}

// ---- shared parts ---------------------------------------------------------

TEST(SharedParts, EachRebuildSharesTheHalfItLeavesAlone) {
  const dcf::System sys = weighted_independent();

  // A copy shares both parts.
  const dcf::System copy = sys;
  EXPECT_EQ(&copy.datapath(), &sys.datapath());
  EXPECT_EQ(&copy.control(), &sys.control());

  // The data-invariant rebuilds (Thm 4.1) return a new control net over
  // their input's data path.
  ParallelizeStats parallelized_stats;
  const dcf::System parallelized = parallelize(sys, {}, &parallelized_stats);
  ASSERT_GE(parallelized_stats.segments_transformed, 1u);
  EXPECT_EQ(&parallelized.datapath(), &sys.datapath());
  EXPECT_NE(&parallelized.control(), &sys.control());
  CleanupStats cleanup_stats;
  const dcf::System cleaned = cleanup_control(sys, &cleanup_stats);
  ASSERT_GE(cleanup_stats.states_removed, 1u);
  EXPECT_EQ(&cleaned.datapath(), &sys.datapath());
  ChainStats chain_stats;
  const dcf::System chained = chain_states(sys, &chain_stats);
  ASSERT_GE(chain_stats.states_merged, 1u);
  EXPECT_EQ(&chained.datapath(), &sys.datapath());

  // The control-invariant ones (Thm 4.2) build a new data path.
  const auto pairs = mergeable_pairs(sys);
  ASSERT_FALSE(pairs.empty());
  const dcf::System merged =
      merge_vertices(sys, pairs.front().first, pairs.front().second);
  EXPECT_NE(&merged.datapath(), &sys.datapath());
  RegShareStats regshare_stats;
  const dcf::System shared = share_registers(sys, &regshare_stats);
  ASSERT_LT(regshare_stats.registers_after, regshare_stats.registers_before);
  EXPECT_NE(&shared.datapath(), &sys.datapath());
  const dcf::System all_merged = merge_all(sys);
  bool split_once = false;
  for (dcf::VertexId v : all_merged.datapath().vertices()) {
    for (PlaceId p : all_merged.control().net().places()) {
      if (split_once || !can_split(all_merged, v, {p}).legal) continue;
      const dcf::System split = split_vertex(all_merged, v, {p});
      EXPECT_NE(&split.datapath(), &all_merged.datapath());
      split_once = true;
    }
  }
  EXPECT_TRUE(split_once);

  // An empty System, default-constructed or moved from, is a valid
  // system with no vertices and no places.
  const dcf::System empty;
  dcf::System source = sys;
  const dcf::System moved = std::move(source);
  EXPECT_EQ(&moved.datapath(), &sys.datapath());
  for (const dcf::System* s : {&empty, &std::as_const(source)}) {
    EXPECT_NO_THROW(s->validate());
    EXPECT_EQ(s->datapath().vertex_count(), 0u);
    EXPECT_EQ(s->control().net().place_count(), 0u);
  }
}

}  // namespace
}  // namespace camad::transform
