#include <gtest/gtest.h>

#include <algorithm>

#include "dcf/check.h"
#include "semantics/equivalence.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "transform/regshare.h"

namespace camad::transform {
namespace {

using petri::PlaceId;

std::size_t index_of(const LivenessResult& liveness, const dcf::System& sys,
                     const std::string& name) {
  const dcf::VertexId v = sys.datapath().find_vertex(name);
  for (std::size_t i = 0; i < liveness.registers.size(); ++i) {
    if (liveness.registers[i] == v) return i;
  }
  ADD_FAILURE() << "register " << name << " not analyzed";
  return 0;
}

PlaceId state_named(const dcf::System& sys, const std::string& prefix) {
  for (PlaceId p : sys.control().net().places()) {
    const std::string& name = sys.control().net().name(p);
    if (name.rfind(prefix, 0) == 0) return p;
  }
  ADD_FAILURE() << "no state with prefix " << prefix;
  return PlaceId();
}

/// x dies after the second statement; z's lifetime starts later, so x
/// and z can share one physical register. y overlaps both.
const char* kDisjoint = R"(design d {
  in a; out o; var x, y, z;
  begin
    x := a;
    y := x + 1;
    z := y * 2;
    o := z + y;
  end
})";

TEST(Liveness, ReadsWritesAndRanges) {
  const dcf::System sys = synth::compile_source(kDisjoint);
  const LivenessResult liveness = analyze_liveness(sys);
  ASSERT_EQ(liveness.registers.size(), 3u);

  const std::size_t x = index_of(liveness, sys, "x");
  const std::size_t y = index_of(liveness, sys, "y");
  const std::size_t z = index_of(liveness, sys, "z");

  const PlaceId s_x = state_named(sys, "S_x");
  const PlaceId s_y = state_named(sys, "S_y");
  const PlaceId s_z = state_named(sys, "S_z");
  const PlaceId s_o = state_named(sys, "S_o");

  EXPECT_TRUE(liveness.writes[s_x.index()].test(x));
  EXPECT_TRUE(liveness.reads[s_y.index()].test(x));
  EXPECT_TRUE(liveness.writes[s_y.index()].test(y));
  // x is live out of its own write, dead after S_y reads it.
  EXPECT_TRUE(liveness.live_out[s_x.index()].test(x));
  EXPECT_FALSE(liveness.live_out[s_y.index()].test(x));
  // y stays live until the output statement.
  EXPECT_TRUE(liveness.live_out[s_z.index()].test(y));
  EXPECT_TRUE(liveness.reads[s_o.index()].test(y));
  EXPECT_TRUE(liveness.reads[s_o.index()].test(z));
  EXPECT_FALSE(liveness.live_out[s_o.index()].test(z));
}

TEST(Interference, DisjointRangesDoNotInterfere) {
  const dcf::System sys = synth::compile_source(kDisjoint);
  const LivenessResult liveness = analyze_liveness(sys);
  const graph::UndirectedGraph graph =
      interference_graph(sys, liveness, semantics::AnalysisCache(sys));
  const std::size_t x = index_of(liveness, sys, "x");
  const std::size_t y = index_of(liveness, sys, "y");
  const std::size_t z = index_of(liveness, sys, "z");
  // x dies exactly where y is born (y := x + 1): with latch-at-tenure-end
  // registers the read sees the old value, so x and y may coalesce —
  // interference pairs a write with the registers live *out* of it.
  EXPECT_FALSE(graph.has_edge(x, y));
  EXPECT_TRUE(graph.has_edge(y, z));   // y stays live past z's write
  EXPECT_FALSE(graph.has_edge(x, z));  // lifetimes disjoint
}

TEST(RegShare, SharesDisjointRanges) {
  const dcf::System sys = synth::compile_source(kDisjoint);
  RegShareStats stats;
  const dcf::System shared = share_registers(sys, &stats);
  EXPECT_EQ(stats.registers_before, 3u);
  EXPECT_EQ(stats.registers_after, 2u);

  // Behaviour unchanged.
  const auto verdict = semantics::differential_equivalence(sys, shared);
  EXPECT_TRUE(verdict.holds) << verdict.why;
  const dcf::CheckReport report = dcf::check_properly_designed(shared);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(RegShare, LoopCarriedValuesStayDistinct) {
  // x and y are both live across the loop: they may never share.
  const dcf::System sys =
      synth::compile_source(std::string(synth::gcd_source()));
  const LivenessResult liveness = analyze_liveness(sys);
  const graph::UndirectedGraph graph =
      interference_graph(sys, liveness, semantics::AnalysisCache(sys));
  const std::size_t x = index_of(liveness, sys, "x");
  const std::size_t y = index_of(liveness, sys, "y");
  EXPECT_TRUE(graph.has_edge(x, y));

  RegShareStats stats;
  const dcf::System shared = share_registers(sys, &stats);
  const auto verdict = semantics::differential_equivalence(
      sys, shared, {.environments = 4, .value_lo = 1, .value_hi = 40,
                    .sim = {}});
  EXPECT_TRUE(verdict.holds) << verdict.why;
}

TEST(RegShare, AllDesignsStayEquivalent) {
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    RegShareStats stats;
    const dcf::System shared = share_registers(sys, &stats);
    EXPECT_LE(stats.registers_after, stats.registers_before) << d.name;
    semantics::DifferentialOptions diff;
    diff.environments = 3;
    diff.value_lo = 1;
    diff.value_hi = 20;
    const auto verdict =
        semantics::differential_equivalence(sys, shared, diff);
    EXPECT_TRUE(verdict.holds) << d.name << ": " << verdict.why;
  }
}

TEST(RegShare, FlagRegistersAreRecycled) {
  // Each if/while allocates a flag register; their lifetimes are one
  // state long, so sharing should collapse most of them.
  const dcf::System sys =
      synth::compile_source(std::string(synth::traffic_source()));
  RegShareStats stats;
  share_registers(sys, &stats);
  EXPECT_LT(stats.registers_after, stats.registers_before);
}

TEST(RegShare, ParallelBranchValuesInterfere) {
  const dcf::System sys =
      synth::compile_source(std::string(synth::parlab_source()));
  const LivenessResult liveness = analyze_liveness(sys);
  const graph::UndirectedGraph graph =
      interference_graph(sys, liveness, semantics::AnalysisCache(sys));
  // w and y are written in parallel branches: must interfere.
  const std::size_t w = index_of(liveness, sys, "w");
  const std::size_t y = index_of(liveness, sys, "y");
  EXPECT_TRUE(graph.has_edge(w, y));
}

}  // namespace
}  // namespace camad::transform
