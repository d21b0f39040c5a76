// Tests for constant folding.
#include <gtest/gtest.h>

#include "synth/ast.h"
#include "synth/compile.h"
#include "synth/fold.h"
#include "synth/parser.h"
#include "sim/environment.h"
#include "sim/simulator.h"

namespace camad {
namespace {

TEST(Fold, LiteralSubtreesCollapse) {
  synth::ExprPtr e = synth::parse_expression("3 * 4 + a");
  const synth::ExprPtr folded = synth::fold_expr(*e);
  EXPECT_EQ(synth::to_source(*folded), "(12 + a)");

  e = synth::parse_expression("(2 + 3) * (10 - 4)");
  EXPECT_EQ(synth::to_source(*synth::fold_expr(*e)), "30");

  e = synth::parse_expression("-(5) + a");
  EXPECT_EQ(synth::to_source(*synth::fold_expr(*e)), "(-5 + a)");
}

TEST(Fold, UndefinedResultsStayUnfolded) {
  const synth::ExprPtr e = synth::parse_expression("1 / 0");
  EXPECT_EQ(synth::to_source(*synth::fold_expr(*e)), "(1 / 0)");
}

TEST(Fold, MuxFoldsOnlyWhenFullyLiteral) {
  EXPECT_EQ(synth::to_source(*synth::fold_expr(
                *synth::parse_expression("mux(1, 5, 9)"))),
            "5");
  EXPECT_EQ(synth::to_source(*synth::fold_expr(
                *synth::parse_expression("mux(0, 5, 9)"))),
            "9");
  // A non-literal branch blocks the fold: kMux is eager and a ⊥ branch
  // would poison the result at runtime.
  EXPECT_EQ(synth::to_source(*synth::fold_expr(
                *synth::parse_expression("mux(1, a, 9)"))),
            "mux(1, a, 9)");
}

TEST(Fold, ProgramFoldReducesSynthesizedHardware) {
  const char* source = R"(design f {
    in a; out o; var x;
    begin
      x := a * (3 * 4);
      if x > 2 * 8 { o := x; } else { o := 0 - 1 + x; }
    end
  })";
  synth::Program p1 = synth::parse_program(source);
  synth::CompileStats unfolded;
  synth::compile(p1, &unfolded);

  synth::Program p2 = synth::parse_program(source);
  const std::size_t removed = synth::fold_constants(p2);
  EXPECT_GE(removed, 3u);
  synth::CompileStats folded;
  synth::compile(p2, &folded);

  EXPECT_LT(folded.functional_units, unfolded.functional_units);
  EXPECT_LT(folded.constants, unfolded.constants);
}

TEST(Fold, SemanticsPreserved) {
  const char* source = R"(design f {
    in a; out o; var x;
    begin
      x := a + (6 * 7 - 40);
      o := x << (1 + 1);
    end
  })";
  synth::Program folded_prog = synth::parse_program(source);
  synth::fold_constants(folded_prog);
  // a + 2 then << 2: for a = 3 -> 5 << 2 = 20.
  const dcf::System folded = synth::compile(folded_prog);
  const dcf::System plain = synth::compile_source(source);
  auto out_value = [](const dcf::System& sys) {
    sim::Environment env;
    env.set_stream(sys.datapath().find_vertex("a"), {3});
    const sim::SimResult r = sim::simulate(sys, env);
    return r.trace.events().back().value;
  };
  EXPECT_EQ(out_value(folded), out_value(plain));
  EXPECT_EQ(out_value(folded), dcf::Value(20));
}

}  // namespace
}  // namespace camad
