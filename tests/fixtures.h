// Shared hand-built example systems used across the test suite.
//
// These mirror the paper's running examples: register/adder structures
// (Sec 2's adder-register figure), a guarded branch, and the classic GCD
// loop — small enough to reason about by hand, complete enough to
// exercise every model feature (guards, loops, external events,
// multi-output comparators, termination).
#pragma once

#include "dcf/builder.h"
#include "dcf/system.h"

namespace camad::test {

/// Terminating three-step accumulator:
///   S0: r1 := x            (read input)
///   S1: r2 := r1 + r1      (double it)
///   S2: y  := r2           (write output)
/// Control: S0 -> S1 -> S2 -> (end).
inline dcf::System make_doubler() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.output("y");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto add = b.unit("add", dcf::OpCode::kAdd);

  const auto s0 = b.state("S0", /*initial=*/true);
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
  return b.build("doubler");
}

/// Straight-line design with two independent computations feeding two
/// output channels — the canonical parallelization target.
///   S0: r1 := x, r2 := y
///   S1: r3 := r1 + r1        (independent of S2)
///   S2: r4 := r2 * r2        (independent of S1)
///   S3: o1 := r3
///   S4: o2 := r4
/// Serial control S0 -> S1 -> S2 -> S3 -> S4 -> end.
inline dcf::System make_two_lane() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto o1 = b.output("o1");
  const auto o2 = b.output("o2");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto r3 = b.reg("r3");
  const auto r4 = b.reg("r4");
  const auto add = b.unit("add", dcf::OpCode::kAdd);
  const auto mul = b.unit("mul", dcf::OpCode::kMul);

  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  const auto s3 = b.state("S3");
  const auto s4 = b.state("S4");

  b.connect(x, r1, 0, {s0});
  b.connect(y, r2, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r3), {s1});
  b.arc(b.out(r2), b.in(mul, 0), {s2});
  b.arc(b.out(r2), b.in(mul, 1), {s2});
  b.arc(b.out(mul), b.in(r4), {s2});
  b.connect(r3, o1, 0, {s3});
  b.connect(r4, o2, 0, {s4});

  b.chain(s0, s1, "T0");
  b.chain(s1, s2, "T1");
  b.chain(s2, s3, "T2");
  b.chain(s3, s4, "T3");
  const auto t_end = b.transition("Tend");
  b.flow(s4, t_end);
  return b.build("two_lane");
}

/// Euclid's GCD with subtraction — loop, three-way guarded branch, and a
/// multi-output comparator vertex (ne/eq/gt/lt over the same inputs).
///   S_load: ra := a, rb := b
///   S_test: flag := (ra != rb); then
///           gt  -> S_subA: ra := ra - rb
///           lt  -> S_subB: rb := rb - ra
///           eq  -> S_out:  g := ra, terminate
inline dcf::System make_gcd() {
  dcf::SystemBuilder b;
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto g = b.output("g");
  const auto ra = b.reg("ra");
  const auto rb = b.reg("rb");
  const auto rflag = b.reg("rflag");

  // Comparator vertex with four predicate output ports over (i0, i1).
  const auto cmp = b.datapath().add_vertex("cmp");
  const auto cmp_i0 = b.datapath().add_input_port(cmp);
  const auto cmp_i1 = b.datapath().add_input_port(cmp);
  const auto cmp_ne = b.datapath().add_output_port(
      cmp, dcf::Operation{dcf::OpCode::kNe, 0}, "cmp.ne");
  const auto cmp_eq = b.datapath().add_output_port(
      cmp, dcf::Operation{dcf::OpCode::kEq, 0}, "cmp.eq");
  const auto cmp_gt = b.datapath().add_output_port(
      cmp, dcf::Operation{dcf::OpCode::kGt, 0}, "cmp.gt");
  const auto cmp_lt = b.datapath().add_output_port(
      cmp, dcf::Operation{dcf::OpCode::kLt, 0}, "cmp.lt");

  const auto sub_a = b.unit("subA", dcf::OpCode::kSub);
  const auto sub_b = b.unit("subB", dcf::OpCode::kSub);

  const auto s_load = b.state("Sload", true);
  const auto s_test = b.state("Stest");
  const auto s_sub_a = b.state("SsubA");
  const auto s_sub_b = b.state("SsubB");
  const auto s_out = b.state("Sout");

  b.connect(a, ra, 0, {s_load});
  b.connect(bb, rb, 0, {s_load});

  b.arc(b.out(ra), cmp_i0, {s_test});
  b.arc(b.out(rb), cmp_i1, {s_test});
  b.arc(cmp_ne, b.in(rflag), {s_test});

  b.arc(b.out(ra), b.in(sub_a, 0), {s_sub_a});
  b.arc(b.out(rb), b.in(sub_a, 1), {s_sub_a});
  b.arc(b.out(sub_a), b.in(ra), {s_sub_a});

  b.arc(b.out(rb), b.in(sub_b, 0), {s_sub_b});
  b.arc(b.out(ra), b.in(sub_b, 1), {s_sub_b});
  b.arc(b.out(sub_b), b.in(rb), {s_sub_b});

  b.connect(ra, g, 0, {s_out});

  b.chain(s_load, s_test, "Tload");
  const auto t_gt = b.chain(s_test, s_sub_a, "Tgt");
  const auto t_lt = b.chain(s_test, s_sub_b, "Tlt");
  const auto t_eq = b.chain(s_test, s_out, "Teq");
  b.guard(t_gt, cmp_gt);
  b.guard(t_lt, cmp_lt);
  b.guard(t_eq, cmp_eq);
  b.chain(s_sub_a, s_test, "TbackA");
  b.chain(s_sub_b, s_test, "TbackB");
  const auto t_end = b.transition("Tend");
  b.flow(s_out, t_end);

  return b.build("gcd");
}

/// Improper design whose second marking closes a combinational cycle:
///   S0:    r := x
///   Sloop: a1 := a2 + r and a2 := a1 + r, both arcs open at once
///   S2:    y := r
/// Control: S0 -> Sloop -> S2 -> (end). Every state except Sloop is
/// acyclic, so Sloop is the only state with an active loop.
inline dcf::System make_comb_loop() {
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
  b.chain(loop, s2, "T1");
  const auto t_end = b.transition("Tend");
  b.flow(s2, t_end);
  return b.build("comb_loop");
}

}  // namespace camad::test
