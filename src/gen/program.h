// Randomized *properly designed* BDL program generator.
//
// Emits structured programs whose compilation (synth::compile) is
// properly designed per Def 3.2 *by construction*, so generative tests
// can quantify over the paper's universally quantified theorems instead
// of the hand-written corpus. The construction invariants:
//
//   * safe net        — programs are structured (sequence / if / counted
//                       while / par), so the compiled control net is a
//                       workflow net: one token per concurrent branch;
//   * rule 1          — the arms of every branching construct (if/else
//                       and par, which are structurally parallel under
//                       the Def 2.3 relation ∥) receive *disjoint*
//                       partitions of the writable variable set, so no
//                       two parallel states share an associated vertex;
//   * race freedom    — arms may additionally read only variables frozen
//                       for the whole construct (written by no arm) and
//                       *input channels are partitioned like variables*:
//                       two parallel arms never read the same input
//                       vertex, so environment-stream consumption order
//                       is schedule-independent (the property the Def 4.5
//                       transformations preserve);
//   * rule 3          — branch guards are compiled predicates with the
//                       kNot complement the checker proves exclusive;
//   * rule 4          — expressions are trees over fresh units: no
//                       combinatorial loops;
//   * rule 5          — every generated state latches a register, a flag
//                       or an output;
//   * termination     — every `while` is a counted loop over a reserved
//                       counter variable initialized to a small literal
//                       and decremented exactly once per iteration.
//
// The distribution is fixed here, not configured: two input channels,
// one output, four registers, nesting depth 3, up to 3 statements per
// block, expression depth 2, literals 0..9, loops of 1..3 trips, and
// if / while / par drawn with chance 0.25 / 0.2 / 0.2 per slot. The
// seed alone names a program, so corpus seeds and sweeps mean the same
// program on every platform and in every build (util/rng.h).
#pragma once

#include <cstdint>

#include "synth/ast.h"

namespace camad::gen {

/// Draws the program named by `seed`; it is named "gen_<seed>". See the
/// header comment for the invariants the result satisfies.
synth::Program random_program(std::uint64_t seed);

}  // namespace camad::gen
