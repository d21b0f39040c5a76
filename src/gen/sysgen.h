// Randomized properly-designed System generator at the DCF level.
//
// Where gen/program.h draws structured BDL programs (and reaches
// compilation, parsing and checking through the normal front end), this
// generator builds data/control flow systems *directly* with
// dcf::SystemBuilder, covering shapes the BDL compiler never emits:
//
//   * guard patterns beyond the compiler's kNot complement — a single
//     two-output compare vertex carrying a complementary predicate pair
//     (eq/ne, lt/ge, gt/le), and condition-*register* guarded branches
//     that resolve one cycle after the test state is entered (the
//     one-level register indirection dcf::check's `strip_reg` proves);
//   * multi-write registers (loop counters written by an init state and
//     a decrement state);
//   * control shapes with explicit fork/join helper places.
//
// Construction is driven by an explicit *plan* tree (SysPlan) so that
//   (a) building is deterministic in the plan,
//   (b) a failing system can be minimized by shrinking its plan
//       (gen/shrink.h) and rebuilding, and
//   (c) a plan prints as a compact artifact for the seed corpus.
//
// The same invariants as the program generator hold by construction:
// structured (safe) net, globally disjoint association sets (every step
// latches a *fresh* register; loop counters are written only by states
// of their own loop), partitioned input channels across parallel arms,
// provably exclusive guards, tree-shaped active subgraphs, and counted
// loops. Validated post-hoc by check_properly_designed in the tests.
//
// The distribution is fixed here, not configured: two input channels,
// nesting depth 3, up to 3 children per kSeq and 2..3 arms per kPar,
// loops of 1..3 trips, at most 8 composite nodes per plan, composites
// drawn as par / branch / loop with chance 0.2 / 0.25 / 0.2, and guard
// styles kNotUnit / kComparePair / kLatchedPair at 0.5 / 0.3 / 0.2. The
// seed alone names a plan and a system.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "util/rng.h"

namespace camad::gen {

enum class PlanKind : std::uint8_t { kStep, kSeq, kPar, kBranch, kLoop };

/// How a kBranch realizes its mutually exclusive guard pair.
enum class GuardStyle : std::uint8_t {
  kNotUnit,      ///< predicate port + kNot complement (compiler pattern)
  kComparePair,  ///< one vertex, two complementary predicate output ports
  kLatchedPair,  ///< two condition registers; branch resolves next cycle
};

/// Recipe node. All selector fields are reduced modulo the size of the
/// pool they index at build time, so any uint32 values are valid — which
/// is what makes plans trivially shrinkable and mutable.
struct SysPlan {
  PlanKind kind = PlanKind::kStep;
  std::vector<SysPlan> children;  ///< kSeq >=1, kPar >=2, kBranch 1..2, kLoop 1

  // kStep: one control state latching op(srcs...) into a fresh register.
  std::uint32_t op = 0;                         ///< step-op table index
  std::uint32_t src_a = 0, src_b = 0, src_c = 0;  ///< source selectors

  // kBranch:
  GuardStyle guard = GuardStyle::kNotUnit;
  std::uint32_t cmp_op = 0;                 ///< compare table index
  std::uint32_t cmp_a = 0, cmp_b = 0;       ///< compare source selectors

  // kLoop:
  std::uint32_t iters = 1;  ///< trip count (clamped to >= 1)
};

/// Draws a plan. Deterministic in the rng state.
SysPlan random_plan(Rng& rng);

/// Materializes a plan into a validated System (deterministic).
dcf::System build_system(const SysPlan& plan,
                         const std::string& name = "gensys");

/// random_plan + build_system; the system is named "gensys_<seed>".
dcf::System random_system(std::uint64_t seed);

/// Compact s-expression rendering, e.g. "(seq (step op=3) (loop 2 (...)))".
std::string plan_to_string(const SysPlan& plan);

/// Number of kStep leaves (the shrinker's progress measure).
std::size_t plan_size(const SysPlan& plan);

}  // namespace camad::gen
