// Guard-commitment model: how the model checker refines the unguarded
// transition relation soundly (mc-reachable ⊆ unguarded-reachable, and
// every concretely reachable configuration stays covered).
//
// Guards resolve nondeterministically in general — a condition's value is
// data the checker does not track. The refinement exploits one fact the
// compiler's branch pattern guarantees: a *latched* guard (a condition
// register with a single latch source) holds its sampled value until one
// of the control states driving its latch arc is marked again. Firing a
// transition guarded by such a register therefore *commits* the sampled
// polarity of its base condition; until a relatch is possible, the
// complementary branch is dead.
//
// Commitment cells are keyed by (canonical base port, latch-state set):
// two registers share a cell only when they sample the same base
// condition under the same latch control, which is exactly when their
// values are provably consistent (reg⁺ = base@t, reg⁻ = ¬base@t for the
// same latch time t). A cell resets to kUnknown whenever the successor
// marking marks any latch state of the cell — relatching *may* change the
// sampled value, so the abstraction forgets it (conservative: the states
// where a concrete relatch occurs always mark a latch state).
//
// Everything else is unconstrained: unguarded transitions, multi-guard
// (OR) transitions, unlatched (combinational) guards, and unrecognized
// shapes all stay always-fireable — the plain over-approximation.
#pragma once

#include <cstdint>
#include <vector>

#include "dcf/guardinfo.h"
#include "dcf/system.h"

namespace camad::mc {

class GuardModel {
 public:
  explicit GuardModel(const dcf::System& system);

  /// Number of commitment cells (condition latch groups) to track.
  [[nodiscard]] std::size_t cell_count() const { return cell_count_; }

  /// Commitment cell constraining transition `t`, or -1 if unconstrained.
  [[nodiscard]] std::int32_t constraint_cell(std::size_t t) const {
    return constraint_cell_[t];
  }
  /// Required cell value (kCondTrue / kCondFalse) when constrained.
  [[nodiscard]] std::uint8_t constraint_value(std::size_t t) const {
    return constraint_value_[t];
  }

  /// Latch support of a cell: bit i set iff place i may relatch the
  /// cell's condition registers; StateCodec::marked_words() words.
  [[nodiscard]] const std::vector<std::uint64_t>& latch_support(
      std::size_t cell) const {
    return latch_support_[cell];
  }

  /// True iff transitions `a` and `b` carry statically provably
  /// complementary guards (the exclusivity Def 3.2 rule 3 accepts).
  [[nodiscard]] bool statically_exclusive(std::size_t a,
                                          std::size_t b) const {
    return single_class_[a] && single_class_[b] &&
           class_base_[a] == class_base_[b] &&
           class_positive_[a] != class_positive_[b];
  }

  /// True iff transition `t` has at least one guard port.
  [[nodiscard]] bool guarded(std::size_t t) const { return guarded_[t]; }

  /// Human-readable name of a cell's base condition (diagnostics).
  [[nodiscard]] const std::string& cell_name(std::size_t cell) const {
    return cell_names_[cell];
  }

 private:
  std::size_t cell_count_ = 0;
  std::vector<std::int32_t> constraint_cell_;
  std::vector<std::uint8_t> constraint_value_;
  std::vector<std::vector<std::uint64_t>> latch_support_;
  std::vector<std::string> cell_names_;
  // Static classification per transition (for exclusivity): valid only
  // when the transition is singly guarded and the guard classified.
  std::vector<bool> single_class_;
  std::vector<std::uint32_t> class_base_;
  std::vector<bool> class_positive_;
  std::vector<bool> guarded_;
};

}  // namespace camad::mc
