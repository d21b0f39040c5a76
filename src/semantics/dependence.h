// The data dependence relation — Defs 4.2-4.4.
//
// Direct dependence S_i ↔ S_j holds when (Def 4.3):
//   (a) R(S_i) ∩ dom(S_j) ≠ ∅          (write -> read)
//   (b) R(S_j) ∩ dom(S_i) ≠ ∅          (read -> write)
//   (c) R(S_i) ∩ R(S_j) ≠ ∅            (write -> write)
//   (d) control dependence: a transition adjacent to one state is guarded
//       by a port whose sequential support intersects the other's result
//       set
//   (e) both states control external arcs (environment order must hold)
//
// Def 4.4 takes the transitive closure ◇ = ↔⁺. Because ↔ is symmetric,
// the literal closure is the connected-component relation, which would
// freeze the relative order of *every* pair inside one dataflow component
// and nullify the parallelization the paper's Section 5 is about (e.g.
// two independent multiplications feeding one adder would become mutually
// dependent through the adder's state). CAMAD-style synthesis therefore
// uses the *direct* relation pairwise; this class exposes both, and the
// equivalence checker / transformations take the direct reading by
// default with `strict_transitive` restoring the literal Def 4.4 (ablated
// in E1).
#pragma once

#include <vector>

#include "dcf/system.h"
#include "util/bitset.h"

namespace camad::semantics {

struct DependenceOptions {
  bool clause_a = true;
  bool clause_b = true;
  bool clause_c = true;
  bool clause_d = true;
  bool clause_e = true;
};

class DependenceRelation {
 public:
  explicit DependenceRelation(const dcf::System& system,
                              const DependenceOptions& options = {});

  /// Direct dependence ↔ (symmetric).
  [[nodiscard]] bool direct(petri::PlaceId i, petri::PlaceId j) const {
    return direct_[i.index()].test(j.index());
  }
  /// Literal Def 4.4 closure ◇ (connected components of ↔).
  [[nodiscard]] bool transitive(petri::PlaceId i, petri::PlaceId j) const {
    return i != j && component_[i.index()] == component_[j.index()];
  }

  [[nodiscard]] std::size_t state_count() const { return direct_.size(); }

  /// Identical direct relation and components (used by the analysis-cache
  /// soundness tests).
  friend bool operator==(const DependenceRelation&,
                         const DependenceRelation&) = default;

 private:
  std::vector<DynamicBitset> direct_;     // state -> states, symmetric
  std::vector<std::size_t> component_;    // union-find result per state
};

}  // namespace camad::semantics
