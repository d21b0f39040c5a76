// Structural order relations of Def 2.3.
//
// Over X = S ∪ T with the flow relation F, the paper defines:
//   F⁺            transitive closure of F,
//   S_i ⇒ S_j     iff (S_i, S_j) ∈ F⁺          (sequential "before"),
//   α = ⇒ ∪ ⇐     (sequential order),
//   ∥ = S×S \ α   (parallel order).
//
// Two notes the implementation documents and tests pin down:
//  * The diagonal is excluded from ∥: a state is never "parallel with
//    itself" (the paper's set formula would otherwise contradict Def 3.2's
//    disjointness requirement for every acyclic net).
//  * ∥ is a structural over-approximation of true concurrency: exclusive
//    alternatives (if/else branches) are structurally unordered and hence
//    classified parallel although no reachable marking marks both. The
//    semantic refinement is semantics::AnalysisCache::concurrency().
#pragma once

#include <vector>

#include "petri/net.h"
#include "util/bitset.h"

namespace camad::petri {

class OrderRelations {
 public:
  explicit OrderRelations(const Net& net);

  /// S_i ⇒ S_j: a directed F-path from place i to place j exists.
  [[nodiscard]] bool before(PlaceId i, PlaceId j) const {
    return closure_[i.index()].test(j.index());
  }
  /// S_i α S_j: sequential order (either direction).
  [[nodiscard]] bool sequential(PlaceId i, PlaceId j) const {
    return before(i, j) || before(j, i);
  }
  /// S_i ∥ S_j: parallel order (distinct and not sequential).
  [[nodiscard]] bool parallel(PlaceId i, PlaceId j) const {
    return i != j && !sequential(i, j);
  }
  /// S_i and S_j lie on a common cycle (both ⇒ directions hold).
  [[nodiscard]] bool in_loop(PlaceId i, PlaceId j) const {
    return before(i, j) && before(j, i);
  }

  [[nodiscard]] std::size_t place_count() const { return closure_.size(); }

  /// Identical F⁺ closures (used by the analysis-cache soundness tests).
  friend bool operator==(const OrderRelations&,
                         const OrderRelations&) = default;

 private:
  std::vector<DynamicBitset> closure_;  // place -> reachable places via F⁺
};

}  // namespace camad::petri
