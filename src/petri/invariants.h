// Structural (linear-algebraic) Petri-net invariants.
//
// With incidence matrix C (|S| rows, |T| columns, C[p][t] = post - pre),
// a P-invariant is an integer vector y ≥ 0, y ≠ 0 with yᵀC = 0 — the
// y-weighted token sum is constant under firing. A net covered by
// P-invariants with all initial sums ≤ 1 is safe without state-space
// exploration (the fast path of the Def 3.2 safety check). The minimal
// semi-positive P-invariants come from Farkas' algorithm in exact integer
// arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "petri/net.h"

namespace camad::petri {

/// Incidence matrix C with C[p][t] = tokens produced - tokens consumed.
std::vector<std::vector<std::int64_t>> incidence_matrix(const Net& net);

/// True iff `y` is a P-invariant of the net (yᵀC = 0).
bool is_p_invariant(const Net& net, const std::vector<std::int64_t>& y);

/// Semi-positive P-invariants found by combining basis vectors (best
/// effort; complete for the fork/join nets the compiler emits).
std::vector<std::vector<std::int64_t>> semi_positive_p_invariants(
    const Net& net);

/// Structural safety certificate: every place is covered by a semi-positive
/// P-invariant whose initial weighted token count is <= 1. Sufficient (not
/// necessary) for safety; O(poly) vs reachability's exponential worst case.
bool covered_by_safe_invariants(const Net& net);

}  // namespace camad::petri
