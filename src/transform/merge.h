// Vertex merger — the control-invariant transformation of Def 4.6.
//
// Merging V_i into V_j shares one hardware unit between two sets of
// operations: legal when both vertices have the same operational
// definition and port structure and their associated control states are
// pairwise in sequential order (they never compete for the unit). The
// result keeps the control structure untouched; arcs are re-anchored to
// V_j's ports *preserving arc identity*, so every C(S) stays valid. The
// merger is a one-pair vertex collapse (dcf::DataPath::fold, shared with
// transform/regshare) under dcf::System::with_datapath, the one
// control-invariant rebuild, which copies the control net — weighted
// arcs included — and re-anchors only the guard ports.
//
// Beyond the paper: merging *sequential* vertices (registers) is rejected
// here — two registers hold distinct state, and Def 4.6's proof silently
// assumes value lifetimes don't overlap; the sound register-sharing
// transformation (live-range analysis + merge) lives in
// transform/regshare.h.
#pragma once

#include <string>
#include <vector>

#include "dcf/system.h"
#include "semantics/analysis.h"

namespace camad::transform {

struct MergeCheck {
  bool legal = false;
  std::string why;  ///< reason when illegal
};

/// Analyses of the input that stay valid for the merged system: the
/// merger copies the control net by value, so every Petri-net analysis
/// (reachability, concurrency, structural order) carries over. The
/// dependence relation does *not* — vertex ids are renumbered and the
/// merged COM's output supports are unions of the originals', which can
/// grow clause (d) control dependences.
[[nodiscard]] semantics::PreservedAnalyses merge_preserved_analyses();

/// Checks Def 4.6's preconditions for merging `vi` into `vj`. The cached
/// overload pulls the structural order and the reachable-concurrency
/// relation from `cache` (which must be bound to `system`) instead of
/// recomputing them — this is the hot path of the optimizer's pair sweep.
MergeCheck can_merge(const dcf::System& system, dcf::VertexId vi,
                     dcf::VertexId vj);
MergeCheck can_merge(const dcf::System& system, dcf::VertexId vi,
                     dcf::VertexId vj, const semantics::AnalysisCache& cache);

/// Performs the merger; throws TransformError unless can_merge passes.
/// Vertex ids are renumbered (V_i disappears); arc ids are preserved.
dcf::System merge_vertices(const dcf::System& system, dcf::VertexId vi,
                           dcf::VertexId vj);
dcf::System merge_vertices(const dcf::System& system, dcf::VertexId vi,
                           dcf::VertexId vj,
                           const semantics::AnalysisCache& cache);

/// All currently legal (vi, vj) pairs, vi > vj (merge higher id into
/// lower, keeping ids stable for chained mergers).
std::vector<std::pair<dcf::VertexId, dcf::VertexId>> mergeable_pairs(
    const dcf::System& system);
std::vector<std::pair<dcf::VertexId, dcf::VertexId>> mergeable_pairs(
    const dcf::System& system, const semantics::AnalysisCache& cache);

/// Greedily merges legal pairs until none remain; returns the final
/// system and the number of mergers performed. Carries one AnalysisCache
/// across the whole fixpoint (mergers preserve the control net); the
/// cached overload seeds the fixpoint with the caller's cache.
dcf::System merge_all(const dcf::System& system, std::size_t* merges = nullptr);
dcf::System merge_all(const dcf::System& system,
                      const semantics::AnalysisCache& cache,
                      std::size_t* merges = nullptr);

}  // namespace camad::transform
