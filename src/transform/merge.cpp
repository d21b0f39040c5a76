#include "transform/merge.h"

#include <algorithm>
#include <optional>

#include "obs/trace.h"
#include "petri/order.h"
#include "util/error.h"

namespace camad::transform {
namespace {

using dcf::ArcId;
using dcf::PortId;
using dcf::VertexId;
using petri::PlaceId;

/// States associated with `v` per Def 2.4 (controlling an arc into one of
/// its input ports) — the states during which the unit is *used*.
std::vector<PlaceId> associated_states(const dcf::System& system,
                                       VertexId v) {
  std::vector<PlaceId> out;
  const dcf::DataPath& dp = system.datapath();
  for (PortId in : dp.input_ports(v)) {
    for (ArcId a : dp.arcs_into(in)) {
      for (PlaceId s : system.control().controlling_states(a)) {
        if (std::find(out.begin(), out.end(), s) == out.end()) {
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

/// States controlling an arc *from* one of v's output ports.
std::vector<PlaceId> reading_states(const dcf::System& system, VertexId v) {
  std::vector<PlaceId> out;
  const dcf::DataPath& dp = system.datapath();
  for (PortId o : dp.output_ports(v)) {
    for (ArcId a : dp.arcs_from(o)) {
      for (PlaceId s : system.control().controlling_states(a)) {
        if (std::find(out.begin(), out.end(), s) == out.end()) {
          out.push_back(s);
        }
      }
    }
  }
  return out;
}

MergeCheck can_merge_with(const dcf::System& system, VertexId vi, VertexId vj,
                          const semantics::AnalysisCache& cache);

}  // namespace

semantics::PreservedAnalyses merge_preserved_analyses() {
  return semantics::PreservedAnalyses::control_net();
}

MergeCheck can_merge(const dcf::System& system, VertexId vi, VertexId vj) {
  const semantics::AnalysisCache cache(system);
  return can_merge_with(system, vi, vj, cache);
}

MergeCheck can_merge(const dcf::System& system, VertexId vi, VertexId vj,
                     const semantics::AnalysisCache& cache) {
  if (!(cache.bound_to(system))) {
    throw Error("can_merge: analysis cache bound to a different system");
  }
  return can_merge_with(system, vi, vj, cache);
}

namespace {

/// The structural order α is cycle-blind — inside a loop, the back edge
/// puts *every* pair of body states in F⁺ both ways, so two states of
/// concurrent branches within the loop body count as "sequential order"
/// although they are co-marked in every iteration. Sharing a unit between
/// such states is a drive conflict, so legality additionally consults the
/// reachability-based concurrency relation (the semantic refinement).
MergeCheck can_merge_with(const dcf::System& system, VertexId vi, VertexId vj,
                          const semantics::AnalysisCache& cache) {
  const dcf::DataPath& dp = system.datapath();
  auto no = [](std::string why) { return MergeCheck{false, std::move(why)}; };

  if (vi == vj) return no("cannot merge a vertex with itself");
  if (vi.index() >= dp.vertex_count() || vj.index() >= dp.vertex_count()) {
    return no("vertex id out of range");
  }
  if (dp.kind(vi) != dcf::VertexKind::kInternal ||
      dp.kind(vj) != dcf::VertexKind::kInternal) {
    return no("external vertices are the observable interface; not mergeable");
  }
  if (dp.is_sequential_vertex(vi) || dp.is_sequential_vertex(vj)) {
    return no("sequential vertices hold state; use transform/regshare");
  }

  // Same operational definition and port structure (Def 4.6).
  if (dp.input_ports(vi).size() != dp.input_ports(vj).size() ||
      dp.output_ports(vi).size() != dp.output_ports(vj).size()) {
    return no("port structures differ");
  }
  for (std::size_t k = 0; k < dp.output_ports(vi).size(); ++k) {
    if (!(dp.operation(dp.output_ports(vi)[k]) ==
          dp.operation(dp.output_ports(vj)[k]))) {
      return no("operational definitions differ");
    }
  }

  // Associated control states pairwise in sequential order — and never
  // co-marked: the structural α says "sequential" for concurrent branches
  // inside one loop body (F⁺ holds both ways through the back edge), but
  // two simultaneously marked users of one shared unit drive its input
  // ports at once.
  const std::vector<PlaceId> ai = associated_states(system, vi);
  const std::vector<PlaceId> aj = associated_states(system, vj);
  for (PlaceId a : ai) {
    for (PlaceId b : aj) {
      if (a == b) {
        return no("state " + system.control().net().name(a) +
                  " uses both vertices simultaneously");
      }
      if (!cache.order().sequential(a, b)) {
        return no("states " + system.control().net().name(a) + " and " +
                  system.control().net().name(b) +
                  " are not in sequential order");
      }
      if (cache.co_marked(a, b)) {
        return no("states " + system.control().net().name(a) + " and " +
                  system.control().net().name(b) +
                  " are concurrently markable; sharing one unit between " +
                  "them is a drive conflict");
      }
    }
  }

  // Guard against dangling reads changing from ⊥ to a defined value: a
  // state reading a COM output must be one of the states driving it.
  for (VertexId v : {vi, vj}) {
    const auto assoc = associated_states(system, v);
    for (PlaceId s : reading_states(system, v)) {
      const bool driven =
          std::find(assoc.begin(), assoc.end(), s) != assoc.end() ||
          dp.input_ports(v).empty();  // constants are always defined
      if (!driven) {
        return no("state " + system.control().net().name(s) + " reads " +
                  dp.name(v) + " without driving it; merger would change " +
                  "the undefined value it observes");
      }
    }
  }
  return MergeCheck{true, {}};
}

}  // namespace

dcf::System merge_vertices(const dcf::System& system, VertexId vi,
                           VertexId vj) {
  const semantics::AnalysisCache cache(system);
  return merge_vertices(system, vi, vj, cache);
}

dcf::System merge_vertices(const dcf::System& system, VertexId vi,
                           VertexId vj,
                           const semantics::AnalysisCache& cache) {
  const obs::ObsSpan span("transform.merge");
  const MergeCheck check = can_merge(system, vi, vj, cache);
  if (!check.legal) {
    throw TransformError("merge_vertices: " + check.why);
  }
  // A one-pair collapse: vi folds onto vj; the control net is untouched.
  std::vector<VertexId> representative = system.datapath().vertices();
  representative[vi.index()] = vj;
  std::vector<PortId> port_map;
  dcf::DataPath merged = system.datapath().fold(representative, port_map);
  return system.with_datapath(std::move(merged), port_map);
}

std::vector<std::pair<VertexId, VertexId>> mergeable_pairs(
    const dcf::System& system) {
  const semantics::AnalysisCache cache(system);
  return mergeable_pairs(system, cache);
}

std::vector<std::pair<VertexId, VertexId>> mergeable_pairs(
    const dcf::System& system, const semantics::AnalysisCache& cache) {
  if (!(cache.bound_to(system))) {
    throw Error("mergeable_pairs: analysis cache bound to a different system");
  }
  std::vector<std::pair<VertexId, VertexId>> out;
  const std::size_t n = system.datapath().vertex_count();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = j + 1; i < n; ++i) {
      const VertexId vi(static_cast<VertexId::underlying_type>(i));
      const VertexId vj(static_cast<VertexId::underlying_type>(j));
      if (can_merge_with(system, vi, vj, cache).legal) {
        out.emplace_back(vi, vj);
      }
    }
  }
  return out;
}

dcf::System merge_all(const dcf::System& system, std::size_t* merges) {
  const semantics::AnalysisCache cache(system);
  return merge_all(system, cache, merges);
}

dcf::System merge_all(const dcf::System& system,
                      const semantics::AnalysisCache& cache,
                      std::size_t* merges) {
  if (!(cache.bound_to(system))) {
    throw Error("merge_all: analysis cache bound to a different system");
  }
  const obs::ObsSpan span("transform.merge-all");
  dcf::System current = system;
  // `current` starts as an identical copy of `system`, so every analysis
  // of the caller's cache is valid for it; rebind so fixpoint queries hit
  // a cache bound to the object they pass.
  std::optional<semantics::AnalysisCache> carried =
      cache.successor(current, semantics::PreservedAnalyses::all());
  const semantics::AnalysisCache* active = &*carried;
  std::size_t count = 0;
  while (true) {
    const auto pairs = mergeable_pairs(current, *active);
    if (pairs.empty()) break;
    current = merge_vertices(current, pairs.front().first,
                             pairs.front().second, *active);
    carried = active->successor(current, merge_preserved_analyses());
    active = &*carried;
    ++count;
  }
  if (merges != nullptr) *merges = count;
  return current;
}

}  // namespace camad::transform
