#include "synth/design_hash.h"

#include <algorithm>
#include <bit>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace camad::synth {
namespace {

// splitmix64 finalizer: the diffusion step between refinement rounds.
// Fixed constants keep the hash identical across platforms and runs
// (std::hash makes no such promise).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t combine(std::uint64_t h, std::uint64_t v) {
  return mix(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

std::uint64_t hash_string(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix(h);
}

// Node-class and edge-type tags. Forward and reverse directions of every
// relation get distinct types so refinement distinguishes producer from
// consumer roles.
enum : std::uint64_t {
  kTagVertex = 0x11,
  kTagPort = 0x22,
  kTagArc = 0x33,
  kTagPlace = 0x44,
  kTagTransition = 0x55,
  kEdgeOwnerToPort = 1,
  kEdgePortToOwner = 2,
  kEdgeSourceToArc = 3,
  kEdgeArcToSource = 4,
  kEdgeArcToTarget = 5,
  kEdgeTargetToArc = 6,
  kEdgePlaceToTransition = 7,
  kEdgeTransitionFromPlace = 8,
  kEdgeTransitionToPlace = 9,
  kEdgePlaceFromTransition = 10,
  kEdgeControlPlaceToArc = 11,
  kEdgeControlArcToPlace = 12,
  kEdgeGuardPortToTransition = 13,
  kEdgeGuardTransitionToPort = 14,
};

// One typed union-graph edge, in the flat list build() collects
// before the counting sort groups edges by source node.
struct Edge {
  std::uint32_t from = 0;
  std::uint32_t type = 0;
  std::uint32_t to = 0;
};

// A CSR neighbour: node n's typed neighbours are
// neighbours[offsets[n] .. offsets[n + 1]).
struct Neighbour {
  std::uint32_t type = 0;
  std::uint32_t node = 0;
};

struct UnionGraph {
  std::vector<std::uint64_t> labels;
  std::vector<std::uint32_t> offsets;
  std::vector<Neighbour> neighbours;
};

UnionGraph build(const dcf::System& system) {
  const dcf::DataPath& dp = system.datapath();
  const dcf::ControlNet& cn = system.control();
  const petri::Net& net = cn.net();

  const std::size_t nv = dp.vertex_count();
  const std::size_t np = dp.port_count();
  const std::size_t na = dp.arc_count();
  const std::size_t ns = net.place_count();
  const std::size_t nt = net.transition_count();
  const std::size_t total = nv + np + na + ns + nt;

  const auto vertex_node = [&](dcf::VertexId v) {
    return static_cast<std::uint32_t>(v.index());
  };
  const auto port_node = [&](dcf::PortId p) {
    return static_cast<std::uint32_t>(nv + p.index());
  };
  const auto arc_node = [&](dcf::ArcId a) {
    return static_cast<std::uint32_t>(nv + np + a.index());
  };
  const auto place_node = [&](petri::PlaceId p) {
    return static_cast<std::uint32_t>(nv + np + na + p.index());
  };
  const auto transition_node = [&](petri::TransitionId t) {
    return static_cast<std::uint32_t>(nv + np + na + ns + t.index());
  };

  UnionGraph g;
  g.labels.assign(total, 0);
  // About two edges per port, six per arc (its endpoints and the state
  // that controls it) and four per transition (one pre, one post place).
  std::vector<Edge> edges;
  edges.reserve(2 * np + 6 * na + 4 * nt);
  const auto edge = [&](std::uint64_t type, std::uint32_t from,
                        std::uint32_t to) {
    edges.push_back({from, static_cast<std::uint32_t>(type), to});
  };

  for (const dcf::VertexId v : dp.vertices()) {
    const dcf::VertexKind kind = dp.kind(v);
    std::uint64_t label = combine(kTagVertex, static_cast<std::uint64_t>(kind));
    // Only the environment interface is nominal; internal unit names are
    // bookkeeping and must not split otherwise-isomorphic designs.
    if (kind != dcf::VertexKind::kInternal) {
      label = combine(label, hash_string(dp.name(v)));
    }
    g.labels[vertex_node(v)] = label;

    const auto attach = [&](const std::vector<dcf::PortId>& ports,
                            std::uint64_t side) {
      for (std::size_t i = 0; i < ports.size(); ++i) {
        const dcf::PortId p = ports[i];
        std::uint64_t port_label = combine(kTagPort, side);
        // Operand position is semantics (a - b vs b - a), so it is part
        // of the port label even though ids are not.
        port_label = combine(port_label, static_cast<std::uint64_t>(i));
        if (dp.direction(p) == dcf::PortDir::kOut) {
          const dcf::Operation& op = dp.operation(p);
          port_label =
              combine(port_label, static_cast<std::uint64_t>(op.code));
          port_label =
              combine(port_label, static_cast<std::uint64_t>(op.immediate));
        }
        g.labels[port_node(p)] = port_label;
        edge(kEdgeOwnerToPort, vertex_node(v), port_node(p));
        edge(kEdgePortToOwner, port_node(p), vertex_node(v));
      }
    };
    attach(dp.input_ports(v), 1);
    attach(dp.output_ports(v), 2);
  }

  for (const dcf::ArcId a : dp.arcs()) {
    g.labels[arc_node(a)] = mix(kTagArc);
    edge(kEdgeSourceToArc, port_node(dp.arc_source(a)), arc_node(a));
    edge(kEdgeArcToSource, arc_node(a), port_node(dp.arc_source(a)));
    edge(kEdgeArcToTarget, arc_node(a), port_node(dp.arc_target(a)));
    edge(kEdgeTargetToArc, port_node(dp.arc_target(a)), arc_node(a));
  }

  for (const petri::PlaceId p : net.places()) {
    g.labels[place_node(p)] =
        combine(kTagPlace, static_cast<std::uint64_t>(net.initial_tokens(p)));
    // pre/post store one entry per unit of arc weight, so weighted flow
    // contributes naturally through edge multiplicity.
    for (const petri::TransitionId t : net.post(p)) {
      edge(kEdgePlaceToTransition, place_node(p), transition_node(t));
      edge(kEdgeTransitionFromPlace, transition_node(t), place_node(p));
    }
    for (const petri::TransitionId t : net.pre(p)) {
      edge(kEdgePlaceFromTransition, place_node(p), transition_node(t));
      edge(kEdgeTransitionToPlace, transition_node(t), place_node(p));
    }
    for (const dcf::ArcId a : cn.controlled_arcs(p)) {
      edge(kEdgeControlPlaceToArc, place_node(p), arc_node(a));
      edge(kEdgeControlArcToPlace, arc_node(a), place_node(p));
    }
  }

  for (const petri::TransitionId t : net.transitions()) {
    g.labels[transition_node(t)] = mix(kTagTransition);
    for (const dcf::PortId p : cn.guards(t)) {
      edge(kEdgeGuardPortToTransition, port_node(p), transition_node(t));
      edge(kEdgeGuardTransitionToPort, transition_node(t), port_node(p));
    }
  }

  // Counting sort by source node into CSR. Each neighbourhood is sorted
  // by value every round, so the order within a node does not matter.
  g.offsets.assign(total + 1, 0);
  for (const Edge& e : edges) ++g.offsets[e.from + 1];
  for (std::size_t n = 0; n < total; ++n) g.offsets[n + 1] += g.offsets[n];
  std::vector<std::uint32_t> cursor(g.offsets.begin(), g.offsets.end() - 1);
  g.neighbours.resize(edges.size());
  for (const Edge& e : edges) g.neighbours[cursor[e.from]++] = {e.type, e.to};
  return g;
}

// Exact count of distinct labels: one pass of linear probing over a
// power-of-two table at most half full. Labels are mix() outputs, so
// their low bits index the table directly. Zero marks an empty slot, so
// a zero label is counted on the side.
class DistinctCounter {
 public:
  explicit DistinctCounter(std::size_t n)
      : slots_(std::bit_ceil(std::max<std::size_t>(2 * n, 2)), 0) {}

  std::size_t count(const std::vector<std::uint64_t>& labels) {
    std::fill(slots_.begin(), slots_.end(), 0);
    const std::size_t mask = slots_.size() - 1;
    bool zero = false;
    std::size_t distinct = 0;
    for (const std::uint64_t label : labels) {
      if (label == 0) {
        zero = true;
        continue;
      }
      std::size_t i = static_cast<std::size_t>(label) & mask;
      while (slots_[i] != 0 && slots_[i] != label) i = (i + 1) & mask;
      if (slots_[i] == 0) {
        slots_[i] = label;
        ++distinct;
      }
    }
    return distinct + (zero ? 1 : 0);
  }

 private:
  std::vector<std::uint64_t> slots_;
};

}  // namespace

std::uint64_t design_hash(const dcf::System& system) {
  const obs::ObsSpan span("synth.design_hash");
  UnionGraph g = build(system);
  const std::size_t total = g.labels.size();
  if (total == 0) return mix(0);

  // Refine until the label partition stops splitting. The stop rule
  // (distinct-label count, itself renumbering-invariant) bounds rounds by
  // the node count; in practice a handful suffice. Every neighbourhood
  // is mixed and sorted in its own slice of one flat array.
  std::vector<std::uint64_t> next(total);
  std::vector<std::uint64_t> mixed(g.neighbours.size());
  DistinctCounter counter(total);
  std::size_t distinct = counter.count(g.labels);
  for (std::size_t round = 0; round < total; ++round) {
    for (std::size_t n = 0; n < total; ++n) {
      std::uint64_t* const first = mixed.data() + g.offsets[n];
      std::uint64_t* const last = mixed.data() + g.offsets[n + 1];
      const Neighbour* nbr = g.neighbours.data() + g.offsets[n];
      for (std::uint64_t* v = first; v != last; ++v, ++nbr) {
        *v = combine(nbr->type, g.labels[nbr->node]);
      }
      std::sort(first, last);
      std::uint64_t h = mix(g.labels[n]);
      for (const std::uint64_t* v = first; v != last; ++v) h = combine(h, *v);
      next[n] = h;
    }
    g.labels.swap(next);
    const std::size_t refined = counter.count(g.labels);
    if (refined <= distinct) break;
    distinct = refined;
  }

  // Digest: node-class sizes plus the sorted final label multiset.
  const dcf::DataPath& dp = system.datapath();
  const petri::Net& net = system.control().net();
  std::uint64_t h = mix(0x5eed);
  h = combine(h, dp.vertex_count());
  h = combine(h, dp.port_count());
  h = combine(h, dp.arc_count());
  h = combine(h, net.place_count());
  h = combine(h, net.transition_count());
  std::sort(g.labels.begin(), g.labels.end());
  for (const std::uint64_t label : g.labels) h = combine(h, label);
  return h;
}

}  // namespace camad::synth
