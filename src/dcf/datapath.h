// The data path D = (V, I, O, A, B) of Def 2.1.
//
// Vertices model data-manipulation units (registers, operators, channels,
// environment boundaries); ports abstract their I/O behaviour; arcs are
// unit-to-unit connections; B binds every output port to an operation over
// the owning vertex's input ports (in declaration order).
//
// External vertices (Def 3.3): kInput vertices have exactly one output
// port and no inputs (the environment drives them); kOutput vertices have
// exactly one input port and no outputs (the environment observes them).
// Arcs touching external ports are *external arcs* — the carriers of the
// observable events that define the system's semantics.
#pragma once

#include <string>
#include <vector>

#include "dcf/ops.h"
#include "util/ids.h"

namespace camad::dcf {

struct VertexTag;
struct PortTag;
struct ArcTag;
using VertexId = StrongId<VertexTag>;
using PortId = StrongId<PortTag>;
using ArcId = StrongId<ArcTag>;

enum class VertexKind : std::uint8_t {
  kInternal,  ///< ordinary data-manipulation unit
  kInput,     ///< environment source (single output port)
  kOutput,    ///< environment sink (single input port)
};

enum class PortDir : std::uint8_t { kIn, kOut };

class DataPath {
 public:
  // --- construction -------------------------------------------------------
  VertexId add_vertex(std::string name,
                      VertexKind kind = VertexKind::kInternal);
  PortId add_input_port(VertexId v, std::string name = {});
  PortId add_output_port(VertexId v, Operation op, std::string name = {});
  /// Connects an output port to an input port (may belong to one vertex).
  ArcId add_arc(PortId from_output, PortId to_input);

  /// This data path with each vertex v folded onto representative[v] (v
  /// itself when it stays; a representative stays): the kept vertices
  /// and their ports are re-added in id order, a folded vertex's k-th
  /// input and output ports become its representative's k-th ones, and
  /// the arcs are re-added in id order, so every arc id survives. Fills
  /// `port_map` with the old-to-new port map.
  [[nodiscard]] DataPath fold(const std::vector<VertexId>& representative,
                              std::vector<PortId>& port_map) const;

  // Convenience factories for the common unit shapes.
  /// Environment source: kInput vertex with one kInput-op output port.
  VertexId add_input(std::string name);
  /// Environment sink: kOutput vertex with one input port.
  VertexId add_output(std::string name);
  /// Register: one input, one sequential output (kReg).
  VertexId add_register(std::string name);
  /// Combinatorial unit with op_arity(code) inputs and one output.
  VertexId add_unit(std::string name, OpCode code);
  /// Constant source: no inputs, one kConst output.
  VertexId add_constant(std::string name, std::int64_t value);

  // --- structure queries ---------------------------------------------------
  [[nodiscard]] std::size_t vertex_count() const { return vertices_.size(); }
  [[nodiscard]] std::size_t port_count() const { return ports_.size(); }
  [[nodiscard]] std::size_t arc_count() const { return arcs_.size(); }

  [[nodiscard]] const std::string& name(VertexId v) const {
    return vertices_[v.index()].name;
  }
  [[nodiscard]] const std::string& name(PortId p) const {
    return ports_[p.index()].name;
  }
  [[nodiscard]] VertexKind kind(VertexId v) const {
    return vertices_[v.index()].kind;
  }
  [[nodiscard]] const std::vector<PortId>& input_ports(VertexId v) const {
    return vertices_[v.index()].inputs;
  }
  [[nodiscard]] const std::vector<PortId>& output_ports(VertexId v) const {
    return vertices_[v.index()].outputs;
  }

  [[nodiscard]] PortDir direction(PortId p) const {
    return ports_[p.index()].dir;
  }
  [[nodiscard]] VertexId owner(PortId p) const {
    return ports_[p.index()].owner;
  }
  /// Operation bound to an output port (B of Def 2.1).
  [[nodiscard]] const Operation& operation(PortId output) const;
  /// Arcs leaving an output port (fanout) / entering an input port.
  [[nodiscard]] const std::vector<ArcId>& arcs_from(PortId output) const {
    return ports_[output.index()].arcs;
  }
  [[nodiscard]] const std::vector<ArcId>& arcs_into(PortId input) const {
    return ports_[input.index()].arcs;
  }

  [[nodiscard]] PortId arc_source(ArcId a) const {
    return arcs_[a.index()].from;
  }
  [[nodiscard]] PortId arc_target(ArcId a) const { return arcs_[a.index()].to; }
  /// Vertex owning the arc's source / target port.
  [[nodiscard]] VertexId arc_source_vertex(ArcId a) const {
    return owner(arcs_[a.index()].from);
  }
  [[nodiscard]] VertexId arc_target_vertex(ArcId a) const {
    return owner(arcs_[a.index()].to);
  }

  /// A vertex is *sequential* if some output port's op is SEQ, or it is an
  /// environment vertex (an output sink latches into the environment, an
  /// input source holds the environment's value). Used by Def 3.2 rule 5.
  [[nodiscard]] bool is_sequential_vertex(VertexId v) const;

  /// Arc is external iff it touches an external vertex (Def 3.3).
  [[nodiscard]] bool is_external_arc(ArcId a) const;
  [[nodiscard]] std::vector<ArcId> external_arcs() const;

  /// Single output port of a kInput vertex.
  [[nodiscard]] PortId the_output_port(VertexId input_vertex) const;

  [[nodiscard]] std::vector<VertexId> vertices() const;
  [[nodiscard]] std::vector<ArcId> arcs() const;

  /// Vertex lookup by name; invalid id when absent (names need not be
  /// unique — first match wins; the builder keeps them unique).
  [[nodiscard]] VertexId find_vertex(std::string_view name) const;

  /// Structural sanity: every port attached, external vertex shapes, mux
  /// select arity, arc endpoint directions. Throws ModelError on violation.
  void validate() const;

 private:
  struct Vertex {
    std::string name;
    VertexKind kind;
    std::vector<PortId> inputs;
    std::vector<PortId> outputs;
  };
  struct Port {
    std::string name;
    PortDir dir;
    VertexId owner;
    Operation op;             // meaningful for output ports only
    std::vector<ArcId> arcs;  // fanout (out ports) or fan-in (in ports)
  };
  struct Arc {
    PortId from;
    PortId to;
  };

  std::vector<Vertex> vertices_;
  std::vector<Port> ports_;
  std::vector<Arc> arcs_;
};

}  // namespace camad::dcf
