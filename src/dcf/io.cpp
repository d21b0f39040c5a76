#include "dcf/io.h"

#include <sstream>
#include <vector>

#include "util/error.h"
#include "util/strings.h"

namespace camad::dcf {
namespace {

const char* kind_name(VertexKind kind) {
  switch (kind) {
    case VertexKind::kInput: return "input";
    case VertexKind::kOutput: return "output";
    case VertexKind::kInternal: return "internal";
  }
  return "?";
}

VertexKind kind_from_name(const std::string& name, int line) {
  if (name == "input") return VertexKind::kInput;
  if (name == "output") return VertexKind::kOutput;
  if (name == "internal") return VertexKind::kInternal;
  throw ParseError("unknown vertex kind '" + name + "'", line, 1);
}

}  // namespace

std::string save_system(const System& system) {
  const DataPath& dp = system.datapath();
  const auto& net = system.control().net();
  std::ostringstream os;
  os << "camad-system v1\n";
  os << "name " << system.name() << '\n';

  for (VertexId v : dp.vertices()) {
    os << "vertex " << kind_name(dp.kind(v)) << ' ' << dp.name(v) << '\n';
  }
  // Ports in global id order so arc indices below line up on reload.
  for (std::size_t i = 0; i < dp.port_count(); ++i) {
    const PortId p(static_cast<PortId::underlying_type>(i));
    if (dp.direction(p) == PortDir::kIn) {
      os << "port in " << dp.owner(p).value() << ' ' << dp.name(p) << '\n';
    } else {
      const Operation& op = dp.operation(p);
      os << "port out " << dp.owner(p).value() << ' ' << dp.name(p) << ' '
         << op_name(op.code);
      if (op.code == OpCode::kConst) os << ' ' << op.immediate;
      os << '\n';
    }
  }
  for (ArcId a : dp.arcs()) {
    os << "arc " << dp.arc_source(a).value() << ' ' << dp.arc_target(a).value()
       << '\n';
  }
  for (petri::PlaceId s : net.places()) {
    os << "state " << net.name(s) << ' ' << net.initial_tokens(s) << '\n';
  }
  for (petri::TransitionId t : net.transitions()) {
    os << "trans " << net.name(t) << '\n';
  }
  // Weighted arcs are multiset entries in pre/post; collapse each pair to
  // one line with the weight appended (omitted when 1, the legacy form).
  const auto emit_flow = [&os](const char* dir, std::uint32_t a,
                               std::uint32_t b, std::uint32_t weight) {
    os << "flow " << dir << ' ' << a << ' ' << b;
    if (weight > 1) os << ' ' << weight;
    os << '\n';
  };
  for (petri::TransitionId t : net.transitions()) {
    for (petri::PlaceId s : petri::distinct(net.pre(t))) {
      emit_flow("st", s.value(), t.value(), net.arc_weight(s, t));
    }
    for (petri::PlaceId s : petri::distinct(net.post(t))) {
      emit_flow("ts", t.value(), s.value(), net.arc_weight(t, s));
    }
  }
  for (petri::PlaceId s : net.places()) {
    for (ArcId a : system.control().controlled_arcs(s)) {
      os << "control " << s.value() << ' ' << a.value() << '\n';
    }
  }
  for (petri::TransitionId t : net.transitions()) {
    for (PortId g : system.control().guards(t)) {
      os << "guard " << t.value() << ' ' << g.value() << '\n';
    }
  }
  os << "end\n";
  return os.str();
}

System load_system(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  int line_no = 0;

  auto next_line = [&]() -> bool {
    while (std::getline(is, line)) {
      ++line_no;
      line = std::string(trim(line));
      if (!line.empty() && line[0] != '#') return true;
    }
    return false;
  };

  if (!next_line() || line != "camad-system v1") {
    throw ParseError("missing 'camad-system v1' header", line_no, 1);
  }

  DataPath dp;
  ControlNet cn;
  std::string system_name = "system";
  bool saw_end = false;

  // Port and arc ids must be assigned in file order; the builders do that
  // naturally, but vertex port lists depend on add order too, so ports are
  // recorded in global order in the file.
  while (next_line()) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    auto fail = [&](const std::string& why) -> ParseError {
      return ParseError(why + " in '" + line + "'", line_no, 1);
    };

    if (tag == "name") {
      ls >> system_name;
    } else if (tag == "vertex") {
      std::string kind, name;
      if (!(ls >> kind >> name)) throw fail("vertex needs kind and name");
      dp.add_vertex(name, kind_from_name(kind, line_no));
    } else if (tag == "port") {
      std::string dir, name;
      unsigned vertex = 0;
      if (!(ls >> dir >> vertex >> name)) throw fail("malformed port");
      if (vertex >= dp.vertex_count()) throw fail("port vertex out of range");
      if (dir == "in") {
        dp.add_input_port(VertexId(vertex), name);
      } else if (dir == "out") {
        std::string opname;
        if (!(ls >> opname)) throw fail("output port needs an op");
        Operation op{op_from_name(opname), 0};
        if (op.code == OpCode::kConst && !(ls >> op.immediate)) {
          throw fail("const port needs an immediate");
        }
        dp.add_output_port(VertexId(vertex), op, name);
      } else {
        throw fail("port direction must be in/out");
      }
    } else if (tag == "arc") {
      unsigned from = 0, to = 0;
      if (!(ls >> from >> to)) throw fail("malformed arc");
      if (from >= dp.port_count() || to >= dp.port_count()) {
        throw fail("arc port out of range");
      }
      dp.add_arc(PortId(from), PortId(to));
    } else if (tag == "state") {
      std::string name;
      unsigned tokens = 0;
      if (!(ls >> name >> tokens)) throw fail("malformed state");
      const petri::PlaceId s = cn.add_state(name);
      cn.net().set_initial_tokens(s, tokens);
    } else if (tag == "trans") {
      std::string name;
      if (!(ls >> name)) throw fail("malformed trans");
      cn.add_transition(name);
    } else if (tag == "flow") {
      std::string dir;
      unsigned a = 0, b = 0;
      if (!(ls >> dir >> a >> b)) throw fail("malformed flow");
      unsigned weight = 1;  // optional trailing field, legacy lines omit it
      if (!(ls >> weight)) {
        weight = 1;  // failed extraction zeroes the value; restore default
      } else if (weight == 0) {
        throw fail("flow weight must be positive");
      }
      if (dir == "st") {
        cn.net().connect(petri::PlaceId(a), petri::TransitionId(b), weight);
      } else if (dir == "ts") {
        cn.net().connect(petri::TransitionId(a), petri::PlaceId(b), weight);
      } else {
        throw fail("flow direction must be st/ts");
      }
    } else if (tag == "control") {
      unsigned s = 0, a = 0;
      if (!(ls >> s >> a)) throw fail("malformed control");
      cn.control(petri::PlaceId(s), ArcId(a));
    } else if (tag == "guard") {
      unsigned t = 0, p = 0;
      if (!(ls >> t >> p)) throw fail("malformed guard");
      cn.guard(petri::TransitionId(t), PortId(p));
    } else if (tag == "end") {
      saw_end = true;
      break;
    } else {
      throw fail("unknown directive '" + tag + "'");
    }
  }
  if (!saw_end) throw ParseError("missing 'end'", line_no, 1);

  System system(std::move(dp), std::move(cn), system_name);
  system.validate();
  return system;
}

}  // namespace camad::dcf
