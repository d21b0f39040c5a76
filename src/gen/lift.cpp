#include "gen/lift.h"

#include <vector>

#include "dcf/builder.h"
#include "dcf/io.h"
#include "petri/pnml.h"
#include "synth/compile.h"
#include "util/strings.h"

namespace camad::gen {
namespace {

/// PNML names may contain whitespace; the `.sys` format (and most
/// downstream reports) are whitespace-delimited, so map it to '_'.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') c = '_';
  }
  return out;
}

}  // namespace

dcf::System lift_control_net(const petri::Net& control,
                             const LiftOptions& options,
                             const std::string& name) {
  using petri::PlaceId;
  using petri::TransitionId;

  dcf::SystemBuilder b;

  // States and transitions in index order, so the ids of the imported net
  // carry over unchanged.
  std::vector<PlaceId> states;
  states.reserve(control.place_count());
  for (PlaceId p : control.places()) {
    const PlaceId s = b.state(sanitize(control.name(p)));
    b.controlnet().net().set_initial_tokens(s, control.initial_tokens(p));
    states.push_back(s);
  }
  for (TransitionId t : control.transitions()) {
    b.transition(sanitize(control.name(t)));
  }

  // Flow arcs: one connect per distinct (source, target) pair carrying
  // the multiset weight.
  for (TransitionId t : control.transitions()) {
    for (PlaceId p : petri::distinct(control.pre(t))) {
      b.controlnet().net().connect(p, t, control.arc_weight(p, t));
    }
    for (PlaceId p : petri::distinct(control.post(t))) {
      b.controlnet().net().connect(t, p, control.arc_weight(t, p));
    }
  }

  if (options.stub == StubStyle::kRegisterPerState) {
    const dcf::VertexId env = b.input("env");
    for (std::size_t i = 0; i < states.size(); ++i) {
      const dcf::VertexId r = b.reg("r" + std::to_string(i));
      b.connect(env, r, 0, {states[i]});
    }
  }

  return b.build(name);
}

dcf::System parse_design_text(const std::string& text,
                              const std::string& fallback_name) {
  const std::string_view trimmed = trim(text);
  if (starts_with(trimmed, "camad-system")) {
    return dcf::load_system(text);
  }
  if (starts_with(trimmed, "<")) {
    const petri::PnmlImport imported = petri::from_pnml(text);
    const std::string name =
        !imported.net_id.empty() ? imported.net_id : fallback_name;
    return lift_control_net(imported.net, LiftOptions{}, name);
  }
  return synth::compile_source(text);
}

}  // namespace camad::gen
