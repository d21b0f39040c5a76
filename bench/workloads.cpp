#include "workloads.h"

#include <sstream>

#include "synth/compile.h"
#include "synth/designs.h"

namespace camad::bench {

namespace {

// Bench-only design: a guarded loop whose expensive branch reads only
// the loop-invariant input `s`, so its (large, ~480-op) cone is
// byte-identical on every iteration after the first — only the trip
// counter and the accumulator actually change. This is the change-sparse
// workload shape the plan engine's change propagation exists for; the
// expression is generated wide enough that evaluating it would dominate
// a full per-iteration sweep.
std::string guarded_branch_source() {
  std::ostringstream os;
  os << "design guarded_branch {\n"
        "  in x;\n  out y;\n  var acc, i, s, w;\n  begin\n"
        "    acc := 0;\n    i := 48;\n    s := x;\n"
        "    while i > 0 {\n"
        "      if s > 10 {\n"
        "        w := ";
  for (int k = 0; k < 160; ++k) {
    if (k != 0) os << " + ";
    os << "(s + " << 2 * k + 1 << ") * (s + " << 2 * k + 2 << ")";
  }
  os << ";\n"
        "      } else {\n"
        "        w := s + 7;\n"
        "      }\n"
        "      acc := acc + w;\n      y := acc;\n      i := i - 1;\n"
        "    }\n  end\n}\n";
  return os.str();
}

}  // namespace

std::vector<BenchDesign> bench_designs() {
  std::vector<BenchDesign> out;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    out.push_back(
        {std::string(d.name), synth::compile_source(std::string(d.source))});
  }
  out.push_back(
      {"guarded_branch", synth::compile_source(guarded_branch_source())});
  return out;
}

sim::Environment fixed_environment(const dcf::System& system,
                                   const std::string& design_name) {
  sim::Environment env;
  auto stream = [&](const std::string& channel,
                    std::vector<std::int64_t> values) {
    const dcf::VertexId v = system.datapath().find_vertex(channel);
    if (v.valid()) env.set_stream(v, std::move(values));
  };
  if (design_name == "gcd") {
    stream("a", {252});
    stream("b", {105});  // gcd = 21, 8 subtraction steps
  } else if (design_name == "diffeq") {
    stream("a_in", {16});
    stream("dx_in", {1});
    stream("x_in", {0});
    stream("u_in", {1});
    stream("y_in", {1});  // 16 Euler iterations
  } else if (design_name == "fir8") {
    std::vector<std::int64_t> samples;
    for (int i = 0; i < 8; ++i) samples.push_back(10 + 3 * i);
    stream("sample", samples);
  } else if (design_name == "traffic") {
    // Bursty sensor: long constant runs (a queue of cars, then an empty
    // road), so consecutive polls usually see the same value — the
    // change-sparse shape change propagation targets.
    std::vector<std::int64_t> sensor;
    for (int i = 0; i < 12; ++i) sensor.push_back(i < 6 ? 80 : 10);
    stream("sensor", sensor);
  } else if (design_name == "guarded_branch") {
    stream("x", {42});  // take the expensive branch; its cone stays stable
  } else if (design_name == "ewf") {
    stream("s_in", {100});
    stream("c1", {3});
    stream("c2", {5});
    stream("c3", {2});
    stream("c4", {7});
  } else if (design_name == "parlab") {
    stream("a", {3, 4});
    stream("b", {5});
    stream("c", {2, 6});
    stream("d", {7});
  } else {
    env = sim::Environment::random_for(system, 11, 64, 1, 20);
  }
  return env;
}

std::string random_program(std::uint64_t seed,
                           const RandomProgramOptions& options) {
  Rng rng(seed);
  std::ostringstream os;

  const std::size_t nvars = std::max<std::size_t>(options.variables, 2);
  auto var = [&](std::size_t i) { return "v" + std::to_string(i); };
  auto random_var = [&] { return var(rng.below(nvars)); };

  os << "design prog" << seed << " {\n  in a, b;\n  out o;\n  var ";
  for (std::size_t i = 0; i < nvars; ++i) {
    if (i != 0) os << ", ";
    os << var(i);
  }
  for (std::size_t l = 0; l < options.loops; ++l) os << ", k" << l;
  os << ";\n  begin\n";

  // Initialize every variable (some from inputs, some constants).
  for (std::size_t i = 0; i < nvars; ++i) {
    os << "    " << var(i) << " := ";
    switch (rng.below(3)) {
      case 0: os << "a"; break;
      case 1: os << "b"; break;
      default: os << rng.range(1, 20); break;
    }
    os << ";\n";
  }

  // Division-free random operator, biased toward add/sub.
  auto random_op = [&]() -> const char* {
    switch (rng.below(6)) {
      case 0:
      case 1: return "+";
      case 2:
      case 3: return "-";
      case 4: return "*";
      default: return "^";
    }
  };
  auto random_assign = [&](int indent) {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << pad << random_var() << " := " << random_var() << ' ' << random_op()
       << ' ';
    if (rng.chance(0.3)) {
      os << rng.range(1, 9);
    } else {
      os << random_var();
    }
    os << ";\n";
  };

  for (std::size_t i = 0; i < options.straight_line_ops; ++i) {
    random_assign(4);
  }
  for (std::size_t brn = 0; brn < options.branches; ++brn) {
    os << "    if " << random_var() << " > " << rng.range(0, 40) << " {\n";
    random_assign(6);
    os << "    } else {\n";
    random_assign(6);
    os << "    }\n";
  }
  for (std::size_t l = 0; l < options.loops; ++l) {
    os << "    k" << l << " := " << options.loop_trip << ";\n";
    os << "    while k" << l << " > 0 {\n";
    random_assign(6);
    random_assign(6);
    os << "      k" << l << " := k" << l << " - 1;\n    }\n";
  }
  os << "    o := " << random_var() << ";\n";
  os << "  end\n}\n";
  return os.str();
}

namespace {

/// Recursive series-parallel block between a fresh entry and exit place.
/// Returns (entry, exit).
std::pair<petri::PlaceId, petri::PlaceId> sp_block(petri::Net& net, Rng& rng,
                                                   const SpNetOptions& options,
                                                   std::size_t depth) {
  // Sequential run of `chain` places.
  auto make_chain = [&]() {
    const petri::PlaceId entry = net.add_place();
    petri::PlaceId cursor = entry;
    for (std::size_t i = 1; i < std::max<std::size_t>(options.chain, 1);
         ++i) {
      const petri::PlaceId next = net.add_place();
      const petri::TransitionId t = net.add_transition();
      net.connect(cursor, t);
      net.connect(t, next);
      cursor = next;
    }
    return std::make_pair(entry, cursor);
  };

  if (depth == 0 || rng.chance(0.25)) return make_chain();

  // Fork into `width` sub-blocks, then join.
  const petri::PlaceId entry = net.add_place();
  const petri::PlaceId exit = net.add_place();
  const petri::TransitionId fork = net.add_transition();
  const petri::TransitionId join = net.add_transition();
  net.connect(entry, fork);
  net.connect(join, exit);
  for (std::size_t w = 0; w < std::max<std::size_t>(options.width, 2); ++w) {
    const auto [sub_entry, sub_exit] = sp_block(net, rng, options, depth - 1);
    net.connect(fork, sub_entry);
    net.connect(sub_exit, join);
  }
  return {entry, exit};
}

}  // namespace

petri::Net random_sp_net(std::uint64_t seed, const SpNetOptions& options) {
  Rng rng(seed);
  petri::Net net;
  const auto [entry, exit] = sp_block(net, rng, options, options.depth);
  net.set_initial_tokens(entry, 1);
  // Drain transition so the net can terminate.
  const petri::TransitionId t_end = net.add_transition();
  net.connect(exit, t_end);
  return net;
}

}  // namespace camad::bench
