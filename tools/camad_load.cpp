// camad_load — deterministic-seed load generator and differential
// checker for a running camadd.
//
//   camad_load --port N [--smoke]
//              [--clients N] [--requests N] [--seed S]
//              [--check] [--heavy FILE.pnml] [--json]
//
// Connects to 127.0.0.1:<port> and drives the docs/SERVING.md protocol.
// Two modes:
//
//   --smoke     one client exercises every endpoint once (upload,
//               simulate, verify, optimize, transform, stats, health)
//               and fails on any non-ok response — the CI serve-smoke
//               job's payload.
//
//   load mode   --clients threads each issue --requests requests of
//               loadgen's mix (tools/loadgen.h) from --seed over
//               designs/gcd.bdl and designs/traffic.bdl; --heavy turns
//               half of the mix's upload share into verifies of the
//               given net.
//
// --check replays every distinct request against a fresh in-process
// one-worker serve::Service oracle (same uploads) and byte-compares
// each daemon response with the oracle's; any byte of divergence under
// concurrency is a bug, and camad_load exits 1 naming it. "overloaded"
// rejections are counted separately (they are server-state dependent,
// not wrong).
//
// Exit status: 0 success, 1 wrong/failed responses, 2 usage or
// connection errors.

#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "loadgen.h"
#include "synth/designs.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using camad::parse_u64;
namespace loadgen = camad::loadgen;

struct Options {
  std::uint16_t port = 0;
  bool smoke = false;
  bool check = false;
  bool json = false;
  std::size_t clients = 8;
  std::size_t requests = 64;
  std::uint64_t seed = 1;
  std::string heavy_path;
};

int usage() {
  std::cerr << "usage: camad_load --port N [--smoke] [--clients N]"
               " [--requests N] [--seed S]\n"
               "                  [--check] [--heavy FILE.pnml] [--json]\n";
  return 2;
}

bool parse_port(const std::string& text, std::uint16_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value > 65535) return false;
  out = static_cast<std::uint16_t>(value);
  return true;
}

int run_smoke(const Options& options) {
  loadgen::Client client(options.port);
  if (!client.ok()) {
    std::cerr << "cannot connect to 127.0.0.1:" << options.port << '\n';
    return 2;
  }
  const std::string uploaded =
      client.call(loadgen::upload_request(camad::synth::gcd_source()));
  const std::string design = loadgen::uploaded_id(uploaded);
  if (design.empty()) {
    std::cerr << "smoke: upload failed: " << uploaded << '\n';
    return 1;
  }
  const std::pair<const char*, std::string> steps[] = {
      {"simulate", "{\"op\":\"simulate\",\"design\":\"" + design +
                       "\",\"seed\":7,\"max_cycles\":2000}"},
      {"verify", "{\"op\":\"verify\",\"design\":\"" + design + "\"}"},
      {"optimize", "{\"op\":\"optimize\",\"design\":\"" + design +
                       "\",\"generations\":2,\"beam\":2}"},
      {"transform", "{\"op\":\"transform\",\"design\":\"" + design +
                        "\",\"passes\":\"parallelize,cleanup\"}"},
      {"stats", "{\"op\":\"stats\"}"},
      {"health", "{\"op\":\"health\"}"},
  };
  for (const auto& [name, request] : steps) {
    const std::string response = client.call(request);
    if (!loadgen::response_ok(response)) {
      std::cerr << "smoke: " << name << " failed: " << response << '\n';
      return 1;
    }
    std::cout << "smoke: " << name << " ok\n";
  }
  std::cout << "smoke: all endpoints ok\n";
  return 0;
}

int run_load(const Options& options) {
  loadgen::Mix mix;
  mix.seed = options.seed;
  mix.sources = {std::string(camad::synth::gcd_source()),
                 std::string(camad::synth::traffic_source())};
  if (!options.heavy_path.empty()) {
    std::ifstream in(options.heavy_path);
    if (!in) {
      std::cerr << "cannot read '" << options.heavy_path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    mix.heavy_source = buffer.str();
  }
  {
    // Design ids are pure functions of content, so every client and the
    // oracle refer to the same entries.
    loadgen::Client setup(options.port);
    if (!setup.ok()) {
      std::cerr << "cannot connect to 127.0.0.1:" << options.port << '\n';
      return 2;
    }
    if (!loadgen::upload(setup, mix)) return 1;
  }
  std::optional<loadgen::Answers> answers;
  if (options.check) {
    answers = loadgen::oracle_answers(mix, options.clients, options.requests);
    if (!answers) return 1;
  }
  const loadgen::LoadResult r =
      loadgen::run_clients(options.port, mix, options.clients,
                           options.requests, answers ? &*answers : nullptr);
  const double rate =
      r.seconds > 0 ? static_cast<double>(r.ok) / r.seconds : 0.0;
  const double p50 = loadgen::quantile(r.latencies, 0.5);
  const double p99 = loadgen::quantile(r.latencies, 0.99);

  if (options.json) {
    std::ostringstream os;
    camad::JsonWriter w(os);
    w.begin_object()
        .kv("clients", options.clients)
        .kv("requests", r.requests())
        .kv("ok", r.ok)
        .kv("overloaded", r.overloaded)
        .kv("failed", r.failed)
        .kv("wrong", r.wrong)
        .kv("wall_seconds", r.seconds)
        .kv("requests_per_second", rate)
        .kv("p50_seconds", p50)
        .kv("p99_seconds", p99)
        .end_object();
    std::cout << os.str() << '\n';
  } else {
    std::cout << options.clients << " client(s), " << r.requests()
              << " request(s): " << r.ok << " ok, " << r.overloaded
              << " overloaded, " << r.failed << " failed";
    if (options.check) std::cout << ", " << r.wrong << " wrong";
    std::cout << "\n  " << rate << " req/s, p50 " << p50 * 1e3
              << " ms, p99 " << p99 * 1e3 << " ms\n";
  }
  return (r.failed > 0 || r.wrong > 0) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const std::string& name,
                              std::string& out) -> bool {
      if (arg.rfind(name + "=", 0) == 0) {
        out = arg.substr(name.size() + 1);
        return true;
      }
      if (arg == name && i + 1 < argc) {
        out = argv[++i];
        return true;
      }
      return false;
    };
    std::string value;
    std::uint64_t number = 0;
    const auto bad_number = [&](const char* name) {
      std::cerr << "invalid value '" << value << "' for " << name << '\n';
      return usage();
    };
    if (value_of("--port", value)) {
      if (!parse_port(value, options.port)) return bad_number("--port");
    } else if (value_of("--clients", value)) {
      if (!parse_u64(value, number)) return bad_number("--clients");
      options.clients = number;
    } else if (value_of("--requests", value)) {
      if (!parse_u64(value, number)) return bad_number("--requests");
      options.requests = number;
    } else if (value_of("--seed", value)) {
      if (!parse_u64(value, number)) return bad_number("--seed");
      options.seed = number;
    } else if (value_of("--heavy", value)) {
      options.heavy_path = value;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--json") {
      options.json = true;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return usage();
    }
  }
  if (options.port == 0) {
    std::cerr << "--port is required\n";
    return usage();
  }
  if (options.clients == 0) options.clients = 1;
  return options.smoke ? run_smoke(options) : run_load(options);
}
