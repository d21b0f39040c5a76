// camadd — the camad synthesis/verification daemon.
//
//   camadd [--port N] [--port-file FILE] [--workers N] [--queue N]
//          [--deadline-ms N] [--report[=FILE]]
//
// Serves the length-prefixed JSON-over-TCP protocol of docs/SERVING.md
// on 127.0.0.1: upload / simulate / verify / optimize / transform /
// stats / health, with a bounded worker-pool scheduler, hash-consed
// shared designs and per-request budgets (src/serve/). --port 0 (the
// default) binds a kernel-assigned port; the bound address is printed
// on stdout and, with --port-file, written to FILE so scripts and CI
// can discover it without parsing logs.
//
// SIGINT/SIGTERM drain gracefully: the handler is one atomic store plus
// one self-pipe write (async-signal-safe), the accept loop stops, every
// in-flight request budget is cancelled so engine loops return
// well-formed partial results at their next checkpoint, connections are
// joined — and only then is the --report artifact (run record plus the
// metrics snapshot) flushed, so a signalled daemon still leaves its
// telemetry behind (camadc has the same handlers).
//
// Exit status: 0 on a clean (signal-driven) shutdown, 2 on usage or
// bind errors.

#include <csignal>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/report.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/strings.h"

namespace {

using camad::parse_u64;

camad::serve::Server* g_server = nullptr;

extern "C" void handle_signal(int /*sig*/) {
  // Async-signal-safe: Server::stop is an atomic store + write(2).
  if (g_server != nullptr) g_server->stop();
}

struct Options {
  std::uint16_t port = 0;
  std::string port_file;
  std::size_t workers = 4;
  std::size_t queue = 64;
  std::uint64_t deadline_ms = 0;
  bool report = false;
  std::string report_path = "report.json";
};

int usage() {
  std::cerr << "usage: camadd [--port N] [--port-file FILE] [--workers N]"
               " [--queue N]\n"
               "              [--deadline-ms N] [--report[=FILE]]\n";
  return 2;
}

bool parse_port(const std::string& text, std::uint16_t& out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, value) || value > 65535) return false;
  out = static_cast<std::uint16_t>(value);
  return true;
}

bool parse_args(int argc, char** argv, Options& options) {
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
      return false;
    };
    if (value_of("--port", value)) {
      if (!parse_port(value, options.port)) return bad_number("--port");
    } else if (value_of("--port-file", value)) {
      options.port_file = value;
    } else if (value_of("--workers", value)) {
      if (!parse_u64(value, number)) return bad_number("--workers");
      options.workers = number;
    } else if (value_of("--queue", value)) {
      if (!parse_u64(value, number)) return bad_number("--queue");
      options.queue = number;
    } else if (value_of("--deadline-ms", value)) {
      if (!parse_u64(value, number)) return bad_number("--deadline-ms");
      options.deadline_ms = number;
    } else if (arg == "--report") {
      options.report = true;
    } else if (arg.rfind("--report=", 0) == 0) {
      options.report = true;
      options.report_path = arg.substr(9);
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Framed socket writes already use MSG_NOSIGNAL (serve/protocol.cpp),
  // but a daemon must never die to SIGPIPE from any stray fd write —
  // ignore it process-wide as well.
  std::signal(SIGPIPE, SIG_IGN);
  Options options;
  if (!parse_args(argc, argv, options)) return usage();

  camad::obs::RunReportOptions report_options;
  report_options.tool = "camadd";
  report_options.command = "serve";
  for (int i = 1; i < argc; ++i) report_options.args.emplace_back(argv[i]);
  camad::obs::RunReport report(std::move(report_options));

  camad::serve::ServiceOptions service_options;
  service_options.workers = options.workers;
  service_options.queue_capacity = options.queue;
  service_options.default_deadline =
      std::chrono::milliseconds(options.deadline_ms);

  int exit_status = 0;
  camad::serve::Service service(service_options);
  try {
    camad::serve::Server server(service,
                                camad::serve::ServerOptions{options.port});
    if (!options.port_file.empty()) {
      std::ofstream out(options.port_file);
      if (!out) {
        std::cerr << "cannot write '" << options.port_file << "'\n";
        return 2;
      }
      out << server.port() << '\n';
    }
    std::cout << "camadd listening on 127.0.0.1:" << server.port() << " ("
              << options.workers << " worker(s), queue "
              << options.queue << ")" << std::endl;

    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    server.serve();
    g_server = nullptr;
    std::cout << "camadd drained, shutting down" << std::endl;
  } catch (const camad::Error& e) {
    std::cerr << "camadd: " << e.what() << '\n';
    exit_status = 2;
  }

  report.note("status", exit_status == 0 ? "drained" : "failed");
  report.note("shared_tier_hit_rate",
              std::to_string(service.shared_tier_hit_rate()));
  if (options.report) {
    std::ofstream out(options.report_path);
    if (out) {
      report.write(out, exit_status, service.metrics());
      std::cout << "report written to " << options.report_path << '\n';
    }
  }
  return exit_status;
}
