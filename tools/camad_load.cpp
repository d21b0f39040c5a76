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
//   load mode   --clients threads each issue --requests requests drawn
//               deterministically from (seed, client, index): a mixed
//               upload/simulate/verify/transform workload over two
//               embedded designs (the repo's gcd and traffic examples),
//               plus heavyweight verifies of --heavy when given. The
//               workload repeats designs and option sets on purpose —
//               it is the "repeated-design workload" the shared-cache
//               acceptance criterion (> 50% cross-request hit rate)
//               measures.
//
// --check replays every distinct engine request against a fresh
// in-process serve::Service oracle (same uploads, same order, one
// worker) and byte-compares each daemon response against the oracle's.
// This works because engine responses are pure functions of (request,
// design-store content) — any byte of divergence under concurrency is a
// bug, and camad_load exits 1 naming it. "overloaded" rejections are
// counted separately (they are server-state dependent, not wrong).
//
// Exit status: 0 success, 1 wrong/failed responses, 2 usage or
// connection errors.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/service.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using camad::parse_u64;
using camad::serve::FrameStatus;

constexpr const char* kGcdSource = R"(design gcd {
  in a, b;
  out g;
  var x, y;
  begin
    x := a;
    y := b;
    while x != y {
      if x > y {
        x := x - y;
      } else {
        y := y - x;
      }
    }
    g := x;
  end
}
)";

constexpr const char* kTrafficSource = R"(design traffic {
  in sensor;
  out light;
  var phase, timer, rounds, s;
  begin
    phase := 0;
    rounds := 12;
    timer := 4;
    while rounds > 0 {
      s := sensor;
      if phase == 0 {
        if s > 50 {
          timer := timer - 2;
        } else {
          timer := timer - 1;
        }
      } else {
        timer := timer - 1;
      }
      if timer <= 0 {
        phase := (phase + 1) % 4;
        if phase == 0 {
          timer := 4;
        } else {
          timer := 2;
        }
        light := phase;
      } else {
        light := phase;
      }
      rounds := rounds - 1;
    }
  end
}
)";

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

/// splitmix64 — the repo-standard deterministic stream.
std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One framed TCP connection to the daemon.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  /// Round trip; empty string on transport failure.
  std::string call(const std::string& request) {
    if (fd_ < 0) return {};
    if (!camad::serve::write_frame(fd_, request)) return {};
    std::string response;
    if (camad::serve::read_frame(fd_, response) != FrameStatus::kOk) {
      return {};
    }
    return response;
  }

 private:
  int fd_ = -1;
};

bool response_ok(const std::string& response) {
  if (response.empty()) return false;
  try {
    const camad::JsonValue v = camad::json_parse(response);
    const camad::JsonValue* ok = v.find("ok");
    return ok != nullptr && ok->boolean;
  } catch (const std::exception&) {
    return false;
  }
}

bool response_overloaded(const std::string& response) {
  return response.find("\"overloaded\"") != std::string::npos;
}

std::string upload_request(const std::string& source,
                           const std::string& name) {
  std::ostringstream os;
  camad::JsonWriter w(os);
  w.begin_object()
      .kv("op", "upload")
      .kv("name", name)
      .kv("source", source)
      .end_object();
  return os.str();
}

/// The deterministic request mix. `designs` are uploaded ids; heavy (when
/// present) is the last entry and only receives verifies.
std::string workload_request(const std::vector<std::string>& designs,
                             bool has_heavy, std::uint64_t word) {
  const std::size_t light_count = designs.size() - (has_heavy ? 1 : 0);
  const std::string& design = designs[word % light_count];
  const std::uint64_t kind = (word >> 8) % 10;
  const std::uint64_t seed = 1 + ((word >> 16) % 4);  // small pool: reuse
  std::ostringstream os;
  camad::JsonWriter w(os);
  if (has_heavy && kind == 9) {
    w.begin_object()
        .kv("op", "verify")
        .kv("design", designs.back())
        .kv("max_states", 400000)
        .end_object();
  } else if (kind < 4) {
    w.begin_object()
        .kv("op", "simulate")
        .kv("design", design)
        .kv("seed", seed)
        .kv("max_cycles", 2000)
        .kv("max_events", 16)
        .end_object();
  } else if (kind < 7) {
    w.begin_object()
        .kv("op", "verify")
        .kv("design", design)
        .end_object();
  } else if (kind < 8) {
    w.begin_object()
        .kv("op", "transform")
        .kv("design", design)
        .kv("passes", "parallelize,cleanup")
        .end_object();
  } else {
    // Repeat upload: exercises hash-consing (always a dedup hit).
    w.begin_object()
        .kv("op", "upload")
        .kv("name", "gcd")
        .kv("source", (word & 1) != 0 ? kGcdSource : kTrafficSource)
        .end_object();
  }
  return os.str();
}

int run_smoke(const Options& options) {
  Connection conn(options.port);
  if (!conn.ok()) {
    std::cerr << "cannot connect to 127.0.0.1:" << options.port << '\n';
    return 2;
  }
  std::vector<std::pair<std::string, std::string>> steps;
  steps.emplace_back("upload", upload_request(kGcdSource, "gcd"));
  const std::string upload_response = conn.call(steps.back().second);
  if (!response_ok(upload_response)) {
    std::cerr << "smoke: upload failed: " << upload_response << '\n';
    return 1;
  }
  const camad::JsonValue parsed = camad::json_parse(upload_response);
  const std::string design =
      parsed.find("result")->find("design")->string;

  steps.clear();
  steps.emplace_back(
      "simulate", "{\"op\":\"simulate\",\"design\":\"" + design +
                      "\",\"seed\":7,\"max_cycles\":2000}");
  steps.emplace_back("verify",
                     "{\"op\":\"verify\",\"design\":\"" + design + "\"}");
  steps.emplace_back(
      "optimize", "{\"op\":\"optimize\",\"design\":\"" + design +
                      "\",\"generations\":2,\"beam\":2}");
  steps.emplace_back("transform",
                     "{\"op\":\"transform\",\"design\":\"" + design +
                         "\",\"passes\":\"parallelize,cleanup\"}");
  steps.emplace_back("stats", "{\"op\":\"stats\"}");
  steps.emplace_back("health", "{\"op\":\"health\"}");
  for (const auto& [name, request] : steps) {
    const std::string response = conn.call(request);
    if (!response_ok(response)) {
      std::cerr << "smoke: " << name << " failed: " << response << '\n';
      return 1;
    }
    std::cout << "smoke: " << name << " ok\n";
  }
  std::cout << "smoke: all endpoints ok\n";
  return 0;
}

struct ClientTally {
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies;  ///< seconds, successful requests
  std::map<std::string, std::string> responses;  ///< request -> response
};

int run_load(const Options& options) {
  // Setup connection uploads the shared designs (ids are pure functions
  // of content, so every client refers to the same entries).
  Connection setup(options.port);
  if (!setup.ok()) {
    std::cerr << "cannot connect to 127.0.0.1:" << options.port << '\n';
    return 2;
  }
  std::vector<std::string> uploads;
  uploads.push_back(upload_request(kGcdSource, "gcd"));
  uploads.push_back(upload_request(kTrafficSource, "traffic"));
  std::string heavy_source;
  if (!options.heavy_path.empty()) {
    std::ifstream in(options.heavy_path);
    if (!in) {
      std::cerr << "cannot read '" << options.heavy_path << "'\n";
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    heavy_source = buffer.str();
    uploads.push_back(upload_request(heavy_source, "heavy"));
  }
  std::vector<std::string> designs;
  for (const std::string& request : uploads) {
    const std::string response = setup.call(request);
    if (!response_ok(response)) {
      std::cerr << "setup upload failed: " << response << '\n';
      return 1;
    }
    designs.push_back(camad::json_parse(response)
                          .find("result")
                          ->find("design")
                          ->string);
  }

  std::vector<ClientTally> tallies(options.clients);
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientTally& tally = tallies[c];
      Connection conn(options.port);
      if (!conn.ok()) {
        tally.failed = options.requests;
        return;
      }
      std::uint64_t rng = options.seed * 0x100000001b3ull + c;
      for (std::size_t i = 0; i < options.requests; ++i) {
        const std::string request = workload_request(
            designs, !options.heavy_path.empty(), splitmix(rng));
        const auto s0 = std::chrono::steady_clock::now();
        const std::string response = conn.call(request);
        const auto s1 = std::chrono::steady_clock::now();
        if (response_ok(response)) {
          ++tally.ok;
          tally.latencies.push_back(
              std::chrono::duration<double>(s1 - s0).count());
          if (options.check) tally.responses[request] = response;
        } else if (response_overloaded(response)) {
          ++tally.overloaded;
        } else {
          ++tally.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t failed = 0;
  std::vector<double> latencies;
  std::map<std::string, std::string> responses;
  for (ClientTally& tally : tallies) {
    ok += tally.ok;
    overloaded += tally.overloaded;
    failed += tally.failed;
    latencies.insert(latencies.end(), tally.latencies.begin(),
                     tally.latencies.end());
    for (auto& [request, response] : tally.responses) {
      responses.emplace(request, std::move(response));
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const auto quantile = [&](double q) {
    if (latencies.empty()) return 0.0;
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(latencies.size() - 1));
    return latencies[index];
  };

  std::uint64_t wrong = 0;
  if (options.check) {
    // Oracle: a fresh one-worker service, same uploads, each distinct
    // request once. Engine responses are deterministic functions of
    // (request, store content), so bytes must match.
    camad::serve::ServiceOptions oracle_options;
    oracle_options.workers = 1;
    oracle_options.queue_capacity = 4;
    camad::serve::Service oracle(oracle_options);
    for (const std::string& request : uploads) (void)oracle.handle(request);
    for (const auto& [request, response] : responses) {
      const std::string expected = oracle.handle(request);
      if (expected != response) {
        ++wrong;
        std::cerr << "MISMATCH for " << request << "\n  daemon: "
                  << response << "\n  oracle: " << expected << '\n';
      }
    }
    oracle.shutdown();
  }

  if (options.json) {
    std::ostringstream os;
    camad::JsonWriter w(os);
    w.begin_object()
        .kv("clients", options.clients)
        .kv("requests", ok + overloaded + failed)
        .kv("ok", ok)
        .kv("overloaded", overloaded)
        .kv("failed", failed)
        .kv("wrong", wrong)
        .kv("wall_seconds", wall)
        .kv("requests_per_second",
            wall > 0 ? static_cast<double>(ok) / wall : 0.0)
        .kv("p50_seconds", quantile(0.5))
        .kv("p99_seconds", quantile(0.99))
        .end_object();
    std::cout << os.str() << '\n';
  } else {
    std::cout << options.clients << " client(s), " << (ok + overloaded +
                                                       failed)
              << " request(s): " << ok << " ok, " << overloaded
              << " overloaded, " << failed << " failed";
    if (options.check) std::cout << ", " << wrong << " wrong";
    std::cout << "\n  " << (wall > 0 ? static_cast<double>(ok) / wall : 0.0)
              << " req/s, p50 " << quantile(0.5) * 1e3 << " ms, p99 "
              << quantile(0.99) * 1e3 << " ms\n";
  }
  return (failed > 0 || wrong > 0) ? 1 : 0;
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
