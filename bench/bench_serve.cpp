// Serving benchmark: requests/sec and client-observed latency of an
// in-process camadd (Service + real TCP Server) at 1 / 8 / 64
// concurrent clients sending loadgen's bench mix (tools/loadgen.h), with
// every engine response byte-compared against a fresh single-worker
// oracle Service — a perf number only counts if the concurrent answers
// are bit-identical to the one-shot answers.
//
// Emits schema-v2 BENCH_serve.json via --json[=PATH]:
//   requests_per_second      higher-better, gated by bench_diff
//   p50_seconds/p99_seconds  lower-better (skipped on shared runners
//                            via --skip=seconds, like every wall-clock
//                            metric in CI)
//   wrong_responses          invariant, must stay 0
//   cache_gate               invariant 1: shared-tier hit rate > 0.5
//   backpressure_gate        invariant 1: a saturated one-worker/one-
//                            slot service rejected with "overloaded"
//                            and answered everything (no stall)
//
// Unlike the sibling benches this one has no google-benchmark mode:
// the sweep *is* the benchmark, and --json is how CI consumes it.

#include <atomic>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_out.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/designs.h"
#include "util/json.h"

namespace camad {
namespace {

constexpr std::size_t kRequestsPerClient = 32;
constexpr std::size_t kMaxClients = 64;

/// Saturates a one-worker / one-slot service and checks it rejects with
/// "overloaded" instead of stalling. Returns true when at least one
/// rejection was observed and every request was answered.
bool backpressure_probe() {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  serve::Service service(options);
  const std::string id = loadgen::uploaded_id(
      service.handle(loadgen::upload_request(synth::gcd_source())));

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("op", "simulate")
      .kv("design", id)
      .kv("max_cycles", static_cast<std::uint64_t>(1) << 20)
      .kv("deadline_ms", static_cast<std::uint64_t>(500))
      .end_object();
  const std::string slow = os.str();

  std::atomic<std::size_t> overloaded{0};
  std::atomic<std::size_t> answered{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      const JsonValue v = json_parse(service.handle(slow));
      ++answered;
      const JsonValue* error = v.find("error");
      if (error != nullptr &&
          error->find("code")->string == serve::kErrOverloaded) {
        ++overloaded;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return overloaded.load() >= 1 && answered.load() == 8;
}

int run(const std::string& json_path) {
  serve::Service service(serve::ServiceOptions{});
  serve::Server server(service, serve::ServerOptions{0});
  std::thread serving([&] { server.serve(); });

  // Uploads happen once, up front, over the wire.
  loadgen::Mix mix = loadgen::bench_mix();
  {
    loadgen::Client setup(server.port());
    if (!setup.ok() || !loadgen::upload(setup, mix)) {
      std::cerr << "bench_serve: set-up failed\n";
      server.stop();
      serving.join();
      return 1;
    }
  }
  // A request is a function of (client, index) only, so the oracle
  // answers of the widest sweep cover every sweep.
  const auto oracle =
      loadgen::oracle_answers(mix, kMaxClients, kRequestsPerClient);
  if (!oracle) {
    server.stop();
    serving.join();
    return 1;
  }

  bench::BenchJson json(json_path, "serve", "requests_per_second");
  json.meta("workers",
            static_cast<std::uint64_t>(service.options().workers))
      .meta("requests_per_client",
            static_cast<std::uint64_t>(kRequestsPerClient));

  bool ok = true;
  for (const std::size_t clients : {std::size_t{1}, std::size_t{8},
                                    kMaxClients}) {
    // Best of three, like bench_mc: the throughput curve, not
    // scheduler noise. Responses are byte-checked on every repeat; any
    // response that is not the oracle's counts as wrong.
    std::uint64_t wrong = 0;
    loadgen::LoadResult best;
    for (int rep = 0; rep < 3; ++rep) {
      loadgen::LoadResult r = loadgen::run_clients(
          server.port(), mix, clients, kRequestsPerClient, &*oracle);
      wrong += r.requests() - r.ok;
      if (rep == 0 || r.seconds < best.seconds) best = std::move(r);
    }
    const double rate =
        best.seconds > 0
            ? static_cast<double>(best.requests()) / best.seconds
            : 0.0;
    const double p50 = loadgen::quantile(best.latencies, 0.5);
    const double p99 = loadgen::quantile(best.latencies, 0.99);
    std::cout << "BENCH_serve clients=" << clients << ": "
              << bench::rounded(rate, 1) << " req/s, p50 "
              << bench::rounded(p50 * 1e3, 3) << " ms, p99 "
              << bench::rounded(p99 * 1e3, 3) << " ms, " << wrong
              << " wrong\n";
    if (wrong != 0) ok = false;
    json.begin_design("clients_" + std::to_string(clients))
        .field("clients", static_cast<std::uint64_t>(clients))
        .field("requests", best.requests())
        .field("wrong_responses", wrong)
        .field("requests_per_second", bench::rounded(rate, 1))
        .field("p50_seconds", bench::rounded(p50, 6))
        .field("p99_seconds", bench::rounded(p99, 6))
        .end_design();
  }

  const double hit_rate = service.shared_tier_hit_rate();
  const bool cache_ok = hit_rate > 0.5;
  std::cout << "BENCH_serve shared-tier hit rate "
            << bench::rounded(hit_rate, 4)
            << (cache_ok ? " (> 0.5)" : " — BELOW the 0.5 gate") << '\n';
  if (!cache_ok) ok = false;

  server.stop();
  serving.join();

  const bool bp_ok = backpressure_probe();
  std::cout << "BENCH_serve backpressure: "
            << (bp_ok ? "rejected with overloaded, no stall"
                      : "FAILED (no rejection or a stall)")
            << '\n';
  if (!bp_ok) ok = false;

  json.begin_design("gates")
      .field("cache_gate", static_cast<std::uint64_t>(cache_ok ? 1 : 0))
      .field("backpressure_gate",
             static_cast<std::uint64_t>(bp_ok ? 1 : 0))
      .end_design();
  if (!json.finish()) return 1;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace camad

int main(int argc, char** argv) {
  std::string json_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg != "--json") {
      std::cerr << "usage: bench_serve [--json[=PATH]]\n";
      return 2;
    }
  }
  return camad::run(json_path);
}
