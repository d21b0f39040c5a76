// The camadd load generator shared by camad_load, bench_serve and the serve
// tests: a framed loopback client, the deterministic request mix, an
// N-client runner with per-request latencies, and the one-worker oracle
// replay that the determinism contract (docs/SERVING.md) is checked by.
//
// Engine responses are pure functions of (request, design-store
// content), so a fresh one-worker serve::Service that saw the same
// uploads must answer every request with the same bytes as a loaded
// daemon; any byte of difference is a bug.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace camad::loadgen {

/// One framed TCP connection to 127.0.0.1:<port>.
class Client {
 public:
  explicit Client(std::uint16_t port);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  /// One request/response round trip; empty on transport failure.
  std::string call(const std::string& request);

 private:
  int fd_ = -1;
};

std::string upload_request(std::string_view source);

/// True when `response` parses and its "ok" is true.
bool response_ok(const std::string& response);

/// `result.design` of an ok upload response; empty otherwise.
std::string uploaded_id(const std::string& response);

/// The request mix, a pure function of (seed, client, index): word =
/// splitmix(seed ^ (client * 0x9e3779b97f4a7c15 + index)) draws a light
/// design and one of 4/10 simulate, 3/10 verify, 2/10 transform and 1/10
/// repeat upload (of the light design after the target, so always a
/// dedup hit). With a heavy source, half of the upload share verifies
/// the heavy design instead. The mix repeats designs and options on
/// purpose: it is the repeated-design workload the shared-tier hit-rate
/// gate measures.
struct Mix {
  std::uint64_t seed = 0;
  std::vector<std::string> sources;  ///< light designs, as uploaded
  std::string heavy_source;          ///< only verified; empty: none
  /// Design ids the set-up uploads returned: the light designs', then
  /// the heavy one's. Filled by upload().
  std::vector<std::string> ids;
};

/// bench_serve's mix, on which BENCH_serve's baseline was recorded:
/// designs/gcd.bdl as the file holds it and a three-input adder, from
/// seed 0x5eedf00d.
Mix bench_mix();

/// Uploads the mix's designs over `client` and fills `mix.ids`; prints
/// the failing response on stderr and returns false on failure.
bool upload(Client& client, Mix& mix);

/// Request `index` of client `client`; `mix.ids` must be filled.
std::string request_for(const Mix& mix, std::size_t client,
                        std::size_t index);

/// Oracle bytes per distinct request of `clients` x `requests`.
using Answers = std::map<std::string, std::string>;

/// Replays the mix on a fresh one-worker Service: its uploads, then each
/// distinct request once, in (client, index) order. Prints the request
/// and returns nullopt when the oracle answers one with an error.
std::optional<Answers> oracle_answers(const Mix& mix, std::size_t clients,
                                      std::size_t requests);

struct LoadResult {
  std::uint64_t ok = 0;          ///< ok, and the oracle's bytes if given
  std::uint64_t overloaded = 0;  ///< rejected with "overloaded"
  /// No response, or (without an oracle) an error response.
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;       ///< differs from the oracle's bytes
  double seconds = 0.0;          ///< wall clock of the whole run
  std::vector<double> latencies;  ///< seconds per ok request, ascending

  [[nodiscard]] std::uint64_t requests() const {
    return ok + overloaded + failed + wrong;
  }
};

/// `clients` threads, each on its own connection, send their first
/// `requests` requests of the mix; with `answers` (oracle_answers for at
/// least as many clients and requests), every response is byte-compared
/// with the oracle's.
LoadResult run_clients(std::uint16_t port, const Mix& mix,
                       std::size_t clients, std::size_t requests,
                       const Answers* answers);

/// Nearest-rank quantile of an ascending sample; 0 when empty.
double quantile(const std::vector<double>& sorted, double q);

}  // namespace camad::loadgen
