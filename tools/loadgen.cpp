#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "serve/protocol.h"
#include "serve/service.h"
#include "synth/designs.h"
#include "util/json.h"

namespace camad::loadgen {
namespace {

constexpr const char* kSum3Source = R"(design sum3 {
  in a, b, c;
  out s;
  var t;
  begin
    t := a + b;
    s := t + c;
  end
}
)";

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool response_overloaded(const std::string& response) {
  return response.find("\"overloaded\"") != std::string::npos;
}

std::vector<std::string> setup_uploads(const Mix& mix) {
  std::vector<std::string> uploads;
  for (const std::string& source : mix.sources) {
    uploads.push_back(upload_request(source));
  }
  if (!mix.heavy_source.empty()) {
    uploads.push_back(upload_request(mix.heavy_source));
  }
  return uploads;
}

}  // namespace

Client::Client(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

std::string Client::call(const std::string& request) {
  if (fd_ < 0 || !serve::write_frame(fd_, request)) return {};
  std::string response;
  if (serve::read_frame(fd_, response) != serve::FrameStatus::kOk) return {};
  return response;
}

std::string upload_request(std::string_view source) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().kv("op", "upload").kv("source", source).end_object();
  return os.str();
}

bool response_ok(const std::string& response) {
  try {
    const JsonValue parsed = json_parse(response);
    const JsonValue* ok = parsed.find("ok");
    return ok != nullptr && ok->boolean;
  } catch (const std::exception&) {
    return false;
  }
}

std::string uploaded_id(const std::string& response) {
  if (!response_ok(response)) return {};
  return json_parse(response).find("result")->find("design")->string;
}

Mix bench_mix() {
  Mix mix;
  mix.seed = 0x5eedf00d;
  // The compiled-in copy drops the file's final newline.
  mix.sources = {std::string(synth::gcd_source()) + '\n', kSum3Source};
  return mix;
}

bool upload(Client& client, Mix& mix) {
  mix.ids.clear();
  for (const std::string& request : setup_uploads(mix)) {
    const std::string response = client.call(request);
    std::string id = uploaded_id(response);
    if (id.empty()) {
      std::cerr << "set-up upload failed: " << response << '\n';
      return false;
    }
    mix.ids.push_back(std::move(id));
  }
  return true;
}

std::string request_for(const Mix& mix, std::size_t client,
                        std::size_t index) {
  std::uint64_t state = mix.seed ^ (client * 0x9e3779b97f4a7c15ULL + index);
  const std::uint64_t word = splitmix(state);
  const std::size_t light = mix.sources.size();
  const std::string& id = mix.ids[word % light];
  const std::uint64_t kind = (word >> 8) % 10;
  std::ostringstream os;
  JsonWriter w(os);
  if (kind < 4) {
    w.begin_object()
        .kv("op", "simulate")
        .kv("design", id)
        .kv("seed", 1 + ((word >> 16) % 4))
        .kv("max_cycles", std::uint64_t{2000})
        .kv("max_events", std::uint64_t{16})
        .end_object();
  } else if (kind < 7) {
    w.begin_object().kv("op", "verify").kv("design", id).end_object();
  } else if (kind < 9) {
    w.begin_object()
        .kv("op", "transform")
        .kv("design", id)
        .kv("passes", "parallelize,cleanup")
        .end_object();
  } else if (!mix.heavy_source.empty() && (word & 2) != 0) {
    w.begin_object()
        .kv("op", "verify")
        .kv("design", mix.ids.back())
        .kv("max_states", std::uint64_t{400000})
        .end_object();
  } else {
    return upload_request(mix.sources[(word % light + 1) % light]);
  }
  return os.str();
}

std::optional<Answers> oracle_answers(const Mix& mix, std::size_t clients,
                                      std::size_t requests) {
  serve::ServiceOptions options;
  options.workers = 1;
  serve::Service oracle(options);
  for (const std::string& upload : setup_uploads(mix)) {
    (void)oracle.handle(upload);
  }
  Answers answers;
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < requests; ++i) {
      std::string request = request_for(mix, c, i);
      if (answers.count(request) != 0) continue;
      std::string response = oracle.handle(request);
      if (!response_ok(response)) {
        std::cerr << "oracle failed " << request << ": " << response << '\n';
        return std::nullopt;
      }
      answers.emplace(std::move(request), std::move(response));
    }
  }
  return answers;
}

LoadResult run_clients(std::uint16_t port, const Mix& mix,
                       std::size_t clients, std::size_t requests,
                       const Answers* answers) {
  std::vector<LoadResult> tallies(clients);
  std::mutex report_mu;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& tally = tallies[c];
      Client client(port);
      if (!client.ok()) {
        tally.failed = requests;
        return;
      }
      for (std::size_t i = 0; i < requests; ++i) {
        const std::string request = request_for(mix, c, i);
        const auto t0 = std::chrono::steady_clock::now();
        const std::string response = client.call(request);
        const auto t1 = std::chrono::steady_clock::now();
        // Every oracle answer is ok, so a byte-equal response is too.
        const bool ok = answers != nullptr
                            ? answers->at(request) == response
                            : response_ok(response);
        if (ok) {
          ++tally.ok;
          tally.latencies.push_back(
              std::chrono::duration<double>(t1 - t0).count());
        } else if (response.empty()) {
          ++tally.failed;
        } else if (response_overloaded(response)) {
          ++tally.overloaded;
        } else if (answers != nullptr) {
          ++tally.wrong;
          const std::lock_guard<std::mutex> lock(report_mu);
          std::cerr << "MISMATCH for " << request << "\n  daemon: " << response
                    << "\n  oracle: " << answers->at(request) << '\n';
        } else {
          ++tally.failed;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadResult total;
  total.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  for (const LoadResult& tally : tallies) {
    total.ok += tally.ok;
    total.overloaded += tally.overloaded;
    total.failed += tally.failed;
    total.wrong += tally.wrong;
    total.latencies.insert(total.latencies.end(), tally.latencies.begin(),
                           tally.latencies.end());
  }
  std::sort(total.latencies.begin(), total.latencies.end());
  return total;
}

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace camad::loadgen
