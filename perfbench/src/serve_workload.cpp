// serve: serve::Service and serve::Server with default ServiceOptions on
// loopback, driven by one closed-loop client per CPU — camadd's callers
// (scripts, CI jobs) wait for each reply. Hot requests follow camad_load's
// 40/30/10/20 simulate/verify/transform/repeat-upload mix, with 2 points of
// the uploads turned into small optimizes, over a hot set of the corpus
// designs and the small PNML instances. A cold tail adds new
// bench::random_program uploads, each followed by requests on it. The
// optimize share and the cold rate are assumptions: no observed camadd
// traffic exists, and camad_load sends neither.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "fold.h"
#include "obs/trace.h"
#include "runs.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "synth/designs.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace camad;

constexpr std::size_t kRequestsPerPass = 512;  ///< per client
constexpr std::size_t kColdEvery = 256;        ///< requests per cold group
/// A pass's nominal length. The timed phase runs seconds / this many
/// passes, a fixed amount of work: the store keeps every cold upload, so
/// a time-bounded phase would grow memory with the build's speed.
constexpr double kNominalPassSeconds = 0.6;
constexpr const char* kOps[] = {"upload", "simulate", "verify", "transform",
                                "optimize"};

struct HotDesign {
  std::string name;
  std::string upload;  ///< the upload request
  std::string id;      ///< store id, once uploaded
  bool bdl = false;
  bool small = false;  ///< optimize requests go to these
};

std::string request(const std::function<void(JsonWriter&)>& fields) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  fields(w);
  w.end_object();
  return os.str();
}

std::string upload_request(const std::string& name, const std::string& source) {
  return request([&](JsonWriter& w) {
    w.kv("op", "upload").kv("name", name).kv("source", source);
  });
}

std::vector<HotDesign> hot_set(const Config& config) {
  std::vector<HotDesign> hot;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const bool small = d.name == "gcd" || d.name == "parlab" ||
                       d.name == "diffeq";
    if (config.smoke && !small) continue;
    hot.push_back({d.name, upload_request(d.name, std::string(d.source)), {},
                   true, small});
  }
  for (const char* name : {"Philosophers-PT-04", "Philosophers-LH-PT-04",
                           "Referendum-PT-04", "CircularTrains-PT-08",
                           "Assembly-PT-04"}) {
    const std::string text =
        read_file(config.root + "/designs/pnml/" + name + ".pnml");
    hot.push_back({name, upload_request(name, text), {}, false, false});
  }
  return hot;
}

/// The string value of `"key":"..."` in a response, or "".
std::string string_field(const std::string& json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t from = at + needle.size();
  return json.substr(from, json.find('"', from) - from);
}

bool is_ok(const std::string& response) {
  return response.starts_with("{\"ok\":true");
}

/// One framed TCP connection to the server.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("serve: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("serve: cannot connect to the server");
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One round trip; "" when the transport failed.
  std::string call(const std::string& payload) {
    std::string response;
    if (!serve::write_frame(fd_, payload) ||
        serve::read_frame(fd_, response) != serve::FrameStatus::kOk) {
      return {};
    }
    return response;
  }

 private:
  int fd_ = -1;
};

/// What one client saw. Written only by its own thread during a pass and
/// read by the main thread between passes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cycles = 0;  ///< simulated cycles in ok simulate replies
  std::uint64_t cold = 0;    ///< cold groups started
  std::vector<double> latencies;  ///< every request; failed ones are inf
  std::map<std::string, std::vector<double>> by_op;  ///< ok requests
  std::map<std::string, std::uint64_t> sent_by_op;  ///< every request
};

class Client {
 public:
  Client(std::uint16_t port, const std::vector<HotDesign>& hot,
         std::uint64_t seed, std::size_t index)
      : connection_(port), hot_(hot), rng_(seed * 0x100000001b3ull + index),
        cold_seed_(rng_ ^ 0xc01dull) {
    for (const HotDesign& d : hot_) {
      if (d.bdl) bdl_.push_back(&d);
      if (d.small) small_.push_back(&d);
    }
  }

  /// Issues `count` requests drawn from the seeded mix.
  void run(std::size_t count) {
    for (std::size_t issued = 0; issued < count;) {
      if (sent_ % kColdEvery == 0) {
        cold_group();
        issued += 4;
      } else {
        hot_request(splitmix(rng_));
        issued += 1;
      }
    }
  }

  Tally tally;
  /// Distinct request -> its response, for the oracle comparison.
  std::unordered_map<std::string, std::string> responses;
  std::vector<std::string> cold_uploads;
  std::vector<std::string> mismatches;

 private:
  /// The op is drawn first and the design among those that take it
  /// (transform: the BDL designs; optimize: the small ones), so the
  /// weights are the shares that run.
  void hot_request(std::uint64_t word) {
    const std::uint64_t kind = word % 100;
    const std::uint64_t pick = word >> 8;
    if (kind < 40) {
      const HotDesign& d = hot_[pick % hot_.size()];
      simulate(d.id, 1 + (word >> 40) % 4);  // small seed pool: reuse
    } else if (kind < 70) {
      const HotDesign& d = hot_[pick % hot_.size()];
      call("verify", request([&](JsonWriter& w) {
             w.kv("op", "verify").kv("design", d.id);
           }));
    } else if (kind < 80) {
      transform(bdl_[pick % bdl_.size()]->id);
    } else if (kind < 98) {
      // A repeat upload: always a dedup hit.
      call("upload", hot_[pick % hot_.size()].upload);
    } else {
      const HotDesign& d = *small_[pick % small_.size()];
      call("optimize", request([&](JsonWriter& w) {
             w.kv("op", "optimize")
                 .kv("design", d.id)
                 .kv("generations", 2)
                 .kv("beam", 2);
           }));
    }
  }

  /// A new random program, then a simulate, a verify and a transform on
  /// it: the store write and cold sim, mc and analysis work.
  void cold_group() {
    ++tally.cold;
    std::uint64_t state = cold_seed_ + cold_count_++;
    const std::string upload =
        upload_request("cold", bench::random_program(splitmix(state)));
    cold_uploads.push_back(upload);
    const std::string reply = call("upload", upload);
    const std::string id = string_field(reply, "design");
    if (id.empty()) return;  // already counted as failed
    simulate(id, 1);
    call("verify", request([&](JsonWriter& w) {
           w.kv("op", "verify").kv("design", id);
         }));
    transform(id);
  }

  void simulate(const std::string& id, std::uint64_t seed) {
    const std::string reply =
        call("simulate", request([&](JsonWriter& w) {
               w.kv("op", "simulate")
                   .kv("design", id)
                   .kv("seed", seed)
                   .kv("max_cycles", 2000)
                   .kv("max_events", 16);
             }));
    const std::size_t at = reply.find("\"cycles\":");
    if (at != std::string::npos) {
      tally.cycles += std::strtoull(reply.c_str() + at + 9, nullptr, 10);
    }
  }

  void transform(const std::string& id) {
    call("transform", request([&](JsonWriter& w) {
           w.kv("op", "transform")
               .kv("design", id)
               .kv("passes", "parallelize,cleanup");
         }));
  }

  std::string call(const char* op, const std::string& payload) {
    ++sent_;
    ++tally.attempted;
    ++tally.sent_by_op[op];
    const Clock::time_point t0 = Clock::now();
    std::string reply = connection_.call(payload);
    const double seconds = seconds_since(t0);
    if (!is_ok(reply)) {
      ++tally.failed;
      if (reply.find("\"overloaded\"") != std::string::npos) {
        ++tally.rejected;
      }
      tally.latencies.push_back(std::numeric_limits<double>::infinity());
      return reply;
    }
    tally.latencies.push_back(seconds);
    tally.by_op[op].push_back(seconds);
    const auto [it, inserted] = responses.try_emplace(payload, reply);
    if (!inserted && it->second != reply) {
      mismatches.push_back("two replies to one request differ: " + payload);
    }
    return reply;
  }

  Connection connection_;
  const std::vector<HotDesign>& hot_;
  std::vector<const HotDesign*> bdl_;
  std::vector<const HotDesign*> small_;
  std::uint64_t rng_;
  std::uint64_t cold_seed_;
  std::uint64_t cold_count_ = 0;
  std::uint64_t sent_ = 0;
};

/// Clients on their own threads, released together one pass at a time.
class ClientPool {
 public:
  ClientPool(std::uint16_t port, const std::vector<HotDesign>& hot,
             const Config& config) {
    for (std::size_t c = 0; c < config.threads; ++c) {
      clients_.push_back(
          std::make_unique<Client>(port, hot, config.seed, c));
    }
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      threads_.emplace_back([this, c] { loop(c); });
    }
  }
  ~ClientPool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    go_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  /// Every client issues `requests` requests; returns the pass's wall
  /// time.
  double pass(std::size_t requests) {
    const Clock::time_point t0 = Clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    quota_ = requests;
    running_ = clients_.size();
    ++generation_;
    go_.notify_all();
    done_.wait(lock, [this] { return running_ == 0; });
    return seconds_since(t0);
  }

  std::vector<std::unique_ptr<Client>>& clients() { return clients_; }

 private:
  void loop(std::size_t c) {
    std::uint64_t seen = 0;
    for (;;) {
      std::size_t quota = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        go_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        quota = quota_;
      }
      try {
        clients_[c]->run(quota);
      } catch (const std::exception& e) {
        clients_[c]->mismatches.push_back(std::string("client: ") + e.what());
      }
      {
        const std::lock_guard<std::mutex> lock(mu_);
        --running_;
      }
      done_.notify_one();
    }
  }

  std::vector<std::unique_ptr<Client>> clients_;
  std::mutex mu_;
  std::condition_variable go_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;
  std::size_t quota_ = 0;
  std::size_t running_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// A serving stack: service, server on its own thread, the hot set
/// uploaded, and the client pool.
class Stack {
 public:
  Stack(const Config& config, std::vector<HotDesign>& hot)
      : server_(service_, serve::ServerOptions{}),
        serve_thread_([this] { server_.serve(); }) {
    try {
      Connection setup(server_.port());
      for (HotDesign& d : hot) {
        const std::string reply = setup.call(d.upload);
        d.id = string_field(reply, "design");
        if (!is_ok(reply) || d.id.empty()) {
          throw std::runtime_error("serve: hot-set upload of " + d.name +
                                   " failed: " + reply);
        }
      }
      clients_ = std::make_unique<ClientPool>(server_.port(), hot, config);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  serve::Service& service() { return service_; }
  ClientPool& clients() { return *clients_; }

 private:
  void stop() {
    clients_.reset();
    server_.stop();
    if (serve_thread_.joinable()) serve_thread_.join();
  }

  serve::Service service_;
  serve::Server server_;
  std::thread serve_thread_;
  std::unique_ptr<ClientPool> clients_;
};

double ms(double seconds) { return seconds * 1e3; }

/// Summed server-side seconds over the engine endpoints.
double server_seconds(serve::Service& service) {
  double sum = 0;
  for (const char* op : kOps) {
    sum += service.metrics()
               .histogram("serve." + std::string(op) + ".seconds")
               .sum;
  }
  return sum;
}

double ratio(const JsonValue& stats, const char* tier, const char* hits,
             const char* misses) {
  const JsonValue* t = stats.find(tier);
  if (t == nullptr) return 0;
  const double h = t->find(hits)->number;
  const double total = h + t->find(misses)->number;
  return total > 0 ? h / total : 0;
}

}  // namespace

void run_serve(const Config& config, Report& report) {
  std::vector<HotDesign> hot;
  std::unique_ptr<Stack> stack;
  const std::size_t warmup = config.smoke ? 8 : 64;
  // Set-up: service start, hot-set uploads and one warm-up pass; the
  // previous repetition's teardown is not part of it.
  std::vector<double> setup_cpu;
  for (int rep = 0; rep < (config.smoke ? 1 : 5); ++rep) {
    stack.reset();
    setup_cpu.push_back(measure([&] {
                          hot = hot_set(config);
                          stack = std::make_unique<Stack>(config, hot);
                          stack->clients().pass(warmup);
                        }).cpu_s);
  }
  report.setup_s = median(setup_cpu);
  ClientPool& pool = stack->clients();
  for (auto& client : pool.clients()) client->tally = Tally{};

  const std::size_t per_pass = config.smoke ? 16 : kRequestsPerPass;
  const std::size_t passes =
      config.smoke ? 1
                   : std::max<std::size_t>(
                         2, static_cast<std::size_t>(std::lround(
                                config.seconds / kNominalPassSeconds)));
  // Sums the clients' tallies and starts new ones.
  const auto take_tallies = [&] {
    Tally all;
    for (auto& client : pool.clients()) {
      Tally& t = client->tally;
      all.attempted += t.attempted;
      all.failed += t.failed;
      all.rejected += t.rejected;
      all.cycles += t.cycles;
      all.cold += t.cold;
      all.latencies.insert(all.latencies.end(), t.latencies.begin(),
                           t.latencies.end());
      for (auto& [op, v] : t.by_op) {
        all.by_op[op].insert(all.by_op[op].end(), v.begin(), v.end());
      }
      for (const auto& [op, n] : t.sent_by_op) all.sent_by_op[op] += n;
      t = Tally{};
    }
    return all;
  };

  serve::Service& service = stack->service();
  Tally timed;
  if (!config.trace) {
    double total_s = 0;
    for (std::size_t p = 0; p < passes; ++p) {
      report.passes.push_back(measure([&] { pool.pass(per_pass); }));
      total_s += report.passes.back().wall_s;
    }
    report.peak_rss_mb = peak_rss_mb();
    timed = take_tallies();
    // A failed request counts as slower than any limit; when a quantile
    // lands on one, report the whole timed phase as its latency.
    for (double& l : timed.latencies) l = std::min(l, total_s);
    report.figure("serve_rps",
                  static_cast<double>(timed.attempted - timed.failed) / total_s,
                  "requests/s");
    report.figure("serve_p50_ms", ms(quantile(timed.latencies, 0.5)), "ms");
    report.figure("serve_p99_ms", ms(quantile(timed.latencies, 0.99)), "ms");
    report.figure("serve_samples", static_cast<double>(timed.latencies.size()),
                  "count");
    // The mix as it ran: each op's share of the requests sent.
    for (const char* op : kOps) {
      report.figure("serve_share." + std::string(op),
                    static_cast<double>(timed.sent_by_op[op]) /
                        static_cast<double>(timed.attempted),
                    "share");
    }
    report.figure("serve_share.cold_upload",
                  static_cast<double>(timed.cold) /
                      static_cast<double>(timed.attempted),
                  "share");
  } else {
    // Untraced passes: overhead baseline and per-op latencies; then as
    // many traced passes with every thread recording.
    const std::size_t half = std::max<std::size_t>(1, passes / 2);
    double untraced_s = 0;
    for (std::size_t p = 0; p < half; ++p) untraced_s += pool.pass(per_pass);
    timed = take_tallies();
    auto& m = report.layers;
    for (const char* op : kOps) {
      m["serve." + std::string(op) + "_p50_ms"] =
          ms(median(timed.by_op[op]));
    }

    const double server0 = server_seconds(service);
    obs::TraceSession session;
    session.activate();
    double traced_s = 0;
    for (std::size_t p = 0; p < half; ++p) traced_s += pool.pass(per_pass);
    session.deactivate();
    const Tally traced = take_tallies();
    const double server_s = server_seconds(service) - server0;
    const Fold fold = fold_session(session);

    double round_trip_s = 0;
    for (const double l : traced.latencies) {
      if (std::isfinite(l)) round_trip_s += l;
    }
    const double engine_s = fold.program_top_s();
    m["obs.trace_overhead"] = traced_s / untraced_s - 1;
    m["serve.transport_s"] = round_trip_s - server_s;
    m["serve.service_s"] = server_s - engine_s;
    m["serve.engine_s"] = engine_s;
    m["serve.rejected"] = static_cast<double>(timed.rejected + traced.rejected);
    m["sim.cycle_loop_s"] = fold.self_prefix_s("sim.run");
    m["sim.runs"] = static_cast<double>(fold.count_prefix("sim.run"));
    m["sim.cycles"] = static_cast<double>(traced.cycles);
    m["sim.ns_per_cycle"] =
        traced.cycles > 0
            ? m["sim.cycle_loop_s"] * 1e9 / static_cast<double>(traced.cycles)
            : 0;
    m["sim.compile_plan_s"] = fold.self_s("sim.compile_plan");
    m["mc.search_s"] = fold.self_s("mc.search");
    m["synth.expand_s"] = fold.self_s("pareto.expand");
    m["synth.measure_s"] = fold.self_s("pareto.measure");
    m["synth.select_s"] =
        fold.self_s("pareto.generation") + fold.self_s("pareto");
    m["transform.parallelize_s"] = fold.self_s("transform.parallelize");
    m["transform.cleanup_s"] = fold.self_s("transform.cleanup");
    m["transform.passes_s"] = fold.self_prefix_s("pass.");
    m["semantics.dependence_s"] = fold.self_s("analysis.dependence");

    const JsonValue stats = json_parse(service.stats_json());
    m["serve.shared_tier_hit_rate"] =
        stats.find("shared_tier_hit_rate")->number;
    m["serve.verify_memo_hit_rate"] =
        ratio(stats, "verify_cache", "hits", "misses");
    const JsonValue* store = stats.find("store");
    const double uploads = store->find("uploads")->number;
    m["serve.dedup_rate"] =
        uploads > 0 ? store->find("dedup_hits")->number / uploads : 0;
    m["semantics.analysis_hit_rate"] =
        ratio(stats, "analysis_cache", "hits", "misses");
    m["sim.plan_hit_rate"] = ratio(stats, "plan_cache", "hits", "misses");
    m["sim.plan_compiles"] = stats.find("plan_cache")->find("misses")->number;

    // Shares of the summed client round trip: engine layers from their
    // span self times, transport and service time as the serve layer.
    std::map<std::string, double, std::less<>> layers = layer_self_s(fold);
    layers["serve"] += m["serve.transport_s"] + m["serve.service_s"];
    add_shares(report, layers);
    timed.attempted += traced.attempted;
    timed.failed += traced.failed;
  }
  report.attempted = timed.attempted;
  report.failed = timed.failed;

  // Correctness: every distinct reply must be byte-identical to what a
  // new one-worker service answers after the same uploads.
  serve::ServiceOptions oracle_options;
  oracle_options.workers = 1;
  serve::Service oracle(oracle_options);
  for (const HotDesign& d : hot) (void)oracle.handle(d.upload);
  std::map<std::string, std::string> replies;
  for (auto& client : pool.clients()) {
    for (const std::string& upload : client->cold_uploads) {
      (void)oracle.handle(upload);
    }
    for (std::string& m : client->mismatches) report.mismatch(std::move(m));
    for (auto& [req, reply] : client->responses) {
      const auto [it, inserted] = replies.try_emplace(req, reply);
      if (!inserted && it->second != reply) {
        report.mismatch("clients got different replies to " + req);
      }
    }
  }
  std::size_t wrong = 0;
  for (const auto& [req, reply] : replies) {
    if (oracle.handle(req) != reply && ++wrong <= 3) {
      report.mismatch("reply differs from the one-worker oracle: " + req);
    }
  }
  if (wrong > 3) {
    report.mismatch(std::to_string(wrong) + " replies differ in total");
  }
  oracle.shutdown();
}

}  // namespace perfbench
