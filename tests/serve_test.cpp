// Tests for the camadd service layer (src/serve/): wire framing, the
// Budget primitive, hash-consed design storage, and — the load-bearing
// pins — N request threads hammering one shared Service whose responses
// must stay byte-identical to a fresh single-worker oracle, and
// budget-cancelled engine runs returning well-formed partial results.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fixtures.h"
#include "loadgen.h"
#include "serve/budget.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/store.h"
#include "synth/designs.h"
#include "synth/optimizer.h"
#include "util/json.h"

namespace camad::serve {
namespace {

using loadgen::upload_request;

// ---------------------------------------------------------------------
// Framing

TEST(Protocol, FrameRoundTripsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string message = "{\"op\":\"health\"}";
  ASSERT_TRUE(write_frame(fds[0], message));
  std::string payload;
  EXPECT_EQ(read_frame(fds[1], payload), FrameStatus::kOk);
  EXPECT_EQ(payload, message);

  // Empty payloads frame fine too.
  ASSERT_TRUE(write_frame(fds[0], ""));
  EXPECT_EQ(read_frame(fds[1], payload), FrameStatus::kOk);
  EXPECT_EQ(payload, "");

  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], payload), FrameStatus::kClosed);
  ::close(fds[1]);
}

TEST(Protocol, OversizePrefixIsRejectedWithoutAllocating) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Hand-build a prefix claiming kMaxFrameBytes + 1.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  const unsigned char prefix[4] = {
      static_cast<unsigned char>(huge >> 24),
      static_cast<unsigned char>(huge >> 16),
      static_cast<unsigned char>(huge >> 8),
      static_cast<unsigned char>(huge)};
  ASSERT_EQ(::write(fds[0], prefix, 4), 4);
  std::string payload;
  EXPECT_EQ(read_frame(fds[1], payload), FrameStatus::kOversize);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Protocol, ErrorResponseShape) {
  const JsonValue v =
      json_parse(error_response("verify", kErrOverloaded, "queue full"));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("op")->string, "verify");
  EXPECT_EQ(v.find("error")->find("code")->string, kErrOverloaded);
}

// ---------------------------------------------------------------------
// Budget

TEST(Budget, UnlimitedUntilCancelled) {
  Budget b;
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.reason(), "");
  EXPECT_EQ(b.remaining(), std::chrono::nanoseconds::max());
  b.cancel();
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.reason(), "budget-cancelled");
  EXPECT_EQ(b.remaining(), std::chrono::nanoseconds::zero());
}

TEST(Budget, DeadlineExpires) {
  Budget b(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.reason(), "budget-deadline");
}

TEST(Budget, NonPositiveDeadlineMeansUnlimited) {
  Budget b(std::chrono::nanoseconds(0));
  EXPECT_FALSE(b.exhausted());
  EXPECT_EQ(b.remaining(), std::chrono::nanoseconds::max());
}

// A cancelled budget stops optimize_pareto at the next generation
// checkpoint and the partial result is well-formed (the S3 pin: a
// cancelled optimize is a result, not an error).
TEST(Budget, CancelledOptimizeReturnsWellFormedPartialResult) {
  const dcf::System system = test::make_two_lane();
  Budget budget;
  budget.cancel();
  synth::ParetoOptions options;
  options.generations = 64;
  options.measure.environments = 1;
  options.verify_frontier = false;
  options.budget = &budget;
  const synth::ParetoResult result =
      synth::optimize_pareto(system, synth::ModuleLibrary::standard(),
                             options);
  EXPECT_TRUE(result.budget_exhausted);
  EXPECT_EQ(result.stop_reason, "budget-cancelled");
  EXPECT_EQ(result.generations_run, 0u);
  // Well-formed: the frontier still contains the measured seed point.
  EXPECT_FALSE(result.frontier.empty());
  EXPECT_FALSE(synth::frontier_to_json(result, system.name()).empty());
}

// ---------------------------------------------------------------------
// DesignStore

TEST(DesignStore, HashConsesStructurallyEqualDesigns) {
  DesignStore store;
  bool reused = false;
  const auto first = store.put(test::make_doubler(), &reused);
  EXPECT_FALSE(reused);
  const auto second = store.put(test::make_doubler(), &reused);
  EXPECT_TRUE(reused);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->id(), second->id());

  const auto stats = store.stats();
  EXPECT_EQ(stats.uploads, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.entries, 1u);

  EXPECT_EQ(store.get(first->id()).get(), first.get());
  EXPECT_EQ(store.get("d0000000000000000"), nullptr);
}

TEST(DesignStore, VerifyMemoizesPerOptionsKey) {
  DesignStore store;
  const auto design = store.put(test::make_doubler(), nullptr);
  mc::McOptions options;
  bool hit = true;
  const auto first = design->verify(options, &hit);
  EXPECT_FALSE(hit);
  const auto again = design->verify(options, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(first.get(), again.get());

  // threads is excluded from the key (verdicts are thread-invariant)...
  options.threads = 3;
  (void)design->verify(options, &hit);
  EXPECT_TRUE(hit);
  // ...but max_states is part of it.
  options.max_states = 17;
  (void)design->verify(options, &hit);
  EXPECT_FALSE(hit);

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  design->verify_counters(&hits, &misses);
  EXPECT_EQ(hits, 2u);
  EXPECT_EQ(misses, 2u);
}

TEST(DesignStore, BudgetCutResultsAreNeverCached) {
  DesignStore store;
  const auto design = store.put(test::make_doubler(), nullptr);
  Budget cancelled;
  cancelled.cancel();
  mc::McOptions options;
  options.budget = &cancelled;
  bool hit = true;
  const auto partial = design->verify(options, &hit);
  EXPECT_FALSE(hit);
  EXPECT_FALSE(partial->complete);
  EXPECT_EQ(partial->cutoff_reason, "budget-cancelled");
  // The budget-cut result was not stored: the next call misses again.
  options.budget = nullptr;
  const auto full = design->verify(options, &hit);
  EXPECT_FALSE(hit);
  EXPECT_TRUE(full->complete);
}

// ---------------------------------------------------------------------
// Service

std::string design_id(Service& service, std::string_view source) {
  const std::string id =
      loadgen::uploaded_id(service.handle(upload_request(source)));
  EXPECT_FALSE(id.empty()) << "upload failed";
  return id;
}

TEST(Service, EndpointsAnswerAndUnknownsAreRejected) {
  Service service(ServiceOptions{});
  const JsonValue health = json_parse(service.handle("{\"op\":\"health\"}"));
  EXPECT_TRUE(health.find("ok")->boolean);
  EXPECT_EQ(health.find("result")->find("protocol")->number,
            static_cast<double>(kProtocolVersion));

  const JsonValue bad = json_parse(service.handle("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(bad.find("ok")->boolean);
  EXPECT_EQ(bad.find("error")->find("code")->string, kErrUnknownOp);

  const JsonValue unparsable = json_parse(service.handle("{nope"));
  EXPECT_EQ(unparsable.find("error")->find("code")->string, kErrParse);

  const JsonValue missing = json_parse(
      service.handle("{\"op\":\"simulate\",\"design\":\"d0\"}"));
  EXPECT_EQ(missing.find("error")->find("code")->string, kErrUnknownDesign);

  // "sparse" named a plan engine that no longer exists.
  const std::string id = design_id(service, synth::gcd_source());
  const JsonValue engine = json_parse(service.handle(
      "{\"op\":\"simulate\",\"design\":\"" + id +
      "\",\"engine\":\"sparse\"}"));
  EXPECT_FALSE(engine.find("ok")->boolean);
  EXPECT_EQ(engine.find("error")->find("code")->string, kErrBadRequest);
}

// The S3 centerpiece: N threads hammer one shared Service (one shared
// DesignStore / AnalysisCache / verify tier / simulator pools) with a
// deterministic request mix; every response must be byte-identical to
// the answer a fresh single-worker oracle computes for the same request
// — concurrency and cache warmth must not leak into results.
TEST(Service, ConcurrentResponsesAreBitIdenticalToSerialOracle) {
  ServiceOptions options;
  options.workers = 4;
  Service service(options);
  const std::string id = design_id(service, synth::gcd_source());

  const auto request_for = [&](std::size_t index) -> std::string {
    std::ostringstream os;
    JsonWriter w(os);
    switch (index % 3) {
      case 0:
        w.begin_object()
            .kv("op", "simulate")
            .kv("design", id)
            .kv("seed", static_cast<std::uint64_t>(1 + index % 5))
            .kv("max_cycles", static_cast<std::uint64_t>(500))
            .kv("max_events", static_cast<std::uint64_t>(8))
            .end_object();
        break;
      case 1:
        w.begin_object()
            .kv("op", "verify")
            .kv("design", id)
            .end_object();
        break;
      default:
        w.begin_object()
            .kv("op", "transform")
            .kv("design", id)
            .kv("passes", "parallelize,cleanup")
            .end_object();
        break;
    }
    return os.str();
  };

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 12;
  std::vector<std::vector<std::string>> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        responses[t].push_back(service.handle(request_for(t + i)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Fresh single-worker oracle, same store content.
  ServiceOptions oracle_options;
  oracle_options.workers = 1;
  Service oracle(oracle_options);
  ASSERT_EQ(design_id(oracle, synth::gcd_source()), id);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      EXPECT_EQ(responses[t][i], oracle.handle(request_for(t + i)))
          << "thread " << t << " request " << i;
    }
  }

  // The workload re-read one design from every thread: the shared tier
  // must show real cross-request reuse.
  EXPECT_GT(service.shared_tier_hit_rate(), 0.5);
}

// A simulate's events_total and trace_hash digest the run's external
// event list, its Def 3.4 observable. Pinned per corpus design and seed
// (random environments, default options), so a simulator change that
// alters an observable fails here even if both engines agree.
TEST(Service, SimulateTraceHashesArePinned) {
  struct Pin {
    const char* design;
    std::uint64_t seed;
    std::size_t events;
    const char* trace_hash;
  };
  constexpr Pin kPins[] = {
      {"gcd", 1, 3, "5a2b13d2d4a39eda"},
      {"gcd", 2, 3, "5781df647225a53c"},
      {"gcd", 3, 3, "ad4433c17deff9da"},
      {"gcd", 4, 3, "47a6d5d21e3e6d68"},
      {"diffeq", 1, 8, "761f7692df253d15"},
      {"diffeq", 2, 8, "dc4089c1376a380b"},
      {"diffeq", 3, 8, "90286b808103da15"},
      {"diffeq", 4, 8, "ad35797874c44e5f"},
      {"ewf", 1, 10, "37e6e1ac886321ec"},
      {"ewf", 2, 10, "05db7f1260216684"},
      {"ewf", 3, 10, "4cc7c6caf96c11e3"},
      {"ewf", 4, 10, "bc84acb26e892fe5"},
      {"fir8", 1, 16, "cd31c6c56b181f79"},
      {"fir8", 2, 16, "94ed7ab030ba96e0"},
      {"fir8", 3, 16, "e477a5642376f44a"},
      {"fir8", 4, 16, "a43e9ca720286c71"},
      {"traffic", 1, 24, "1b57ce8ed5d08f97"},
      {"traffic", 2, 24, "0bbc2c711536e08b"},
      {"traffic", 3, 24, "91b36a606c9552f7"},
      {"traffic", 4, 24, "53eb270227a242a6"},
      {"parlab", 1, 8, "b1cb7c034e0d99f2"},
      {"parlab", 2, 8, "77104af03578645c"},
      {"parlab", 3, 8, "80fc86fe63cca648"},
      {"parlab", 4, 8, "7d342459e7e34637"},
  };
  Service service(ServiceOptions{});
  std::map<std::string, std::string> ids;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    ids[std::string(d.name)] = design_id(service, std::string(d.source));
  }
  ASSERT_EQ(ids.size(), 6u);
  for (const Pin& pin : kPins) {
    SCOPED_TRACE(std::string(pin.design) + " seed " +
                 std::to_string(pin.seed));
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object()
        .kv("op", "simulate")
        .kv("design", ids.at(pin.design))
        .kv("seed", pin.seed)
        .end_object();
    const JsonValue response = json_parse(service.handle(os.str()));
    ASSERT_TRUE(response.find("ok")->boolean);
    const JsonValue* result = response.find("result");
    EXPECT_EQ(result->find("outcome")->string, "terminated");
    EXPECT_EQ(result->find("events_total")->number,
              static_cast<double>(pin.events));
    EXPECT_EQ(result->find("trace_hash")->string, pin.trace_hash);
  }
}

TEST(Service, FullQueueRejectsWithOverloadedInsteadOfStalling) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  Service service(options);
  const std::string id = design_id(service, synth::gcd_source());

  // Occupy the single worker with a long simulate (bounded by its own
  // deadline so the test cannot hang even if flooding goes wrong). With
  // a = 1 every gcd iteration subtracts one from b, so the run lasts
  // until max_cycles or the deadline; random inputs finish in a few
  // dozen cycles, too fast to keep the worker busy.
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("op", "simulate")
      .kv("design", id)
      .kv("max_cycles", static_cast<std::uint64_t>(1) << 20)
      .kv("deadline_ms", static_cast<std::uint64_t>(2000))
      .key("inputs")
      .begin_object()
      .key("a")
      .begin_array()
      .value(1)
      .end_array()
      .key("b")
      .begin_array()
      .value(1000000000)
      .end_array()
      .end_object()
      .end_object();
  const std::string slow = os.str();
  std::thread occupant([&] { (void)service.handle(slow); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // One request may take the queue slot; beyond that the service must
  // answer "overloaded" immediately rather than block.
  std::atomic<int> overloaded{0};
  std::vector<std::thread> floods;
  for (int i = 0; i < 4; ++i) {
    floods.emplace_back([&] {
      const JsonValue v = json_parse(service.handle(slow));
      const JsonValue* error = v.find("error");
      if (error != nullptr &&
          error->find("code")->string == kErrOverloaded) {
        ++overloaded;
      }
    });
  }
  // health bypasses the queue and answers while the pool is saturated.
  const JsonValue health = json_parse(service.handle("{\"op\":\"health\"}"));
  EXPECT_TRUE(health.find("ok")->boolean);
  for (std::thread& t : floods) t.join();
  occupant.join();
  EXPECT_GE(overloaded.load(), 1);
}

// A deadline'd request against the service returns ok with a partial
// result (never an error): the wire-level face of the budget contract.
TEST(Service, DeadlinedOptimizeAnswersWithPartialResult) {
  Service service(ServiceOptions{});
  const std::string id = design_id(service, synth::gcd_source());
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("op", "optimize")
      .kv("design", id)
      .kv("generations", static_cast<std::uint64_t>(64))
      .kv("deadline_ms", static_cast<std::uint64_t>(1))
      .end_object();
  const JsonValue v = json_parse(service.handle(os.str()));
  ASSERT_TRUE(v.find("ok")->boolean);
  const JsonValue* result = v.find("result");
  ASSERT_NE(result->find("stop_reason"), nullptr);
  ASSERT_NE(result->find("frontier"), nullptr);
}

TEST(Service, ShutdownRejectsNewWork) {
  Service service(ServiceOptions{});
  const std::string id = design_id(service, synth::gcd_source());
  service.shutdown();
  const JsonValue v = json_parse(
      service.handle("{\"op\":\"verify\",\"design\":\"" + id + "\"}"));
  EXPECT_FALSE(v.find("ok")->boolean);
  EXPECT_EQ(v.find("error")->find("code")->string, kErrShuttingDown);
}

// ---------------------------------------------------------------------
// Server (TCP end-to-end)

TEST(Server, AnswersOverTcpAndDrainsOnStop) {
  Service service(ServiceOptions{});
  Server server(service, ServerOptions{0});
  ASSERT_GT(server.port(), 0);
  std::thread serving([&] { server.serve(); });

  loadgen::Client client(server.port());
  ASSERT_TRUE(client.ok());
  const std::string id = loadgen::uploaded_id(
      client.call(upload_request(synth::gcd_source())));
  ASSERT_FALSE(id.empty());
  EXPECT_TRUE(loadgen::response_ok(
      client.call("{\"op\":\"verify\",\"design\":\"" + id + "\"}")));

  server.stop();
  serving.join();
}

// ---------------------------------------------------------------------
// Load generator

// bench_serve's 64 x 32 request sequence, with placeholder design ids:
// the FNV-1a 64 digest of every request (op, design, parameters) in
// (client, index) order. BENCH_serve's baseline was recorded on it, so
// a change to the mix must re-record the baseline.
TEST(LoadMix, BenchServeSequenceIsPinned) {
  loadgen::Mix mix = loadgen::bench_mix();
  mix.ids = {"dA", "dB"};
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t c = 0; c < 64; ++c) {
    for (std::size_t i = 0; i < 32; ++i) {
      for (const unsigned char ch : loadgen::request_for(mix, c, i) + '\n') {
        h ^= ch;
        h *= 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(h, 0x3873bdc27e4bfb48ULL);
}

}  // namespace
}  // namespace camad::serve
