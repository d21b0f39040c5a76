// obs::TraceSession / obs::MetricsRegistry: the exported JSON must be
// well-formed and Perfetto-shaped (every event carries ph/ts/pid/tid,
// B/E spans nest per thread), deterministic mode must serialize
// byte-identically across runs, and concurrent recording from the
// sim::parallel_jobs worker pool must neither race nor drop events.
// The validator here is a deliberately tiny recursive-descent JSON
// parser — just enough structure to assert on, no dependency.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstddef>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "mc/checker.h"
#include "obs/adapters.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/optimizer.h"
#include "workloads.h"

namespace camad {
namespace {

// --- minimal JSON parser -------------------------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value);
  }
  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(value);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(value);
  }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(value);
  }
  [[nodiscard]] double number() const { return std::get<double>(value); }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  /// Parses one value and requires the input to be fully consumed.
  JsonValue parse() {
    const JsonValue value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  void fail(const std::string& what) {
    throw std::runtime_error("json error at offset " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return JsonValue{parse_string()};
      case 't':
        parse_literal("true");
        return JsonValue{true};
      case 'f':
        parse_literal("false");
        return JsonValue{false};
      case 'n':
        parse_literal("null");
        return JsonValue{nullptr};
      default:
        return JsonValue{parse_number()};
    }
  }

  void parse_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  JsonValue parse_object() {
    expect('{');
    JsonObject object;
    skip_ws();
    if (consume('}')) return JsonValue{std::move(object)};
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      object.emplace(std::move(key), parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect('}');
      return JsonValue{std::move(object)};
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonArray array;
    skip_ws();
    if (consume(']')) return JsonValue{std::move(array)};
    while (true) {
      array.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect(']');
      return JsonValue{std::move(array)};
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = peek();
        ++pos_;
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            out += static_cast<char>(
                std::stoul(std::string(text_.substr(pos_, 4)), nullptr, 16));
            pos_ += 4;
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    return std::stod(std::string(text_.substr(start, pos_ - start)));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses a trace document and returns its traceEvents array, asserting
/// the envelope shape on the way.
std::string trace_json(const obs::TraceSession& session) {
  std::ostringstream out;
  session.write_json(out);
  return out.str();
}

JsonArray trace_events(const std::string& json) {
  const JsonValue doc = JsonParser(json).parse();
  EXPECT_TRUE(doc.is_object());
  const auto it = doc.object().find("traceEvents");
  EXPECT_NE(it, doc.object().end());
  return it->second.array();
}

// --- TraceSession --------------------------------------------------------

TEST(TraceSession, EventsCarryRequiredFieldsAndNest) {
  obs::TraceSession session;
  session.activate();
  {
    const obs::ObsSpan outer("outer");
    {
      const obs::ObsSpan inner("inner.", "suffix");
      session.counter("cache.size", 3.0);
    }
    session.instant("accepted", "{\"objective\":1.5}");
  }
  session.deactivate();

  const JsonArray events = trace_events(trace_json(session));
  // 2 spans (B+E each) + 1 counter + 1 instant, plus possible metadata.
  std::size_t spans = 0;
  std::map<double, std::vector<char>> stacks;  // tid -> open-phase stack
  bool saw_counter = false;
  bool saw_instant = false;
  for (const JsonValue& event : events) {
    ASSERT_TRUE(event.is_object());
    const JsonObject& fields = event.object();
    for (const char* required : {"ph", "ts", "pid", "tid"}) {
      ASSERT_TRUE(fields.count(required) == 1)
          << "event missing '" << required << "'";
    }
    const std::string& ph = fields.at("ph").string();
    const double tid = fields.at("tid").number();
    if (ph == "B") {
      stacks[tid].push_back('B');
      ++spans;
      ASSERT_TRUE(fields.count("name") == 1);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "E without open B";
      stacks[tid].pop_back();
    } else if (ph == "C") {
      saw_counter = true;
      EXPECT_EQ(fields.at("name").string(), "cache.size");
    } else if (ph == "i") {
      saw_instant = true;
      EXPECT_EQ(fields.at("name").string(), "accepted");
      EXPECT_EQ(fields.at("args").object().at("objective").number(), 1.5);
    }
  }
  EXPECT_EQ(spans, 2u);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_instant);
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unbalanced spans on tid " << tid;
  }
}

TEST(TraceSession, DisabledSitesRecordNothingAndSkipArgsLambda) {
  ASSERT_EQ(obs::TraceSession::active(), nullptr);
  bool args_built = false;
  {
    const obs::ObsSpan span("never", [&] {
      args_built = true;
      return std::string("{}");
    });
  }
  EXPECT_FALSE(args_built);

  obs::TraceSession session;
  // Not activated: instrumentation sites see no active session.
  {
    const obs::ObsSpan span("still-nothing");
  }
  EXPECT_EQ(session.event_count(), 0u);
}

TEST(TraceSession, DeterministicModeIsByteIdentical) {
  auto record = [] {
    obs::TraceSession session(obs::TraceOptions{true});
    session.activate();
    {
      const obs::ObsSpan a("alpha");
      const obs::ObsSpan b("beta");
      session.counter("n", 1.0);
    }
    session.instant("done");
    session.deactivate();
    return trace_json(session);
  };
  const std::string first = record();
  const std::string second = record();
  EXPECT_EQ(first, second);
  // Still valid JSON with integer logical timestamps.
  const JsonArray events = trace_events(first);
  EXPECT_FALSE(events.empty());
}

TEST(TraceSession, ParallelWorkersRecordWithoutLossOrInterleaving) {
  constexpr std::size_t kJobs = 64;
  obs::TraceSession session;
  session.activate();
  sim::parallel_jobs(kJobs, 4, [](std::size_t worker, std::size_t job) {
    const obs::ObsSpan span("job.", std::to_string(job));
    if (obs::TraceSession* active = obs::TraceSession::active()) {
      active->counter("worker." + std::to_string(worker),
                      static_cast<double>(job));
    }
  });
  session.deactivate();

  const JsonArray events = trace_events(trace_json(session));
  std::size_t begins = 0;
  std::size_t counters = 0;
  std::map<double, std::size_t> open;  // tid -> currently open spans
  for (const JsonValue& event : events) {
    const JsonObject& fields = event.object();
    const std::string& ph = fields.at("ph").string();
    const double tid = fields.at("tid").number();
    if (ph == "B") {
      ++begins;
      ++open[tid];
    } else if (ph == "E") {
      ASSERT_GT(open[tid], 0u) << "E without B on tid " << tid;
      --open[tid];
    } else if (ph == "C") {
      ++counters;
    }
  }
  EXPECT_EQ(begins, kJobs);
  EXPECT_EQ(counters, kJobs);
  for (const auto& [tid, depth] : open) {
    EXPECT_EQ(depth, 0u) << "unbalanced spans on tid " << tid;
  }
}

// --- MetricsRegistry + adapters ------------------------------------------

TEST(MetricsRegistry, SnapshotRoundTripsThroughJson) {
  obs::MetricsRegistry metrics;
  metrics.add("runs");
  metrics.add("runs", 4);
  metrics.set("resident", 7.0);
  for (int i = 1; i <= 100; ++i) metrics.observe("latency", i);

  const JsonValue doc = JsonParser(metrics.to_json()).parse();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.object().at("counters").object().at("runs").number(), 5.0);
  EXPECT_EQ(doc.object().at("gauges").object().at("resident").number(), 7.0);
  const JsonObject& latency =
      doc.object().at("histograms").object().at("latency").object();
  EXPECT_EQ(latency.at("count").number(), 100.0);
  EXPECT_EQ(latency.at("min").number(), 1.0);
  EXPECT_EQ(latency.at("max").number(), 100.0);
  EXPECT_GE(latency.at("p99").number(), latency.at("p50").number());
}

TEST(MetricsAdapters, PublishSimStatsMatchesSource) {
  sim::SimStats stats;
  stats.plan_cache_hits = 11;
  stats.plan_cache_misses = 3;
  stats.plan_cache_evictions = 1;
  stats.plan_cache_size = 2;
  obs::MetricsRegistry metrics;
  obs::publish_sim_stats(metrics, stats);

  const JsonValue doc = JsonParser(metrics.to_json()).parse();
  const JsonObject& counters = doc.object().at("counters").object();
  EXPECT_EQ(counters.at("sim.plan_cache.hits").number(), 11.0);
  EXPECT_EQ(counters.at("sim.plan_cache.misses").number(), 3.0);
  EXPECT_EQ(counters.at("sim.plan_cache.evictions").number(), 1.0);
  EXPECT_EQ(doc.object().at("gauges").object().at("sim.plan_cache.size")
                .number(),
            2.0);
}

TEST(MetricsRegistry, NonFiniteObservationsAreDroppedAndCounted) {
  obs::MetricsRegistry metrics;
  metrics.observe("latency", 2.0);
  metrics.observe("latency", std::numeric_limits<double>::quiet_NaN());
  metrics.observe("latency", std::numeric_limits<double>::infinity());
  metrics.observe("latency", -std::numeric_limits<double>::infinity());
  metrics.observe("latency", 4.0);

  const JsonValue doc = JsonParser(metrics.to_json()).parse();
  const JsonObject& latency =
      doc.object().at("histograms").object().at("latency").object();
  EXPECT_EQ(latency.at("count").number(), 2.0);
  EXPECT_EQ(latency.at("min").number(), 2.0);
  EXPECT_EQ(latency.at("max").number(), 4.0);
  EXPECT_EQ(
      doc.object().at("counters").object().at("latency.dropped").number(),
      3.0);
}

// --- RunReport ------------------------------------------------------------

TEST(RunReport, DocumentMatchesMiniSchema) {
  obs::RunReportOptions options;
  options.tool = "camadc";
  options.command = "verify";
  options.file = "design.bdl";
  options.args = {"--progress", "--report=report.json"};
  obs::RunReport report(options);
  report.note("verdict", "verified");
  report.note("verdict", "refuted");  // last write per key wins

  obs::MetricsRegistry metrics;
  metrics.add("mc.states", 42);
  metrics.set("mc.store.bytes", 1024.0);

  std::ostringstream out;
  report.write(out, 3, metrics);

  const JsonValue doc = JsonParser(out.str()).parse();
  ASSERT_TRUE(doc.is_object());
  const JsonObject& root = doc.object();
  EXPECT_EQ(root.at("schema_version").number(),
            static_cast<double>(obs::RunReport::kSchemaVersion));
  EXPECT_EQ(root.at("tool").string(), "camadc");
  EXPECT_EQ(root.at("command").string(), "verify");
  EXPECT_EQ(root.at("file").string(), "design.bdl");
  ASSERT_EQ(root.at("args").array().size(), 2u);
  EXPECT_EQ(root.at("args").array()[0].string(), "--progress");
  EXPECT_GE(root.at("wall_seconds").number(), 0.0);
  EXPECT_EQ(root.at("exit_status").number(), 3.0);
  EXPECT_GE(root.at("peak_rss_bytes").number(), 0.0);
  EXPECT_GE(root.at("hardware_threads").number(), 1.0);
  EXPECT_EQ(root.at("notes").object().at("verdict").string(), "refuted");
  const JsonObject& embedded = root.at("metrics").object();
  EXPECT_EQ(embedded.at("counters").object().at("mc.states").number(), 42.0);
  EXPECT_EQ(embedded.at("gauges").object().at("mc.store.bytes").number(),
            1024.0);
}

TEST(RunReport, PeakRssIsPlausible) {
  const std::uint64_t rss = obs::peak_rss_bytes();
  // /proc/self/status is available everywhere we run; a gtest process
  // has touched well over a megabyte by now.
  EXPECT_GT(rss, 1u << 20);
}

// --- ProgressMeter: output invariance -------------------------------------

TEST(Progress, DisabledByDefaultEnabledUnderMeter) {
  EXPECT_FALSE(obs::progress_enabled());
  std::ostringstream sink;
  {
    obs::ProgressMeter meter(obs::ProgressMeterOptions{0.0, &sink});
    EXPECT_TRUE(obs::progress_enabled());
  }
  EXPECT_FALSE(obs::progress_enabled());
}

TEST(Progress, McVerdictsInvariantUnderMeter) {
  bench::SpNetOptions sp;
  sp.depth = 1;
  sp.width = 6;
  sp.chain = 3;
  const petri::Net net = bench::random_sp_net(/*seed=*/3, sp);
  mc::McOptions options;
  options.threads = 2;

  const mc::McResult plain = mc::model_check(net, options);

  std::ostringstream sink;
  mc::McResult metered;
  {
    obs::ProgressMeter meter(obs::ProgressMeterOptions{0.0, &sink});
    metered = mc::model_check(net, options);
  }

  EXPECT_TRUE(mc::same_verdicts(plain, metered));
  EXPECT_EQ(plain.state_count, metered.state_count);
  const std::string lines = sink.str();
  EXPECT_NE(lines.find("mc:"), std::string::npos) << lines;
  EXPECT_NE(lines.find("states="), std::string::npos) << lines;
  EXPECT_NE(lines.find("store="), std::string::npos) << lines;
}

TEST(Progress, ParetoFrontierJsonInvariantUnderMeter) {
  const dcf::System serial = synth::compile_source(synth::gcd_source());
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  synth::ParetoOptions options;
  options.beam_width = 2;
  options.generations = 3;
  options.measure.environments = 1;
  options.verify_frontier = false;
  options.eval_threads = 1;

  const synth::ParetoResult plain = synth::optimize_pareto(serial, lib,
                                                           options);

  std::ostringstream sink;
  std::string metered_json;
  {
    obs::ProgressMeter meter(obs::ProgressMeterOptions{0.0, &sink});
    const synth::ParetoResult metered =
        synth::optimize_pareto(serial, lib, options);
    metered_json = synth::frontier_to_json(metered, "gcd");
  }

  EXPECT_EQ(synth::frontier_to_json(plain, "gcd"), metered_json);
  EXPECT_NE(sink.str().find("pareto:"), std::string::npos) << sink.str();
}

TEST(Progress, BatchSimPublishesRetiredSeeds) {
  const dcf::System system = synth::compile_source(synth::gcd_source());
  std::ostringstream sink;
  {
    obs::ProgressMeter meter(obs::ProgressMeterOptions{0.0, &sink});
    sim::simulate_batch_seeds(system, /*base_seed=*/1, /*count=*/8,
                              /*stream_length=*/16, {}, /*threads=*/2);
  }
  const std::string lines = sink.str();
  EXPECT_NE(lines.find("sim: seeds=8"), std::string::npos) << lines;
}

// --- Memory accounting ----------------------------------------------------

// The fork8x4 bench_mc workload (65539 states) doubles as the
// memory-gauge reference: store bytes must be live, per-state cost must
// sit in a sane band, and the published gauges must match the result.
TEST(MemoryAccounting, McStoreGaugesBoundedOnForkWorkload) {
  bench::SpNetOptions sp;
  sp.depth = 1;
  sp.width = 8;
  sp.chain = 4;
  const petri::Net net = bench::random_sp_net(/*seed=*/3, sp);
  mc::McOptions options;
  options.threads = 2;
  const mc::McResult result = mc::model_check(net, options);
  ASSERT_TRUE(result.complete);
  EXPECT_GT(result.state_count, 60000u);

  ASSERT_GT(result.stats.store_bytes, 0u);
  const double bytes_per_state =
      static_cast<double>(result.stats.store_bytes) /
      static_cast<double>(result.state_count);
  EXPECT_GE(bytes_per_state, 8.0);
  EXPECT_LE(bytes_per_state, 4096.0);

  ASSERT_EQ(result.stats.shard_entries.size(), result.stats.shard_count);
  std::size_t stored = 0;
  for (const std::size_t entries : result.stats.shard_entries) {
    stored += entries;
  }
  EXPECT_EQ(stored, result.state_count);

  obs::MetricsRegistry metrics;
  obs::publish_mc_stats(metrics, result);
  const JsonValue doc = JsonParser(metrics.to_json()).parse();
  const JsonObject& gauges = doc.object().at("gauges").object();
  EXPECT_EQ(gauges.at("mc.store.bytes").number(),
            static_cast<double>(result.stats.store_bytes));
  EXPECT_EQ(gauges.at("mc.store.shards").number(),
            static_cast<double>(result.stats.shard_count));
  EXPECT_NEAR(gauges.at("mc.store.bytes_per_state").number(),
              bytes_per_state, 1e-6);
  const JsonObject& counters = doc.object().at("counters").object();
  EXPECT_EQ(counters.at("mc.states").number(),
            static_cast<double>(result.state_count));
  EXPECT_EQ(counters.at("mc.successors").number(),
            static_cast<double>(result.stats.successors));
  EXPECT_EQ(counters.at("mc.rediscoveries.same_depth").number(),
            static_cast<double>(result.stats.same_depth_rediscoveries));
  EXPECT_EQ(counters.at("mc.rediscoveries.older").number(),
            static_cast<double>(result.stats.older_rediscoveries));
  EXPECT_EQ(counters.at("mc.parent_replacements").number(),
            static_cast<double>(result.stats.parent_replacements));
  const JsonObject& occupancy =
      doc.object().at("histograms").object().at("mc.store.shard_entries")
          .object();
  EXPECT_EQ(occupancy.at("count").number(),
            static_cast<double>(result.stats.shard_count));
}

TEST(MemoryAccounting, PlanCacheBytesFlowThroughAdapter) {
  const dcf::System system = synth::compile_source(synth::gcd_source());
  sim::Environment env = bench::fixed_environment(system, "gcd");
  sim::SimOptions options;
  const sim::SimResult result = sim::simulate(system, env, options);
  EXPECT_GT(result.stats.plan_cache_bytes, 0u);

  obs::MetricsRegistry metrics;
  obs::publish_sim_stats(metrics, result.stats);
  const JsonValue doc = JsonParser(metrics.to_json()).parse();
  EXPECT_EQ(doc.object().at("gauges").object().at("sim.plan_cache.bytes")
                .number(),
            static_cast<double>(result.stats.plan_cache_bytes));
}

}  // namespace
}  // namespace camad
