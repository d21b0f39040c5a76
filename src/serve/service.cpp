#include "serve/service.h"

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "gen/lift.h"
#include "serve/protocol.h"
#include "sim/batch.h"
#include "sim/environment.h"
#include "synth/optimizer.h"
#include "synth/synthesis.h"
#include "transform/passes.h"
#include "util/error.h"
#include "util/json.h"

namespace camad::serve {

namespace {

/// Endpoint-local failure that maps onto the closed error vocabulary.
struct RequestError {
  std::string code;
  std::string message;
};

[[noreturn]] void bad_request(const std::string& message) {
  throw RequestError{std::string(kErrBadRequest), message};
}

std::string require_string(const JsonValue& request, std::string_view key) {
  const JsonValue* v = request.find(key);
  if (v == nullptr || !v->is_string()) {
    bad_request("missing string field '" + std::string(key) + "'");
  }
  return v->string;
}

std::uint64_t uint_or(const JsonValue& request, std::string_view key,
                      std::uint64_t fallback) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() || v->number < 0) {
    bad_request("field '" + std::string(key) +
                "' must be a non-negative number");
  }
  return static_cast<std::uint64_t>(v->number);
}

bool bool_or(const JsonValue& request, std::string_view key, bool fallback) {
  const JsonValue* v = request.find(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::kBool) {
    bad_request("field '" + std::string(key) + "' must be a boolean");
  }
  return v->boolean;
}

/// FNV-1a 64 over a stream of integers — the simulate trace digest.
class Fnv64 {
 public:
  void feed(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (i * 8)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

std::string hex16(std::uint64_t word) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back(kHex[(word >> shift) & 0xf]);
  }
  return out;
}

std::string ok_response(std::string_view op, std::string_view result_raw) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().kv("ok", true).kv("op", op).key("result").raw(
      result_raw);
  w.end_object();
  return os.str();
}

}  // namespace

Service::Service(ServiceOptions options) : options_(std::move(options)) {
  if (options_.workers == 0) options_.workers = 1;
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  // The pool is sim::parallel_jobs with jobs == workers: each job *is* a
  // worker loop, so the service rides the exact thread lifecycle the
  // batch simulator uses (and is tested under).
  pool_ = std::thread([this] {
    sim::parallel_jobs(options_.workers, options_.workers,
                       [this](std::size_t worker, std::size_t) {
                         worker_loop(worker);
                       });
  });
}

Service::~Service() { shutdown(); }

void Service::shutdown() {
  // Serializes concurrent shutdown callers (Server::serve vs ~Service,
  // or two explicit calls): join() on one std::thread from two threads
  // is UB, so the loser blocks here until the winner's join completes
  // and then sees a no-longer-joinable pool.
  const std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
    // Cancel queued *and* executing requests: engine loops observe the
    // budget at their next cycle / level / generation boundary and
    // return well-formed partial results, so drain is prompt and every
    // blocked handle() caller still gets its response.
    for (Budget* budget : in_flight_) budget->cancel();
  }
  work_available_.notify_all();
  if (pool_.joinable()) pool_.join();
}

std::string Service::handle(const std::string& request_json) {
  const auto t0 = std::chrono::steady_clock::now();
  JsonValue request;
  try {
    request = json_parse(request_json);
  } catch (const std::exception& e) {
    metrics_.add("serve.errors.parse");
    return error_response("", kErrParse, e.what());
  }
  const JsonValue* op_field = request.find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    metrics_.add("serve.errors.bad_request");
    return error_response("", kErrBadRequest, "missing string field 'op'");
  }
  const std::string op = op_field->string;
  metrics_.add("serve." + op + ".requests");

  if (op == "health") return do_health();
  if (op == "stats") return ok_response("stats", stats_json());
  if (op != "upload" && op != "simulate" && op != "verify" &&
      op != "optimize" && op != "transform") {
    metrics_.add("serve.errors.unknown_op");
    return error_response(op, kErrUnknownOp, "unknown op '" + op + "'");
  }

  const std::uint64_t deadline_ms =
      uint_or(request, "deadline_ms",
              static_cast<std::uint64_t>(options_.default_deadline.count()));
  auto job = std::make_unique<Job>();
  job->op = op;
  job->request = std::move(request);
  job->budget = deadline_ms > 0
                    ? std::make_unique<Budget>(
                          std::chrono::milliseconds(deadline_ms))
                    : std::make_unique<Budget>();
  std::future<std::string> response = job->response.get_future();

  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (shutting_down_) {
      metrics_.add("serve.rejected.shutdown");
      return error_response(op, kErrShuttingDown, "server is draining");
    }
    if (queue_.size() >= options_.queue_capacity) {
      // Backpressure: reject immediately rather than stalling the
      // client — the queue bound is the service's entire admission
      // control (acceptance criterion).
      metrics_.add("serve.rejected.overloaded");
      return error_response(
          op, kErrOverloaded,
          "queue full (depth " + std::to_string(queue_.size()) + ")");
    }
    in_flight_.insert(job->budget.get());
    queue_.push_back(std::move(job));
    metrics_.set("serve.queue.depth", static_cast<double>(queue_.size()));
  }
  work_available_.notify_one();

  std::string out = response.get();
  const auto t1 = std::chrono::steady_clock::now();
  metrics_.observe("serve." + op + ".seconds",
                   std::chrono::duration<double>(t1 - t0).count());
  return out;
}

void Service::worker_loop(std::size_t /*worker*/) {
  WorkerState state;
  for (;;) {
    std::unique_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      metrics_.set("serve.queue.depth", static_cast<double>(queue_.size()));
    }
    std::string out = execute(state, *job);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      in_flight_.erase(job->budget.get());
    }
    job->response.set_value(std::move(out));
  }
}

std::string Service::execute(WorkerState& state, Job& job) {
  try {
    if (job.op == "upload") return do_upload(job);
    if (job.op == "simulate") return do_simulate(state, job);
    if (job.op == "verify") return do_verify(job);
    if (job.op == "optimize") return do_optimize(job);
    return do_transform(job);
  } catch (const RequestError& e) {
    metrics_.add("serve.errors.bad_request");
    return error_response(job.op, e.code, e.message);
  } catch (const std::exception& e) {
    metrics_.add("serve.errors.internal");
    return error_response(job.op, kErrInternal, e.what());
  }
}

std::string Service::do_health() {
  bool draining;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining = shutting_down_;
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("protocol", kProtocolVersion)
      .kv("status", draining ? "draining" : "serving")
      .kv("workers", options_.workers)
      .end_object();
  return ok_response("health", os.str());
}

std::string Service::do_upload(Job& job) {
  const JsonValue& request = job.request;
  const std::string source = require_string(request, "source");
  std::string name = "design";
  if (const JsonValue* n = request.find("name");
      n != nullptr && n->is_string()) {
    name = n->string;
  }
  dcf::System system;
  try {
    system = gen::parse_design_text(source, name);
  } catch (const std::exception& e) {
    bad_request(std::string("cannot parse design: ") + e.what());
  }
  // Dedup (hash-consing) is intentionally invisible here: whether this
  // upload reused an entry depends on store history, and responses must
  // be pure functions of (request, design content). The dedup counters
  // live in `stats`.
  const auto stored = store_.put(std::move(system), nullptr);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", stored->id())
      .kv("name", stored->system().name())
      .kv("states", stored->system().control().state_count())
      .kv("transitions", stored->system().control().transition_count())
      .kv("vertices", stored->system().datapath().vertex_count())
      .end_object();
  return ok_response("upload", os.str());
}

sim::Simulator& Service::pooled_simulator(
    WorkerState& state, const std::shared_ptr<const StoredDesign>& design) {
  ++state.tick;
  for (PooledSimulator& entry : state.simulators) {
    if (entry.design->id() == design->id()) {
      entry.last_used = state.tick;
      return *entry.simulator;
    }
  }
  if (state.simulators.size() >= options_.simulator_pool_capacity &&
      !state.simulators.empty()) {
    auto victim = std::min_element(
        state.simulators.begin(), state.simulators.end(),
        [](const PooledSimulator& a, const PooledSimulator& b) {
          return a.last_used < b.last_used;
        });
    state.simulators.erase(victim);
  }
  PooledSimulator entry;
  entry.design = design;  // keeps the referenced System alive
  entry.simulator = std::make_unique<sim::Simulator>(design->system());
  entry.last_used = state.tick;
  state.simulators.push_back(std::move(entry));
  return *state.simulators.back().simulator;
}

std::string Service::do_simulate(WorkerState& state, Job& job) {
  const JsonValue& request = job.request;
  const std::string id = require_string(request, "design");
  const auto design = store_.get(id);
  if (design == nullptr) {
    throw RequestError{std::string(kErrUnknownDesign),
                       "no design '" + id + "'"};
  }

  sim::SimOptions options;
  options.max_cycles = std::min<std::uint64_t>(
      uint_or(request, "max_cycles", 100000), options_.max_cycles_cap);
  options.seed = uint_or(request, "seed", 7);
  options.budget = job.budget.get();
  if (const JsonValue* p = request.find("policy")) {
    if (!p->is_string()) bad_request("field 'policy' must be a string");
    if (p->string == "maximal") {
      options.policy = sim::FiringPolicy::kMaximalStep;
    } else if (p->string == "random") {
      options.policy = sim::FiringPolicy::kRandomOrder;
    } else if (p->string == "single") {
      options.policy = sim::FiringPolicy::kSingleRandom;
    } else {
      bad_request("unknown policy '" + p->string +
                  "' (expected maximal, random or single)");
    }
  }
  if (const JsonValue* e = request.find("engine")) {
    if (!e->is_string()) bad_request("field 'engine' must be a string");
    const auto engine = sim::engine_from_name(e->string);
    if (!engine.has_value()) {
      bad_request("unknown engine '" + e->string +
                  "' (expected compiled or reference)");
    }
    options.engine = *engine;
  }
  const std::size_t max_events = static_cast<std::size_t>(std::min<
      std::uint64_t>(uint_or(request, "max_events", 256),
                     options_.max_events_cap));

  sim::Environment env;
  const JsonValue* inputs = request.find("inputs");
  if (inputs != nullptr && inputs->is_object() && !inputs->object.empty()) {
    for (const auto& [name, stream] : inputs->object) {
      const dcf::VertexId v = design->system().datapath().find_vertex(name);
      if (!v.valid()) bad_request("no input named '" + name + "'");
      if (!stream.is_array()) {
        bad_request("input stream '" + name + "' must be an array");
      }
      std::vector<std::int64_t> values;
      values.reserve(stream.array.size());
      for (const JsonValue& item : stream.array) {
        if (!item.is_number()) {
          bad_request("input stream '" + name + "' must contain numbers");
        }
        values.push_back(static_cast<std::int64_t>(item.number));
      }
      env.set_stream(v, std::move(values));
    }
  } else {
    // Mirror of the camadc sim default: 64 uniform values in [1, 99]
    // per input, deterministic in the seed.
    env = sim::Environment::random_for(design->system(), options.seed, 64,
                                       1, 99);
  }

  const sim::SimResult result =
      pooled_simulator(state, design).run(env, options);
  publish_sim_stats(result.stats);

  const std::vector<sim::ExternalEvent>& events = result.trace.events();
  Fnv64 digest;
  for (const sim::ExternalEvent& event : events) {
    digest.feed(event.cycle);
    digest.feed(event.arc.value());
    digest.feed(event.state.value());
    digest.feed(event.value.defined()
                    ? static_cast<std::uint64_t>(event.value.raw())
                    : 0x8000000000000000ull);
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", design->id())
      .kv("outcome", result.terminated
                         ? "terminated"
                         : (result.deadlocked
                                ? "deadlocked"
                                : (result.budget_exhausted ? "budget"
                                                           : "cycle-limit")))
      .kv("cycles", result.cycles)
      .kv("events_total", events.size())
      .kv("trace_hash", hex16(digest.digest()))
      .key("violations")
      .begin_array();
  for (const std::string& violation : result.violations) w.value(violation);
  w.end_array().key("events").begin_array();
  const std::size_t emit = std::min(events.size(), max_events);
  for (std::size_t i = 0; i < emit; ++i) {
    const sim::ExternalEvent& event = events[i];
    w.begin_object()
        .kv("cycle", event.cycle)
        .kv("arc", event.arc.value())
        .kv("state", event.state.value());
    w.key("value");
    if (event.value.defined()) {
      w.value(event.value.raw());
    } else {
      w.raw("null");
    }
    w.end_object();
  }
  w.end_array().end_object();
  return ok_response("simulate", os.str());
}

std::string Service::do_verify(Job& job) {
  const JsonValue& request = job.request;
  const std::string id = require_string(request, "design");
  const auto design = store_.get(id);
  if (design == nullptr) {
    throw RequestError{std::string(kErrUnknownDesign),
                       "no design '" + id + "'"};
  }
  mc::McOptions options;
  // One thread per request: service concurrency comes from the worker
  // pool, not from nested engine parallelism (and the memoized result
  // is thread-count invariant anyway).
  options.threads = 1;
  options.max_states = static_cast<std::size_t>(std::min<std::uint64_t>(
      uint_or(request, "max_states", options.max_states),
      options_.max_states_cap));
  options.token_bound = static_cast<std::uint32_t>(
      uint_or(request, "token_bound", options.token_bound));
  options.use_guards = bool_or(request, "guards", true);
  options.budget = job.budget.get();

  bool cache_hit = false;
  const auto result = design->verify(options, &cache_hit);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", design->id())
      .kv("complete", result->complete)
      .kv("cutoff", result->cutoff_reason)
      .kv("safe", result->safe)
      .kv("bounded", result->bounded)
      .kv("deadlock", result->deadlock)
      .kv("terminates", result->can_terminate)
      .kv("states", result->state_count)
      .kv("markings", result->marking_count)
      .kv("depth", result->depth)
      .kv("dead_transitions", result->dead_transitions.size())
      .kv("conflicts", result->conflicts.size())
      .end_object();
  return ok_response("verify", os.str());
}

std::string Service::do_optimize(Job& job) {
  const JsonValue& request = job.request;
  const std::string id = require_string(request, "design");
  const auto design = store_.get(id);
  if (design == nullptr) {
    throw RequestError{std::string(kErrUnknownDesign),
                       "no design '" + id + "'"};
  }
  synth::ParetoOptions options;
  options.generations = static_cast<std::size_t>(std::min<std::uint64_t>(
      uint_or(request, "generations", 16), options_.generations_cap));
  options.beam_width = static_cast<std::size_t>(
      uint_or(request, "beam", options.beam_width));
  options.eval_threads = 1;
  options.verify_frontier = bool_or(request, "verify", false);
  options.budget = job.budget.get();

  const synth::ParetoResult result = synth::optimize_pareto(
      design->system(), synth::ModuleLibrary::standard(), options);
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    sim_stats_ += result.sim_stats;
  }
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", design->id())
      .kv("budget_exhausted", result.budget_exhausted)
      .kv("stop_reason", result.stop_reason)
      .key("frontier")
      .raw(synth::frontier_to_json(result, design->system().name()))
      .end_object();
  return ok_response("optimize", os.str());
}

std::string Service::do_transform(Job& job) {
  const JsonValue& request = job.request;
  const std::string id = require_string(request, "design");
  const auto design = store_.get(id);
  if (design == nullptr) {
    throw RequestError{std::string(kErrUnknownDesign),
                       "no design '" + id + "'"};
  }
  const std::string spec = require_string(request, "passes");
  transform::PassPipeline pipeline;
  try {
    pipeline = transform::PassPipeline::from_spec(spec);
  } catch (const std::exception& e) {
    bad_request(e.what());
  }
  // The first pass reads the design's shared AnalysisCache — the
  // cross-request tier: a repeat transform (or one following a verify
  // that warmed the cache) starts from analyses already paid for.
  dcf::System transformed = pipeline.run(design->system(),
                                         design->analysis());
  const auto stored = store_.put(std::move(transformed), nullptr);
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", design->id())
      .kv("result", stored->id())
      .kv("passes", pipeline.size())
      .kv("states", stored->system().control().state_count())
      .kv("vertices", stored->system().datapath().vertex_count())
      .end_object();
  return ok_response("transform", os.str());
}

void Service::publish_sim_stats(const sim::SimStats& stats) {
  const std::lock_guard<std::mutex> lock(stats_mu_);
  sim_stats_ += stats;
}

double Service::shared_tier_hit_rate() {
  const DesignStore::Stats store = store_.stats();
  std::uint64_t hits = store.dedup_hits;
  std::uint64_t accesses = store.uploads;
  for (const auto& design : store_.snapshot()) {
    std::uint64_t vh = 0;
    std::uint64_t vm = 0;
    design->verify_counters(&vh, &vm);
    hits += vh;
    accesses += vh + vm;
    const semantics::AnalysisCacheStats a = design->analysis().stats();
    hits += a.total_hits();
    accesses += a.total_hits() + a.total_misses();
  }
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    hits += sim_stats_.plan_cache_hits;
    accesses += sim_stats_.plan_cache_hits + sim_stats_.plan_cache_misses;
  }
  return accesses == 0 ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(accesses);
}

std::string Service::stats_json() {
  const DesignStore::Stats store = store_.stats();
  std::uint64_t verify_hits = 0;
  std::uint64_t verify_misses = 0;
  semantics::AnalysisCacheStats analysis;
  for (const auto& design : store_.snapshot()) {
    std::uint64_t vh = 0;
    std::uint64_t vm = 0;
    design->verify_counters(&vh, &vm);
    verify_hits += vh;
    verify_misses += vm;
    analysis += design->analysis().stats();
  }
  sim::SimStats sim_stats;
  {
    const std::lock_guard<std::mutex> lock(stats_mu_);
    sim_stats = sim_stats_;
  }
  std::size_t queue_depth;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    queue_depth = queue_.size();
  }

  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("protocol", kProtocolVersion)
      .kv("workers", options_.workers)
      .kv("queue_depth", queue_depth)
      .kv("queue_capacity", options_.queue_capacity)
      .key("store")
      .begin_object()
      .kv("entries", store.entries)
      .kv("uploads", store.uploads)
      .kv("dedup_hits", store.dedup_hits)
      .kv("lookups", store.lookups)
      .kv("lookup_misses", store.lookup_misses)
      .end_object()
      .key("verify_cache")
      .begin_object()
      .kv("hits", verify_hits)
      .kv("misses", verify_misses)
      .end_object()
      .key("analysis_cache")
      .begin_object()
      .kv("hits", analysis.total_hits())
      .kv("misses", analysis.total_misses())
      .kv("transfers", analysis.total_transfers())
      .end_object()
      .key("plan_cache")
      .begin_object()
      .kv("hits", sim_stats.plan_cache_hits)
      .kv("misses", sim_stats.plan_cache_misses)
      .kv("evictions", sim_stats.plan_cache_evictions)
      .kv("bytes", sim_stats.plan_cache_bytes)
      .end_object()
      .kv("shared_tier_hit_rate", shared_tier_hit_rate())
      .key("metrics")
      .raw(metrics_.to_json())
      .end_object();
  return os.str();
}

}  // namespace camad::serve
