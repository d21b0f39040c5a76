// Request dispatch: the endpoint implementations, the worker-pool
// scheduler, and the per-endpoint metrics — everything camadd does
// except the sockets (serve/server.h) and the process scaffolding
// (tools/camadd.cpp). Keeping the service transport-free is what lets
// serve_test.cpp and bench_serve drive it in-process.
//
// Scheduling model: handle() parses the request and, for the engine
// endpoints (upload/simulate/verify/optimize/transform), enqueues a job
// on a bounded queue and blocks until a worker finishes it — callers
// are expected to be per-connection threads, so blocking is the natural
// backpressure toward the client that submitted the work. When the
// queue is full the request is rejected *immediately* with an
// "overloaded" error instead of waiting: a loaded server stays
// responsive and the client decides whether to retry (acceptance
// criterion: reject, don't stall). `health` and `stats` never touch the
// queue, so they work — and report queue depth — while the pool is
// saturated.
//
// The worker pool itself is sim::parallel_jobs with jobs == workers:
// each "job" is a worker loop that pops requests until shutdown. That
// reuses the exact thread lifecycle the batch simulator is tested
// under, and gives each worker a stable index into per-worker state —
// here a SimulatorPool, the per-worker LRU of persistent
// sim::Simulator engines whose ConfigPlan caches survive across
// requests (a Simulator is not thread-safe; worker-private engines
// shard the plan-cache tier without locks).
//
// Every request gets a serve::Budget at enqueue time (request
// deadline_ms, else the service default), so time spent *queued* counts
// against the deadline. Workers pass the budget into the engine loops;
// shutdown() cancels the budgets of everything in flight, which is how
// drain stays prompt even mid-model-check.
//
// Determinism contract: all engine-endpoint responses are pure
// functions of (request, design-store content). Cache state, queue
// position and worker identity never leak into a response — bench_serve
// byte-compares every concurrent response against a fresh single-shot
// Service oracle. Only `stats` is exempt.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "obs/metrics.h"
#include "serve/budget.h"
#include "serve/store.h"
#include "sim/simulator.h"
#include "util/json.h"

namespace camad::serve {

struct ServiceOptions {
  /// Worker threads executing engine endpoints.
  std::size_t workers = 4;
  /// Jobs admitted beyond the ones being executed; a full queue rejects
  /// with kErrOverloaded.
  std::size_t queue_capacity = 64;
  /// Default per-request budget when the request carries no
  /// `deadline_ms`; zero = unlimited.
  std::chrono::milliseconds default_deadline{0};
  /// Persistent simulators kept per worker (LRU by design).
  std::size_t simulator_pool_capacity = 8;
  /// Server-side ceilings on per-request work, applied on top of the
  /// request's own values.
  std::uint64_t max_cycles_cap = 1u << 20;
  std::size_t max_states_cap = std::size_t{1} << 21;
  std::size_t generations_cap = 256;
  /// Ceiling on the `max_events` a simulate request may ask for.
  std::size_t max_events_cap = 4096;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  ~Service();
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Processes one request frame; always returns a well-formed response
  /// frame (errors included). Blocks the calling thread for engine
  /// endpoints; returns immediately for health/stats and every
  /// rejection. Thread-safe.
  [[nodiscard]] std::string handle(const std::string& request_json);

  /// Rejects new work, cancels the budgets of queued and in-flight
  /// requests, waits for workers to finish draining. Idempotent.
  void shutdown();

  /// The `stats` endpoint's payload (also reachable without a socket).
  [[nodiscard]] std::string stats_json();

  /// Per-endpoint request counters and latency histograms, queue
  /// gauges, shared-tier counters — camadd folds this registry into its
  /// --report artifact.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  [[nodiscard]] const ServiceOptions& options() const { return options_; }
  [[nodiscard]] DesignStore& store() { return store_; }

  /// Headline shared-tier hit rate in [0,1]: design-dedup + memoized
  /// verify + plan-cache + analysis hits over the corresponding
  /// accesses. The bench_serve acceptance gate (> 0.5 on the
  /// repeated-design workload) reads exactly this.
  [[nodiscard]] double shared_tier_hit_rate();

 private:
  struct Job {
    std::string op;
    JsonValue request;  ///< parsed once, in handle()
    std::unique_ptr<Budget> budget;
    std::promise<std::string> response;
  };

  /// Worker-private LRU of persistent simulators (ConfigPlan caches
  /// survive across requests touching the same design).
  struct PooledSimulator {
    std::shared_ptr<const StoredDesign> design;  ///< keeps system alive
    std::unique_ptr<sim::Simulator> simulator;
    std::uint64_t last_used = 0;
  };
  struct WorkerState {
    std::deque<PooledSimulator> simulators;
    std::uint64_t tick = 0;
  };

  void worker_loop(std::size_t worker);
  std::string execute(WorkerState& state, Job& job);
  sim::Simulator& pooled_simulator(
      WorkerState& state, const std::shared_ptr<const StoredDesign>& design);

  // Endpoint handlers. Each returns a full response frame.
  std::string do_upload(Job& job);
  std::string do_simulate(WorkerState& state, Job& job);
  std::string do_verify(Job& job);
  std::string do_optimize(Job& job);
  std::string do_transform(Job& job);
  std::string do_health();

  void publish_sim_stats(const sim::SimStats& stats);

  ServiceOptions options_;
  DesignStore store_;
  obs::MetricsRegistry metrics_;

  std::mutex mu_;
  std::condition_variable work_available_;
  std::deque<std::unique_ptr<Job>> queue_;
  std::unordered_set<Budget*> in_flight_;  ///< queued + executing
  bool shutting_down_ = false;
  std::mutex shutdown_mu_;  ///< serializes shutdown()'s pool_ join
  std::thread pool_;  ///< runs parallel_jobs(workers, workers, loop)

  // Aggregated engine stats (guarded by stats_mu_, written after each
  // engine request; feeds shared_tier_hit_rate and stats_json).
  std::mutex stats_mu_;
  sim::SimStats sim_stats_;
};

}  // namespace camad::serve
