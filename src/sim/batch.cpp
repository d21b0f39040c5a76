#include "sim/batch.h"

#include <atomic>
#include <exception>
#include <thread>

#include "obs/progress.h"
#include "obs/trace.h"

namespace camad::sim {

std::size_t resolve_worker_count(std::size_t jobs, std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > jobs) threads = jobs;
  if (threads == 0) threads = 1;
  return threads;
}

void parallel_jobs(std::size_t jobs, std::size_t threads,
                   const std::function<void(std::size_t worker,
                                            std::size_t job)>& fn) {
  if (jobs == 0) return;
  const std::size_t workers = resolve_worker_count(jobs, threads);

  if (workers == 1) {
    for (std::size_t i = 0; i < jobs; ++i) fn(0, i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      if (obs::TraceSession* session = obs::TraceSession::active()) {
        session->name_thread("worker-" + std::to_string(w));
      }
      try {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < jobs; i = next.fetch_add(1, std::memory_order_relaxed)) {
          fn(w, i);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

namespace {

/// The pool loop behind both batch entry points: `run_job(simulator, i)`
/// runs job i on its worker's Simulator. One Simulator per worker, so
/// compiled configuration plans are shared across every run that worker
/// executes.
template <typename RunJob>
std::vector<SimResult> run_on_workers(const dcf::System& system,
                                      std::size_t jobs, std::size_t threads,
                                      const RunJob& run_job) {
  std::vector<SimResult> results(jobs);
  if (jobs == 0) return results;

  const std::size_t workers = resolve_worker_count(jobs, threads);
  std::vector<std::unique_ptr<Simulator>> simulators(workers);
  parallel_jobs(jobs, workers, [&](std::size_t w, std::size_t i) {
    if (simulators[w] == nullptr) {
      simulators[w] = std::make_unique<Simulator>(system);
    }
    results[i] = run_job(*simulators[w], i);
    if (obs::progress_enabled()) {
      obs::ProgressCounters& pc = obs::progress();
      pc.sim_seeds.fetch_add(1, std::memory_order_relaxed);
      pc.sim_updates.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return results;
}

}  // namespace

std::vector<SimResult> simulate_batch(const dcf::System& system,
                                      std::vector<BatchRun>& runs,
                                      std::size_t threads) {
  return run_on_workers(
      system, runs.size(), threads, [&](Simulator& simulator, std::size_t i) {
        return simulator.run(runs[i].environment, runs[i].options);
      });
}

std::vector<SimResult> simulate_batch_seeds(const dcf::System& system,
                                            std::uint64_t base_seed,
                                            std::size_t count,
                                            std::size_t stream_length,
                                            const SimOptions& options,
                                            std::size_t threads,
                                            std::int64_t value_lo,
                                            std::int64_t value_hi) {
  // Each job draws its environment on the worker that runs it.
  return run_on_workers(
      system, count, threads, [&](Simulator& simulator, std::size_t k) {
        const std::uint64_t seed = base_seed + k;
        Environment env = Environment::random_for(system, seed, stream_length,
                                                  value_lo, value_hi);
        SimOptions run_options = options;
        run_options.seed = seed;
        return simulator.run(env, run_options);
      });
}

}  // namespace camad::sim
