// Parallel multi-seed / multi-environment simulation.
//
// A dcf::System is immutable during simulation, so N runs against it are
// embarrassingly parallel. simulate_batch spreads the runs over a worker
// pool; each worker owns one Simulator, so compiled configuration plans
// are shared across every run that worker executes (a multi-seed sweep of
// one design compiles each configuration roughly once per worker, not
// once per run).
//
// Every run is observationally identical to a sequential simulate() call
// with the same environment and options — results are deterministic and
// positionally aligned with the input, whatever the thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dcf/system.h"
#include "sim/environment.h"
#include "sim/simulator.h"

namespace camad::sim {

/// Worker count a `jobs`-sized parallel_jobs call will actually use:
/// `threads` (0 = hardware concurrency) capped by the job count, >= 1.
[[nodiscard]] std::size_t resolve_worker_count(std::size_t jobs,
                                               std::size_t threads);

/// The worker pool behind simulate_batch, exposed generically: runs
/// `fn(worker, job)` for every job index in [0, jobs), with jobs pulled
/// from a shared atomic counter. `worker` in [0, resolve_worker_count())
/// identifies the executing worker for per-worker state (simulators,
/// caches). With one worker everything runs inline on the caller's
/// thread. Exceptions are rethrown on the calling thread after all
/// workers finish (first-worker-first order).
void parallel_jobs(std::size_t jobs, std::size_t threads,
                   const std::function<void(std::size_t worker,
                                            std::size_t job)>& fn);

/// One unit of batch work: an environment (mutated in place — streams
/// advance, exactly as simulate() would) plus the options for the run.
struct BatchRun {
  Environment environment;
  SimOptions options;
};

/// Runs every job against the shared system on `threads` workers
/// (0 = hardware concurrency; always capped by the job count).
/// Exceptions thrown by a run are rethrown on the calling thread after
/// all workers finish.
std::vector<SimResult> simulate_batch(const dcf::System& system,
                                      std::vector<BatchRun>& runs,
                                      std::size_t threads = 0);

/// Convenience sweep: `count` runs with Environment::random_for seeds
/// base_seed, base_seed+1, ... (the per-run SimOptions::seed is offset the
/// same way so the random firing policies decorrelate too). Each run's
/// environment is drawn on the worker that executes it.
std::vector<SimResult> simulate_batch_seeds(
    const dcf::System& system, std::uint64_t base_seed, std::size_t count,
    std::size_t stream_length, const SimOptions& options = {},
    std::size_t threads = 0, std::int64_t value_lo = 0,
    std::int64_t value_hi = 99);

}  // namespace camad::sim
