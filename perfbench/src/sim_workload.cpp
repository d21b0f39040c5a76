// sim: one simulate_batch_seeds sweep per design over many seeds, on
// bench::bench_designs() (the six corpus designs plus guarded_branch),
// with default SimOptions — whatever engine is the default is what gets
// measured. Each worker compiles a configuration once per sweep, so the
// warm cycle loop does the work. The seed picks every sweep's seeds.
#include <iostream>
#include <map>

#include "fold.h"
#include "obs/trace.h"
#include "runs.h"
#include "sim/batch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace camad;

constexpr std::size_t kStreamLength = 64;
constexpr std::int64_t kValueLo = 1;
constexpr std::int64_t kValueHi = 20;

/// Observable digest of a run: cycle count, outcome, violations and the
/// external event trace.
std::uint64_t digest(const sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto feed = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  feed(r.cycles);
  feed(r.terminated);
  feed(r.deadlocked);
  feed(r.violations.size());
  for (const sim::ExternalEvent& e : r.trace.events()) {
    feed(e.cycle);
    feed(e.arc.value());
    feed(e.state.value());
    feed(e.value.defined() ? static_cast<std::uint64_t>(e.value.raw())
                           : 0x8000000000000000ull);
  }
  return h;
}

struct Sweep {
  std::vector<sim::SimResult> results;
  double seconds = 0;
};

class SimRun {
 public:
  SimRun(const Config& config, Report& report)
      : config_(config), report_(report) {
    seeds_per_sweep_ = config.smoke ? 4 : 256;
  }

  void setup() { designs_ = bench::bench_designs(); }

  std::size_t design_count() const { return designs_.size(); }

  /// Seeds of design i's sweep: base_seed(i), base_seed(i) + 1, ...
  std::uint64_t base_seed(std::size_t i) const {
    std::uint64_t state = config_.seed * 1000003u + i;
    return splitmix(state) >> 16;
  }

  Sweep sweep(std::size_t i) {
    ++report_.attempted;
    Sweep out;
    const Clock::time_point t0 = Clock::now();
    try {
      out.results = sim::simulate_batch_seeds(
          designs_[i].system, base_seed(i), seeds_per_sweep_, kStreamLength,
          sim::SimOptions{}, config_.threads, kValueLo, kValueHi);
    } catch (const std::exception& e) {
      ++report_.failed;
      std::cerr << designs_[i].name << " sweep failed: " << e.what() << '\n';
    }
    out.seconds = seconds_since(t0);
    return out;
  }

  /// One pass over every design; returns the summed sweep time. Digests
  /// are compared with the first pass's, so a nondeterministic engine
  /// fails the run.
  double pass(std::uint64_t& cycles) {
    double seconds = 0;
    for (const std::size_t i : seeded_order(designs_.size(), config_.seed)) {
      const Sweep s = sweep(i);
      seconds += s.seconds;
      std::vector<std::uint64_t> digests;
      for (const sim::SimResult& r : s.results) {
        cycles += r.cycles;
        digests.push_back(digest(r));
      }
      auto [it, first] = digests_.try_emplace(i, digests);
      if (!first && it->second != digests) {
        report_.mismatch(designs_[i].name +
                         ": sweep results differ between passes");
      }
    }
    return seconds;
  }

  /// Re-runs a seeded sample of (design, seed) runs on the reference
  /// engine; cycle counts and trace digests must match the sweeps.
  void check_against_reference() {
    std::uint64_t state = config_.seed ^ 0x5eedull;
    const std::size_t samples = config_.smoke ? 2 : 8;
    for (std::size_t n = 0; n < samples; ++n) {
      const std::size_t i = splitmix(state) % designs_.size();
      const std::size_t k = splitmix(state) % seeds_per_sweep_;
      const auto it = digests_.find(i);
      if (it == digests_.end() || it->second.size() != seeds_per_sweep_) {
        continue;
      }
      const std::uint64_t seed = base_seed(i) + k;
      sim::Environment env = sim::Environment::random_for(
          designs_[i].system, seed, kStreamLength, kValueLo, kValueHi);
      sim::SimOptions options;
      options.seed = seed;
      options.engine = sim::SimEngine::kReference;
      const sim::SimResult reference =
          sim::simulate(designs_[i].system, env, options);
      if (digest(reference) != it->second[k]) {
        report_.mismatch(designs_[i].name + " seed " + std::to_string(seed) +
                         ": default engine disagrees with the reference");
      }
    }
  }

 private:
  const Config& config_;
  Report& report_;
  std::size_t seeds_per_sweep_ = 0;
  std::vector<bench::BenchDesign> designs_;
  std::map<std::size_t, std::vector<std::uint64_t>> digests_;
};

}  // namespace

void run_sim(const Config& config, Report& report) {
  SimRun run(config, report);
  // Set-up compiles the corpus, a few milliseconds: sampled again after
  // every timed pass.
  std::vector<double> setup_cpu;
  const auto setup = [&] { run.setup(); };
  sample_setup(config.smoke ? 1 : 15, setup, setup_cpu);

  if (!config.trace) {
    double sweep_s = 0;
    std::uint64_t cycles = 0;
    report.passes =
        timed_passes(config.seconds, [&] { sweep_s += run.pass(cycles); },
                     [&] { sample_setup(1, setup, setup_cpu); });
    report.setup_s = median(setup_cpu);
    report.peak_rss_mb = peak_rss_mb();
    report.figure("sim_cycles_per_s", static_cast<double>(cycles) / sweep_s,
                  "cycles/s");
    run.check_against_reference();
    return;
  }

  // Overhead baseline and CPU utilization from one untraced pass. The
  // process's first pass runs cold and would make tracing look free, so
  // one pass comes before it.
  std::uint64_t cycles = 0;
  (void)run.pass(cycles);
  cycles = 0;
  const double cpu0 = process_cpu_s();
  const double untraced_s = run.pass(cycles);
  auto& m = report.layers;
  m["sim.batch_cpu_util"] = (process_cpu_s() - cpu0) /
                            (untraced_s * static_cast<double>(config.threads));

  Fold fold;
  double traced_s = 0;
  sim::SimStats stats;
  std::uint64_t runs = 0;
  cycles = 0;
  for (const std::size_t i : seeded_order(run.design_count(), config.seed)) {
    obs::TraceSession session;
    session.activate();
    Sweep s;
    {
      const obs::ObsSpan root("bench.sim");
      s = run.sweep(i);
    }
    session.deactivate();
    traced_s += s.seconds;
    fold.merge(fold_session(session));
    for (const sim::SimResult& r : s.results) {
      cycles += r.cycles;
      stats += r.stats;
      ++runs;
    }
  }
  run.check_against_reference();
  m["obs.trace_overhead"] = traced_s / untraced_s - 1;
  m["sim.cycle_loop_s"] = fold.self_prefix_s("sim.run");
  m["sim.compile_plan_s"] = fold.self_s("sim.compile_plan");
  m["sim.cycles"] = static_cast<double>(cycles);
  m["sim.runs"] = static_cast<double>(runs);
  m["sim.ns_per_cycle"] =
      cycles > 0 ? m["sim.cycle_loop_s"] * 1e9 / static_cast<double>(cycles)
                 : 0;
  m["sim.plan_compiles"] = static_cast<double>(stats.plan_cache_misses);
  const double lookups =
      static_cast<double>(stats.plan_cache_hits + stats.plan_cache_misses);
  m["sim.plan_hit_rate"] =
      lookups > 0 ? static_cast<double>(stats.plan_cache_hits) / lookups : 0;
  add_shares(report, layer_self_s(fold));
}

}  // namespace perfbench
