// E6 — simulator throughput: the executor must be fast enough to serve
// as the equivalence oracle inside the optimizer's inner loop.
//
// Reports cycles/second on the named designs (synth::all_designs() plus
// the bench-only change-sparse "guarded_branch") for both engines:
//   * BM_simulate/<design>           — the plan engine, persistent
//     Simulator (steady-state: plans compiled once, then replayed);
//   * BM_simulate_reference/<design> — the naive per-cycle baseline;
//   * BM_simulate_cold/<design>      — the plan engine with a fresh
//     Simulator per run (plan compilation on the critical path);
//   * BM_simulate_batch/<design>     — simulate_batch over 16 seeds.
//
// Expected shape: the plan engine beats reference by well over 2x
// everywhere — the JSON emitter *fails* (nonzero exit, so CI fails) if
// any design falls below 2x.
//
// Pass --json[=PATH] (default BENCH_sim.json) to additionally emit a
// machine-readable record per design (cycles/s per engine, speedup,
// activity factor, batch throughput, cold throughput and the plans a
// cold run compiles) so the perf trajectory is tracked across changes
// (see docs/PERF.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "json_out.h"
#include "sim/batch.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads.h"

using namespace camad;

namespace {

void print_table(const std::vector<bench::BenchDesign>& designs) {
  Table table({"design", "states", "arcs", "cycles/run", "activity"});
  for (const bench::BenchDesign& d : designs) {
    sim::Environment env = bench::fixed_environment(d.system, d.name);
    sim::Simulator simulator(d.system);
    simulator.run(env);  // warm: snapshots populated
    env.rewind();
    const sim::SimResult result = simulator.run(env);
    table.add_row({d.name,
                   std::to_string(d.system.control().net().place_count()),
                   std::to_string(d.system.datapath().arc_count()),
                   std::to_string(result.cycles),
                   format_double(result.stats.activity_factor(), 2)});
  }
  std::cout << "E6: simulated designs (fixed environments; activity = "
               "steady-state plan-engine eval fraction)\n"
            << table.to_string() << '\n';
}

void BM_simulate(benchmark::State& state, const bench::BenchDesign* d) {
  sim::Simulator simulator(d->system);
  sim::Environment env = bench::fixed_environment(d->system, d->name);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    env.rewind();
    cycles += simulator.run(env).cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_simulate_reference(benchmark::State& state,
                           const bench::BenchDesign* d) {
  sim::Environment env = bench::fixed_environment(d->system, d->name);
  sim::SimOptions options;
  options.engine = sim::SimEngine::kReference;
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    env.rewind();
    cycles += sim::simulate(d->system, env, options).cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_simulate_cold(benchmark::State& state, const bench::BenchDesign* d) {
  sim::Environment env = bench::fixed_environment(d->system, d->name);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    env.rewind();
    cycles += sim::simulate(d->system, env).cycles;  // fresh engine
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_simulate_batch(benchmark::State& state, const bench::BenchDesign* d) {
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    const auto results =
        sim::simulate_batch_seeds(d->system, 1, 16, 64, {}, 0, 1, 20);
    for (const sim::SimResult& r : results) cycles += r.cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
}

void BM_simulate_random(benchmark::State& state) {
  bench::RandomProgramOptions options;
  options.straight_line_ops = static_cast<std::size_t>(state.range(0));
  options.variables = 6;
  options.loops = 2;
  options.loop_trip = 8;
  const dcf::System sys =
      synth::compile_source(bench::random_program(17, options));
  sim::Simulator simulator(sys);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    sim::Environment env = sim::Environment::random_for(sys, 5, 64, 1, 20);
    cycles += simulator.run(env).cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  state.counters["arcs"] =
      static_cast<double>(sys.datapath().arc_count());
}

BENCHMARK(BM_simulate_random)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMillisecond);

/// Cycles/second of `run` (which returns the cycles it simulated),
/// repeated for at least 0.2 s of wall time.
template <typename Run>
double cycles_per_second(Run&& run) {
  using clock = std::chrono::steady_clock;
  std::uint64_t cycles = 0;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  do {
    cycles += run();
  } while (elapsed() < 0.2);
  return static_cast<double>(cycles) / elapsed();
}

/// Steady-state cycles/second of one engine on one design, measured with
/// a persistent engine and rewound environment (min 0.2s of wall time).
double measure_cycles_per_second(const dcf::System& sys,
                                 const std::string& name,
                                 sim::SimEngine engine) {
  sim::Environment env = bench::fixed_environment(sys, name);
  sim::SimOptions options;
  options.engine = engine;
  sim::Simulator simulator(sys);
  // Warm up (compile plans / memoize orders / populate snapshots).
  env.rewind();
  simulator.run(env, options);
  return cycles_per_second([&] {
    env.rewind();
    return simulator.run(env, options).cycles;
  });
}

/// Cold throughput: cycles/second with a fresh engine per run (the
/// BM_simulate_cold shape), so plan compilation sits on the critical
/// path; plus the plans one such run compiles, a deterministic count.
struct ColdRuns {
  double cycles_per_second = 0;
  std::uint64_t plan_compiles = 0;
};
ColdRuns measure_cold(const dcf::System& sys, const std::string& name) {
  sim::Environment env = bench::fixed_environment(sys, name);
  ColdRuns cold;
  cold.plan_compiles = sim::simulate(sys, env).stats.plan_cache_misses;
  cold.cycles_per_second = cycles_per_second([&] {
    env.rewind();
    return sim::simulate(sys, env).cycles;  // fresh engine
  });
  return cold;
}

/// Steady-state plan-engine stats (one warmed run), for the activity
/// factor the JSON records per design.
sim::SimStats steady_stats(const dcf::System& sys, const std::string& name) {
  sim::Environment env = bench::fixed_environment(sys, name);
  sim::Simulator simulator(sys);
  simulator.run(env);
  env.rewind();
  return simulator.run(env).stats;
}

/// Batch throughput: total cycles/second of a 16-seed simulate_batch
/// sweep, single-threaded so it measures the engine, not parallelism.
double measure_batch_cycles_per_second(const dcf::System& sys) {
  auto sweep = [&] {
    return sim::simulate_batch_seeds(sys, 1, 16, 64, {}, 1, 1, 20);
  };
  sweep();  // warm-up (allocator, page faults)
  return cycles_per_second([&] {
    std::uint64_t cycles = 0;
    for (const sim::SimResult& r : sweep()) cycles += r.cycles;
    return cycles;
  });
}

/// Emits BENCH_sim.json: per-design steady-state cycles/s for both
/// engines, speedup, activity factor, batch throughput and cold
/// throughput with its plan-compile count. Returns false
/// if the file cannot be written OR if the plan engine falls below 2x
/// reference on any design (CI runs the bench with --json and fails on
/// nonzero exit).
bool emit_json(const std::string& path,
               const std::vector<bench::BenchDesign>& designs) {
  bench::BenchJson json(path, "sim", "cycles_per_second");
  bool below_floor = false;
  for (const bench::BenchDesign& d : designs) {
    const double compiled =
        measure_cycles_per_second(d.system, d.name, sim::SimEngine::kCompiled);
    const double reference = measure_cycles_per_second(
        d.system, d.name, sim::SimEngine::kReference);
    const sim::SimStats stats = steady_stats(d.system, d.name);
    const double batch = measure_batch_cycles_per_second(d.system);
    const ColdRuns cold = measure_cold(d.system, d.name);
    json.begin_design(d.name)
        .field("cycles_per_second", static_cast<std::uint64_t>(compiled))
        .field("reference_cycles_per_second",
               static_cast<std::uint64_t>(reference))
        .field("speedup", bench::rounded(compiled / reference, 2))
        .field("activity_factor", bench::rounded(stats.activity_factor(), 4))
        .field("batch_cycles_per_second", static_cast<std::uint64_t>(batch))
        .field("cold_cycles_per_second",
               static_cast<std::uint64_t>(cold.cycles_per_second))
        .field("cold_plan_compiles", cold.plan_compiles)
        .end_design();
    std::cout << "BENCH_sim " << d.name << ": "
              << static_cast<std::uint64_t>(compiled) << " cycles/s ("
              << format_double(compiled / reference, 2)
              << "x reference, activity "
              << format_double(stats.activity_factor(), 2) << "); batch "
              << static_cast<std::uint64_t>(batch) << "; cold "
              << static_cast<std::uint64_t>(cold.cycles_per_second) << " ("
              << cold.plan_compiles << " plan compiles)\n";
    if (compiled < 2.0 * reference) {
      std::cerr << "BENCH_sim REGRESSION: plan engine at "
                << format_double(compiled / reference, 2)
                << "x reference on '" << d.name << "' (floor: 2x)\n";
      below_floor = true;
    }
  }
  return json.finish() && !below_floor;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::extract_json_path(argc, argv, "BENCH_sim.json");
  const std::vector<bench::BenchDesign> designs = bench::bench_designs();

  print_table(designs);
  if (!json_path.empty()) {
    return emit_json(json_path, designs) ? 0 : 1;
  }
  for (const bench::BenchDesign& d : designs) {
    benchmark::RegisterBenchmark(("BM_simulate/" + d.name).c_str(),
                                 BM_simulate, &d);
    benchmark::RegisterBenchmark(("BM_simulate_reference/" + d.name).c_str(),
                                 BM_simulate_reference, &d);
    benchmark::RegisterBenchmark(("BM_simulate_cold/" + d.name).c_str(),
                                 BM_simulate_cold, &d);
    benchmark::RegisterBenchmark(("BM_simulate_batch/" + d.name).c_str(),
                                 BM_simulate_batch, &d);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
