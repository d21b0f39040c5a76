// Telemetry overhead: the observability hooks ride inside the sim
// engine's hot loop (src/obs/trace.h documents the contract), so this
// bench holds them to it. Per design it measures steady-state cycles/s
// three ways:
//   * disabled — no active TraceSession (the default for every caller
//     that never asks for --trace); must stay within ~2% of the
//     uninstrumented engine, i.e. of BENCH_sim's compiled numbers;
//   * enabled  — a wall-clock TraceSession is active and every run
//     records sim.run spans + plan-cache counter samples;
//   * deterministic — as enabled, with logical-clock timestamps.
//
// Pass --json[=PATH] (default BENCH_obs.json) to emit the three rates
// plus enabled_overhead_percent per design for the CI bench artifact
// (see docs/PERF.md). Without --json the same measurements are
// registered as google-benchmark cases.
//
// The --json mode additionally measures the progress-heartbeat path
// (src/obs/progress.h) on an mc BFS workload — states/second with no
// meter vs. with a live ProgressMeter sampling into a discarded stream —
// and FAILS (exit 1) if the with-meter overhead exceeds
// kMaxProgressOverheadPercent: the CI gate on the publish-site contract.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "json_out.h"
#include "mc/checker.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "util/strings.h"
#include "workloads.h"

using namespace camad;

namespace {

enum class Mode { kDisabled, kEnabled, kDeterministic };

/// Steady-state cycles/second with a persistent engine and rewound
/// environment (min 0.2s), optionally recording into a TraceSession
/// that is discarded unwritten — serialization cost is not the engine's.
double measure_cycles_per_second(const dcf::System& sys,
                                 const std::string& name, Mode mode) {
  std::optional<obs::TraceSession> session;
  if (mode != Mode::kDisabled) {
    session.emplace(obs::TraceOptions{mode == Mode::kDeterministic});
    session->activate();
  }
  sim::Environment env = bench::fixed_environment(sys, name);
  sim::Simulator simulator(sys);
  env.rewind();
  simulator.run(env);  // warm up: compile plans

  using clock = std::chrono::steady_clock;
  std::uint64_t cycles = 0;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  do {
    env.rewind();
    cycles += simulator.run(env).cycles;
  } while (elapsed() < 0.2);
  const double rate = static_cast<double>(cycles) / elapsed();
  if (session) session->deactivate();
  return rate;
}

void BM_simulate_obs(benchmark::State& state, const std::string& name,
                     const std::string& source, Mode mode) {
  const dcf::System sys = synth::compile_source(source);
  std::optional<obs::TraceSession> session;
  if (mode != Mode::kDisabled) {
    session.emplace(obs::TraceOptions{mode == Mode::kDeterministic});
    session->activate();
  }
  sim::Environment env = bench::fixed_environment(sys, name);
  sim::Simulator simulator(sys);
  std::uint64_t cycles = 0;
  for (auto _ : state) {
    env.rewind();
    cycles += simulator.run(env).cycles;
  }
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(cycles), benchmark::Counter::kIsRate);
  if (session) session->deactivate();
}

/// CI gate: the progress-meter path may cost at most this much of the
/// mc BFS throughput. Generous (the publish sites are relaxed atomics
/// and the sampler thread is near-idle) so scheduler noise on shared
/// runners does not trip it.
constexpr double kMaxProgressOverheadPercent = 25.0;

/// mc states/second on `net`, best of `reps`, optionally with a live
/// ProgressMeter sampling into a discarded stream (so the cost measured
/// is publish sites + sampler thread, not terminal I/O).
double measure_mc_states_per_second(const petri::Net& net, bool with_meter,
                                    int reps) {
  std::ostringstream sink;
  std::optional<obs::ProgressMeter> meter;
  if (with_meter) {
    meter.emplace(obs::ProgressMeterOptions{0.05, &sink});
  }
  mc::McOptions options;
  options.threads = 1;
  options.compute_concurrency = false;
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const mc::McResult out = mc::model_check(net, options);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const double rate =
        seconds > 0 ? static_cast<double>(out.state_count) / seconds : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

/// Measures the progress-path record and enforces the overhead gate.
bool emit_progress_record(bench::BenchJson& json) {
  bench::SpNetOptions sp;
  sp.width = 8;
  sp.chain = 2;
  const petri::Net net = bench::random_sp_net(/*seed=*/3, sp);
  const double disabled = measure_mc_states_per_second(net, false, 3);
  const double with_meter = measure_mc_states_per_second(net, true, 3);
  const double overhead =
      with_meter > 0 ? (disabled / with_meter - 1.0) * 100.0 : 0.0;
  json.begin_design("mc_fork8x2")
      .field("disabled_states_per_second",
             static_cast<std::uint64_t>(disabled))
      .field("progress_states_per_second",
             static_cast<std::uint64_t>(with_meter))
      .field("progress_overhead_percent", bench::rounded(overhead, 1))
      .end_design();
  std::cout << "BENCH_obs mc_fork8x2: "
            << static_cast<std::uint64_t>(disabled)
            << " states/s no meter, "
            << static_cast<std::uint64_t>(with_meter) << " with meter ("
            << format_double(overhead, 1) << "% overhead)\n";
  if (overhead > kMaxProgressOverheadPercent) {
    std::cerr << "error: progress-meter overhead "
              << format_double(overhead, 1) << "% exceeds the "
              << format_double(kMaxProgressOverheadPercent, 0)
              << "% gate\n";
    return false;
  }
  return true;
}

/// Emits BENCH_obs.json: per-design disabled / enabled / deterministic
/// tracing throughput and the enabled-mode overhead, plus the mc
/// progress-path record. Returns false if the file cannot be written or
/// the progress-overhead gate trips.
bool emit_json(const std::string& path) {
  bench::BenchJson json(path, "obs", "cycles_per_second");
  for (const synth::NamedDesign& d : synth::all_designs()) {
    const dcf::System sys = synth::compile_source(std::string(d.source));
    const double disabled =
        measure_cycles_per_second(sys, d.name, Mode::kDisabled);
    const double enabled =
        measure_cycles_per_second(sys, d.name, Mode::kEnabled);
    const double deterministic =
        measure_cycles_per_second(sys, d.name, Mode::kDeterministic);
    const double overhead = (disabled / enabled - 1.0) * 100.0;
    json.begin_design(d.name)
        .field("disabled_cycles_per_second",
               static_cast<std::uint64_t>(disabled))
        .field("enabled_cycles_per_second",
               static_cast<std::uint64_t>(enabled))
        .field("deterministic_cycles_per_second",
               static_cast<std::uint64_t>(deterministic))
        .field("enabled_overhead_percent", bench::rounded(overhead, 1))
        .end_design();
    std::cout << "BENCH_obs " << d.name << ": "
              << static_cast<std::uint64_t>(disabled)
              << " cycles/s disabled, "
              << static_cast<std::uint64_t>(enabled)
              << " enabled (" << format_double(overhead, 1)
              << "% overhead)\n";
  }
  const bool gate_ok = emit_progress_record(json);
  return json.finish() && gate_ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::extract_json_path(argc, argv, "BENCH_obs.json");

  if (!json_path.empty()) {
    return emit_json(json_path) ? 0 : 1;
  }
  for (const synth::NamedDesign& d : synth::all_designs()) {
    benchmark::RegisterBenchmark(("BM_simulate_untraced/" + d.name).c_str(),
                                 BM_simulate_obs, d.name,
                                 std::string(d.source), Mode::kDisabled);
    benchmark::RegisterBenchmark(("BM_simulate_traced/" + d.name).c_str(),
                                 BM_simulate_obs, d.name,
                                 std::string(d.source), Mode::kEnabled);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
