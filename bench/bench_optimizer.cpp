// Design-space-exploration throughput and frontier quality.
//
// Greedy section: the wall clock of synth::optimize(), the greedy sweep
// `camadc synth` runs by default, with its candidate evaluation fanned
// out over every hardware thread.
//
// Pareto section: synth::optimize_pareto() over the same corpus plus the
// bench-only guarded_branch design. For every design the frontier JSON
// must be byte-identical across the swept thread counts (the
// determinism contract) and must weakly dominate the greedy optimizer's
// endpoint (the quality contract) — either violation makes the binary
// exit nonzero, which is how the CI bench job enforces both.
//
//   * BM_optimize/<design> — greedy sweep;
//   * BM_pareto/<design>   — full pareto search.
//
// Without --json the binary first prints the E3 area/time frontier
// tables for diffeq and ewf (this subsumes the retired bench_tradeoff
// λ-sweep: the frontier *is* the trade-off curve, one search instead of
// six scalarized runs). Pass --json[=PATH] (default BENCH_optimizer.json)
// to emit one record per design with the greedy wall-clock, hypervolume,
// frontier size, and pareto wall-clock per thread count, for the CI
// bench artifact (see docs/PERF.md).

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "json_out.h"
#include "workloads.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/optimizer.h"
#include "transform/provenance.h"
#include "util/strings.h"
#include "util/table.h"

using namespace camad;

namespace {

synth::OptimizerOptions greedy_options() {
  synth::OptimizerOptions options;
  options.measure.environments = 2;
  return options;
}

/// Per-design pareto budget. guarded_branch is ~980 vertices with ~1000
/// mergeable pairs per candidate; the full default budget runs minutes,
/// so it gets a narrow beam that still covers the greedy trajectory
/// (greedy applies 8 merges there — 10 generations suffice).
synth::ParetoOptions pareto_options_for(const std::string& name) {
  synth::ParetoOptions options;
  options.measure.environments = 2;
  if (name == "guarded_branch") {
    options.beam_width = 2;
    options.generations = 10;
    options.lambda_grid = {0.5, 1.0};
  }
  return options;
}

/// Thread counts swept per design. The big design only gets the
/// endpoints; the invariance check still compares its two runs.
std::vector<std::size_t> thread_sweep(const std::string& name) {
  if (name == "guarded_branch") return {1, 8};
  return {1, 2, 4, 8};
}

void BM_optimize(benchmark::State& state, const std::string& source) {
  const dcf::System serial = synth::compile_source(source);
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const synth::OptimizerOptions options = greedy_options();
  std::size_t merges = 0;
  for (auto _ : state) {
    const synth::OptimizerResult result =
        synth::optimize(serial, lib, options);
    merges = result.merges_applied;
    benchmark::DoNotOptimize(result.final.time_ns);
  }
  state.counters["merges"] = static_cast<double>(merges);
}

void BM_pareto(benchmark::State& state, const std::string& source) {
  const dcf::System serial = synth::compile_source(source);
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  synth::ParetoOptions options = pareto_options_for(serial.name());
  options.verify_frontier = false;
  for (auto _ : state) {
    const synth::ParetoResult result =
        synth::optimize_pareto(serial, lib, options);
    benchmark::DoNotOptimize(result.hypervolume);
  }
}

/// Mean wall-clock seconds of one optimize() call (min 3 runs, min 0.5s).
double measure_seconds(const dcf::System& serial,
                       const synth::ModuleLibrary& lib,
                       const synth::OptimizerOptions& options) {
  using clock = std::chrono::steady_clock;
  std::size_t runs = 0;
  const auto start = clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(clock::now() - start).count();
  };
  do {
    const synth::OptimizerResult result =
        synth::optimize(serial, lib, options);
    benchmark::DoNotOptimize(result.final.time_ns);
    ++runs;
  } while (runs < 3 || elapsed() < 0.5);
  return elapsed() / static_cast<double>(runs);
}

/// E3 — the area/time trade-off frontier (replaces the retired
/// bench_tradeoff λ-sweep; every frontier point carries the transform
/// chain that produced it).
void print_frontier(const bench::BenchDesign& design) {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const synth::ParetoResult result = synth::optimize_pareto(
      design.system, lib, pareto_options_for(design.name));
  Table table({"area", "mean cycles", "cycle ns", "time ns", "provenance"});
  for (const synth::FrontierPoint& p : result.frontier) {
    table.add_row({format_double(p.metrics.area, 0),
                   format_double(p.metrics.mean_cycles, 1),
                   format_double(p.metrics.cycle_time, 1),
                   format_double(p.metrics.time_ns, 0),
                   transform::provenance_to_string(p.provenance)});
  }
  std::cout << "E3: area/time frontier for " << design.name
            << " (hypervolume "
            << format_double(result.hypervolume, 4) << ")\n"
            << table.to_string() << '\n';
}

/// Emits BENCH_optimizer.json. Returns false if the file cannot be
/// written, the frontier output differs across thread counts, or the
/// greedy endpoint is not weakly dominated by the frontier.
bool emit_json(const std::string& path) {
  // Cores matter for reading the numbers (both searches fan candidate
  // evaluation out); they come from the BenchJson schema-v2 host stamp.
  bench::BenchJson json(path, "optimizer", "optimize_seconds");
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  bool ok = true;
  for (const bench::BenchDesign& d : bench::bench_designs()) {
    const dcf::System& serial = d.system;
    const bool timed_greedy = d.name != "guarded_branch";
    const double greedy_seconds =
        timed_greedy ? measure_seconds(serial, lib, greedy_options()) : 0.0;
    // Greedy endpoint for the quality contract — same measurement
    // options as the pareto runs, so the comparison is like-for-like.
    const synth::OptimizerResult greedy =
        synth::optimize(serial, lib, greedy_options());

    synth::ParetoResult result;
    std::string reference_json;
    std::vector<double> pareto_seconds;
    const std::vector<std::size_t> threads = thread_sweep(d.name);
    for (const std::size_t t : threads) {
      synth::ParetoOptions options = pareto_options_for(d.name);
      options.eval_threads = t;
      const auto t0 = std::chrono::steady_clock::now();
      result = synth::optimize_pareto(serial, lib, options);
      const auto t1 = std::chrono::steady_clock::now();
      pareto_seconds.push_back(
          std::chrono::duration<double>(t1 - t0).count());
      const std::string frontier_json =
          synth::frontier_to_json(result, d.name);
      if (reference_json.empty()) {
        reference_json = frontier_json;
      } else if (frontier_json != reference_json) {
        std::cerr << "BENCH_optimizer FAIL " << d.name
                  << ": frontier JSON differs between " << threads.front()
                  << " and " << t << " threads\n";
        ok = false;
      }
    }

    synth::ParetoFrontier frontier;
    for (const synth::FrontierPoint& p : result.frontier) {
      frontier.insert(p);
    }
    if (!frontier.dominates(greedy.final.area, greedy.final.time_ns)) {
      std::cerr << "BENCH_optimizer FAIL " << d.name
                << ": greedy endpoint (" << greedy.final.area << ", "
                << greedy.final.time_ns
                << ") is not weakly dominated by the pareto frontier\n";
      ok = false;
    }

    json.begin_design(d.name);
    if (timed_greedy) {
      json.field("greedy_seconds", bench::rounded(greedy_seconds, 4));
    }
    json.field("hypervolume", bench::rounded(result.hypervolume, 4))
        .field("frontier_points", result.frontier.size())
        .field("generations", result.generations_run)
        .field("candidates", result.candidates_evaluated)
        .field("threads", threads.back());
    for (std::size_t i = 0; i < threads.size(); ++i) {
      json.field("pareto_seconds_t" + std::to_string(threads[i]),
                 bench::rounded(pareto_seconds[i], 4));
    }
    json.end_design();
    std::cout << "BENCH_optimizer " << d.name << ": ";
    if (timed_greedy) {
      std::cout << format_double(greedy_seconds * 1e3, 1) << " ms greedy, ";
    }
    std::cout << result.frontier.size() << " frontier point(s), hypervolume "
              << format_double(result.hypervolume, 4) << ", pareto "
              << format_double(pareto_seconds.front(), 1) << "s at t"
              << threads.front() << " / "
              << format_double(pareto_seconds.back(), 1) << "s at t"
              << threads.back() << "\n";
  }
  return json.finish() && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      bench::extract_json_path(argc, argv, "BENCH_optimizer.json");

  if (!json_path.empty()) {
    return emit_json(json_path) ? 0 : 1;
  }
  for (const bench::BenchDesign& d : bench::bench_designs()) {
    if (d.name == "diffeq" || d.name == "ewf") print_frontier(d);
  }
  for (const synth::NamedDesign& d : synth::all_designs()) {
    benchmark::RegisterBenchmark(("BM_optimize/" + d.name).c_str(),
                                 BM_optimize, std::string(d.source))
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("BM_pareto/" + d.name).c_str(), BM_pareto,
                                 std::string(d.source))
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
