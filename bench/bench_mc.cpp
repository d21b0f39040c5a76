// Parallel scaling of the mc:: explicit-state checker: the same wide
// fork/join workload explored at 1/2/4/8 worker threads. The level-
// synchronized BFS keeps every verdict thread-count-invariant, so the
// only thing that may change with the thread dial is wall-clock — this
// bench pins both halves of that contract (same_verdicts is asserted on
// every run, speedup is reported).
//
// Pass --json[=PATH] (default BENCH_mc.json) to emit per-workload
// states/second and speedup-vs-1-thread for each thread count, plus the
// one-thread run's store bytes and work counts (successors, same-depth
// and older rediscoveries, parent replacements), which bench_diff gates
// as invariant: the record docs/PERF.md and the CI bench artifact
// consume. Without
// --json the same sweep runs under google-benchmark.
//
// Timing rule for --json: each (net, threads) cell is the median of
// repeated runs, at least kMinRuns of them and as many more as it takes
// for the runs to cover kMinCellSeconds of wall time, so a net explored
// in 2.5 ms is timed over ~200 runs instead of three.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <vector>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "json_out.h"
#include "mc/checker.h"
#include "petri/export.h"
#include "petri/pnml.h"
#include "util/error.h"
#include "workloads.h"

using namespace camad;

namespace {

struct Workload {
  const char* name;
  std::size_t depth;
  std::size_t width;
  std::size_t chain;
};

// Widths chosen so the interleaving space is large enough (~1e5–1e6
// states) for thread scaling to show, yet bounded enough for CI.
// fork8x3 (6.6k states) is the quick smoke workload; fork8x4 (65539
// states) is the memory-accounting reference the obs tests and docs
// use for bytes-per-state; nest2x4 (1.72M states) is the big one the
// CI verify step drives with --progress/--report.
constexpr Workload kWorkloads[] = {
    {"fork8x3", 1, 8, 3},
    {"fork8x4", 1, 8, 4},
    {"fork9x4", 1, 9, 4},
    {"nest2x4", 2, 4, 3},
};

petri::Net net_for(const Workload& w) {
  bench::SpNetOptions options;
  options.depth = w.depth;
  options.width = w.width;
  options.chain = w.chain;
  return bench::random_sp_net(/*seed=*/3, options);
}

// External MCC-family instances from designs/pnml: unlike the synthetic
// series/parallel workloads above, these have cyclic structure and
// contention, so they exercise a different exploration profile.
constexpr const char* kCorpusWorkloads[] = {
    "Philosophers-PT-10",
    "Referendum-PT-10",
};

petri::Net corpus_net(const char* name) {
  const std::string path =
      std::string(CAMAD_PNML_DIR) + "/" + name + ".pnml";
  std::ifstream in(path);
  if (!in) throw Error("bench_mc: cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return petri::from_pnml(os.str()).net;
}

mc::McOptions options_for(std::size_t threads) {
  mc::McOptions opt;
  opt.threads = threads;
  opt.max_states = std::size_t{1} << 22;
  // The scaling story is about raw exploration; the relation is O(|S|^2)
  // post-processing that would blur the per-thread numbers.
  opt.compute_concurrency = false;
  return opt;
}

constexpr int kMinRuns = 3;
constexpr double kMinCellSeconds = 0.5;

double run_once(const petri::Net& net, std::size_t threads,
                const mc::McResult& reference) {
  const auto t0 = std::chrono::steady_clock::now();
  const mc::McResult out = mc::model_check(net, options_for(threads));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!out.complete) throw Error("bench_mc: workload exceeded max_states");
  if (!mc::same_verdicts(out, reference)) {
    throw Error("bench_mc: verdicts diverge at " + std::to_string(threads) +
                " threads");
  }
  return seconds;
}

/// Median seconds per run of one (net, threads) cell under the timing
/// rule in the file header.
double cell_seconds(const petri::Net& net, std::size_t threads,
                    const mc::McResult& reference) {
  std::vector<double> runs;
  double total = 0.0;
  while (runs.size() < static_cast<std::size_t>(kMinRuns) ||
         total < kMinCellSeconds) {
    runs.push_back(run_once(net, threads, reference));
    total += runs.back();
  }
  std::sort(runs.begin(), runs.end());
  const std::size_t mid = runs.size() / 2;
  return runs.size() % 2 == 1 ? runs[mid] : (runs[mid - 1] + runs[mid]) / 2;
}

void sweep_json(bench::BenchJson& json, const std::string& name,
                const petri::Net& net) {
  const mc::McResult reference = mc::model_check(net, options_for(1));
  const double bytes_per_state =
      reference.state_count > 0
          ? static_cast<double>(reference.stats.store_bytes) /
                static_cast<double>(reference.state_count)
          : 0.0;
  json.begin_design(name)
      .field("states", static_cast<std::uint64_t>(reference.state_count))
      .field("depth", static_cast<std::uint64_t>(reference.depth))
      .field("store_bytes",
             static_cast<std::uint64_t>(reference.stats.store_bytes))
      .field("bytes_per_state", bench::rounded(bytes_per_state, 1))
      .field("successors",
             static_cast<std::uint64_t>(reference.stats.successors))
      .field("same_depth_rediscoveries",
             static_cast<std::uint64_t>(
                 reference.stats.same_depth_rediscoveries))
      .field("older_rediscoveries",
             static_cast<std::uint64_t>(reference.stats.older_rediscoveries))
      .field("parent_replacements",
             static_cast<std::uint64_t>(reference.stats.parent_replacements));
  double base = 0.0;
  for (const std::size_t threads : {1UL, 2UL, 4UL, 8UL}) {
    const double median = cell_seconds(net, threads, reference);
    if (threads == 1) base = median;
    const double rate = static_cast<double>(reference.state_count) / median;
    const std::string suffix = "_t" + std::to_string(threads);
    json.field("states_per_second" + suffix,
               static_cast<std::uint64_t>(rate))
        .field("speedup" + suffix, bench::rounded(base / median, 2));
    std::cout << "BENCH_mc " << name << " t=" << threads << ": "
              << static_cast<std::uint64_t>(rate) << " states/s, "
              << bench::rounded(base / median, 2) << "x\n";
  }
  json.end_design();
}

bool emit_json(const std::string& path) {
  // Host metadata (hardware threads, build type) comes from the
  // BenchJson schema-v2 stamp.
  bench::BenchJson json(path, "mc", "states_per_second");
  for (const Workload& w : kWorkloads) {
    sweep_json(json, w.name, net_for(w));
  }
  for (const char* name : kCorpusWorkloads) {
    sweep_json(json, name, corpus_net(name));
  }
  return json.finish();
}

void run_bm(benchmark::State& state, const petri::Net& net) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  std::size_t states = 0;
  for (auto _ : state) {
    const mc::McResult out = mc::model_check(net, options_for(threads));
    benchmark::DoNotOptimize(out.state_count);
    states += out.state_count;
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
}

void BM_model_check(benchmark::State& state, const Workload& w) {
  run_bm(state, net_for(w));
}

}  // namespace

int main(int argc, char** argv) {
  // --export-pnml=DIR: write each synthetic workload as PNML so external
  // tools (and `camadc verify` in CI) can run the exact bench nets.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--export-pnml=", 14) == 0) {
      const std::string dir = argv[i] + 14;
      for (const Workload& w : kWorkloads) {
        const std::string path = dir + "/" + w.name + ".pnml";
        std::ofstream out(path);
        if (!out) {
          std::cerr << "error: cannot write " << path << '\n';
          return 1;
        }
        out << petri::to_pnml(net_for(w), w.name);
        std::cout << "wrote " << path << '\n';
      }
      return 0;
    }
  }
  const std::string json_path =
      bench::extract_json_path(argc, argv, "BENCH_mc.json");
  if (!json_path.empty()) {
    return emit_json(json_path) ? 0 : 1;
  }
  for (const Workload& w : kWorkloads) {
    benchmark::RegisterBenchmark(
        (std::string("BM_model_check/") + w.name).c_str(), BM_model_check, w)
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond);
  }
  for (const char* name : kCorpusWorkloads) {
    benchmark::RegisterBenchmark(
        (std::string("BM_model_check/") + name).c_str(),
        [name](benchmark::State& state) { run_bm(state, corpus_net(name)); })
        ->Arg(1)
        ->Arg(2)
        ->Arg(4)
        ->Arg(8)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
