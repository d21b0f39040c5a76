// Shared plumbing of the benchmark program: run configuration, the report
// a workload fills in, the per-layer metric catalogue, and timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Minimum-size inputs: every code path runs once, nothing is steady.
  bool smoke = false;
  /// Repository root; the design corpus is read from here.
  std::string root = ".";
  /// Engine threads and client connections: the process's CPU count.
  std::size_t threads = 1;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Wall time and process CPU time (user + system, all threads) of some
/// work, and the share of the machine's busy CPU time the hypervisor
/// stole meanwhile.
struct Cost {
  double wall_s = 0;
  double cpu_s = 0;
  double steal_share = 0;
};

/// What one workload run produces.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Correctness failures; any entry makes the run exit nonzero.
  std::vector<std::string> mismatches;
  /// End-to-end figures (untraced run): every timed pass, the set-up's
  /// CPU time, and the peak resident set after the timed phase.
  std::vector<Cost> passes;
  double setup_s = 0;
  double peak_rss_mb = 0;
  /// The workload's own named figures (synth_s, serve_rps, ...): printed
  /// by name, with their unit, beside the gated metrics.
  std::vector<Metric> figures;
  /// Per-layer metrics (traced run), keyed by catalogue name.
  std::map<std::string, double, std::less<>> layers;

  void figure(std::string name, double value, std::string unit) {
    figures.push_back({std::move(name), value, std::move(unit)});
  }
  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }
};

/// The per-layer catalogue (name, unit). Every traced run reports all of
/// them; a layer a workload does not exercise reads 0.
const std::vector<std::pair<std::string, std::string>>& layer_catalogue();

/// Adds the folded layer shares (share.<layer>) to a report.
void add_shares(Report& report,
                const std::map<std::string, double, std::less<>>& layer_s);

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// CPU time of the whole process (all threads), in seconds.
double process_cpu_s();
/// CPUs this process may run on.
std::size_t cpu_count();
std::uint64_t splitmix(std::uint64_t& state);
/// A permutation of [0, n) drawn from `seed`.
std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed);
/// Reads a whole file; throws std::runtime_error when it cannot.
std::string read_file(const std::string& path);

double median(std::vector<double> values);
/// Linear-interpolation quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

Cost measure(const std::function<void()>& work);

/// Runs `pass` at least once, then again while one more pass of the
/// median length so far still ends within `seconds` of the start.
/// `between`, when given, runs after every pass, outside its cost.
/// Returns the cost of every pass.
std::vector<Cost> timed_passes(double seconds,
                               const std::function<void()>& pass,
                               const std::function<void()>& between = {});

/// Runs `setup` `repeats` times and appends the CPU time of each run to
/// `cpu_s`. setup_s is the median of the samples. A set-up of a few
/// milliseconds moves with whatever the host does during those
/// milliseconds, so the workloads whose set-up is that short take
/// samples between timed passes too, and the median covers the run.
void sample_setup(int repeats, const std::function<void()>& setup,
                  std::vector<double>& cpu_s);

/// Busy and stolen CPU time of the whole machine so far, in ticks, from
/// /proc/stat; zeros where it cannot be read.
struct HostTicks {
  double busy = 0;
  double steal = 0;
};
HostTicks host_ticks();
/// Stolen ÷ busy ticks between two readings; 0 when nothing was busy.
double steal_share(const HostTicks& from, const HostTicks& to);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
