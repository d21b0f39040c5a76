#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fold.h"
#include "obs/report.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> catalogue =
      [] {
        std::vector<std::pair<std::string, std::string>> c = {
            // serve transport and service
            {"serve.transport_s", "s"},
            {"serve.service_s", "s"},
            {"serve.engine_s", "s"},
            {"serve.upload_p50_ms", "ms"},
            {"serve.simulate_p50_ms", "ms"},
            {"serve.verify_p50_ms", "ms"},
            {"serve.transform_p50_ms", "ms"},
            {"serve.optimize_p50_ms", "ms"},
            {"serve.rejected", "count"},
            // serve shared tier
            {"serve.shared_tier_hit_rate", "share"},
            {"serve.verify_memo_hit_rate", "share"},
            {"serve.dedup_rate", "share"},
            // sim cycle loop and plan compile
            {"sim.cycle_loop_s", "s"},
            {"sim.cycles", "count"},
            {"sim.runs", "count"},
            {"sim.ns_per_cycle", "ns"},
            {"sim.batch_cpu_util", "share"},
            {"sim.compile_plan_s", "s"},
            {"sim.plan_compiles", "count"},
            {"sim.plan_hit_rate", "share"},
            // mc search and memory
            {"mc.search_s", "s"},
            {"mc.search_s.nest2x4", "s"},
            {"mc.search_s.fork9x4", "s"},
            {"mc.search_s.Philosophers-PT-14", "s"},
            {"mc.search_s.Referendum-PT-10", "s"},
            {"mc.states_per_s", "1/s"},
            {"mc.cpu_util", "share"},
            {"mc.max_frontier", "count"},
            {"mc.max_probe_length", "count"},
            {"mc.tail_rate_ratio", "ratio"},
            {"mc.bytes_per_state", "B"},
            // petri, gen
            {"petri.pnml_parse_s", "s"},
            {"gen.lift_s", "s"},
            // synth front end, dcf
            {"synth.parse_s", "s"},
            {"synth.compile_s", "s"},
            {"dcf.check_s", "s"},
            // synth optimizer
            {"synth.expand_s", "s"},
            {"synth.measure_s", "s"},
            {"synth.select_s", "s"},
            {"synth.greedy_s", "s"},
            {"synth.candidates", "count"},
            {"synth.generations", "count"},
            {"synth.dedup_share", "share"},
            {"synth.objective", "sum"},
            {"synth.hypervolume", "sum"},
            // transform
            {"transform.parallelize_s", "s"},
            {"transform.cleanup_s", "s"},
            {"transform.passes_s", "s"},
            // semantics
            {"semantics.dependence_s", "s"},
            {"semantics.analysis_hit_rate", "share"},
            {"semantics.verify_s", "s"},
            // obs
            {"obs.trace_overhead", "ratio"},
        };
        for (const std::string_view layer : kLayers) {
          c.emplace_back("share." + std::string(layer), "share");
        }
        c.emplace_back("share.unattributed", "share");
        c.emplace_back("share.other", "share");
        return c;
      }();
  return catalogue;
}

void add_shares(Report& report,
                const std::map<std::string, double, std::less<>>& layer_s) {
  double total = 0;
  for (const auto& [layer, s] : layer_s) total += s;
  if (total <= 0) return;
  for (const auto& [layer, s] : layer_s) {
    report.layers["share." + layer] = s / total;
  }
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::size_t> seeded_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::uint64_t state = seed;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[splitmix(state) % i]);
  }
  return order;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  if (frac == 0) return values[lo];
  if (std::isinf(values[hi])) return values[hi];  // a failed request
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Cost measure(const std::function<void()>& work) {
  const HostTicks ticks0 = host_ticks();
  const Clock::time_point t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  work();
  Cost cost{seconds_since(t0), process_cpu_s() - cpu0, 0};
  cost.steal_share = steal_share(ticks0, host_ticks());
  return cost;
}

std::vector<Cost> timed_passes(double seconds,
                               const std::function<void()>& pass,
                               const std::function<void()>& between) {
  std::vector<Cost> passes;
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  do {
    passes.push_back(measure(pass));
    walls.push_back(passes.back().wall_s);
    if (between) between();
  } while (seconds_since(start) + median(walls) <= seconds);
  return passes;
}

void sample_setup(int repeats, const std::function<void()>& setup,
                  std::vector<double>& cpu_s) {
  for (int i = 0; i < repeats; ++i) cpu_s.push_back(measure(setup).cpu_s);
}

HostTicks host_ticks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string label;
  double t[8] = {};
  if (!(in >> label) || label != "cpu") return {};
  for (double& v : t) {
    if (!(in >> v)) return {};
  }
  return HostTicks{t[0] + t[1] + t[2] + t[5] + t[6] + t[7], t[7]};
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  const double busy = to.busy - from.busy;
  return busy > 0 ? (to.steal - from.steal) / busy : 0;
}

double peak_rss_mb() {
  return static_cast<double>(camad::obs::peak_rss_bytes()) / (1024.0 * 1024.0);
}

}  // namespace perfbench
