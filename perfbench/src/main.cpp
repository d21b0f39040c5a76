// camad_perf — the end-to-end benchmark program.
//
//   camad_perf --workload synth|verify|sim|serve --seed N --seconds S
//              --trace 0|1 [--root DIR] [--commit C] [--smoke]
//   camad_perf --fold TRACE.json
//
// A workload run prints its record (seed, CPU count, compiler, build
// type, commit), the workload's own named figures with their units, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end ones, with
// --trace 1 the per-layer ones from a traced pass. Any correctness
// mismatch prints the object with "correct": false and exits 1.
//
// --fold folds a chrome trace file (camadc --trace=F, or any
// obs::TraceSession export) into per-span self times and layer shares.
//
// perfbench/run.py builds this binary and is the command to run.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "common.h"
#include "fold.h"
#include "runs.h"

namespace {

using namespace perfbench;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

int usage() {
  std::cerr << "usage: camad_perf --workload synth|verify|sim|serve "
               "--seed N --seconds S --trace 0|1\n"
               "                  [--root DIR] [--commit C] [--smoke]\n"
               "       camad_perf --fold TRACE.json\n";
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

std::string number(double value) {
  std::ostringstream os;
  os << std::setprecision(12) << value;
  return os.str();
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int fold_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << '\n';
    return 2;
  }
  SpanFolder folder;
  std::string chunk(1 << 16, '\0');
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())) ||
         in.gcount() > 0) {
    folder.feed(std::string_view(chunk.data(),
                                 static_cast<std::size_t>(in.gcount())));
  }
  const Fold fold = folder.finish();
  double total = 0;
  for (const auto& [name, t] : fold.spans) total += t.self_s;
  const auto share = [&](double s) { return total > 0 ? 100 * s / total : 0; };
  std::printf("%-32s %10s %14s %14s %7s\n", "span", "count", "self s",
              "total s", "self %");
  for (const auto& [name, t] : fold.spans) {
    std::printf("%-32s %10llu %14.6f %14.6f %7.1f\n", name.c_str(),
                static_cast<unsigned long long>(t.count), t.self_s, t.total_s,
                share(t.self_s));
  }
  std::printf("layer shares of %.6f s self time:\n", total);
  for (const auto& [layer, s] : layer_self_s(fold)) {
    std::printf("  %-14s %6.1f %%\n", layer.c_str(), share(s));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  std::string commit = "unknown";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--fold") return fold_file(next());
      if (arg == "--workload") {
        config.workload = next();
      } else if (arg == "--seed") {
        config.seed = std::stoull(next());
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(next());
        have_seconds = config.seconds > 0;
      } else if (arg == "--trace") {
        const std::string v = next();
        if (v != "0" && v != "1") return usage();
        config.trace = v == "1";
        have_trace = true;
      } else if (arg == "--root") {
        config.root = next();
      } else if (arg == "--commit") {
        commit = next();
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      return usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage();
  if (!config.smoke && (!kAssertsOff || kSanitized)) {
    std::cerr << "camad_perf: refusing to report timings from a build "
              << (kSanitized ? "with a sanitizer" : "without NDEBUG") << '\n';
    return 3;
  }
  config.threads = cpu_count();

  Report report;
  const HostTicks ticks0 = host_ticks();
  try {
    if (config.workload == "synth") {
      run_synth(config, report);
    } else if (config.workload == "verify") {
      run_verify(config, report);
    } else if (config.workload == "sim") {
      run_sim(config, report);
    } else if (config.workload == "serve") {
      run_serve(config, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "camad_perf: " << config.workload << ": " << e.what() << '\n';
    return 2;
  }

  report.figure("host_steal_share", steal_share(ticks0, host_ticks()),
                "share");

  std::vector<Metric> metrics;
  if (!config.trace) {
    std::vector<double> wall;
    std::vector<double> unstolen;
    std::vector<double> cpu;
    for (const Cost& pass : report.passes) {
      wall.push_back(pass.wall_s);
      // The pass as it would have run had the hypervisor stolen nothing:
      // with every busy CPU losing that share, the work stretches by it.
      unstolen.push_back(pass.wall_s * (1 - pass.steal_share));
      cpu.push_back(pass.cpu_s);
    }
    report.figure("passes", static_cast<double>(report.passes.size()),
                  "count");
    report.figure("wall_median_s", median(wall), "s");
    // Steal only ever lengthens a pass, and what the correction misses
    // (threads waiting on a stolen one) does too: of the corrected pass
    // times the lower quartile is the one least moved by it.
    metrics = {{"wall_s", quantile(unstolen, 0.25), "s"},
               {"cpu_s", median(cpu), "s"},
               {"setup_s", report.setup_s, "s"},
               {"peak_rss_mb", report.peak_rss_mb, "MB"}};
  } else {
    for (const auto& [name, unit] : layer_catalogue()) {
      const auto it = report.layers.find(name);
      metrics.push_back(
          {name, it == report.layers.end() ? 0.0 : it->second, unit});
    }
  }
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) report.mismatch(m.name + " is not finite");
  }
  if (report.attempted == 0) report.mismatch("no operation ran");

  std::cout << "perfbench workload=" << config.workload
            << " seed=" << config.seed << " trace=" << config.trace
            << " nproc=" << config.threads << " build=" << PERFBENCH_BUILD_TYPE
            << " compiler=\"" << compiler() << "\" commit=" << commit
            << (config.smoke ? " smoke" : "") << '\n';
  const double failed_share =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  report.figure("failed_share", failed_share, "share");
  for (const std::vector<Metric>* list : {&report.figures, &metrics}) {
    for (const Metric& m : *list) {
      std::cout << "  " << std::left << std::setw(34) << m.name << std::right
                << std::setw(18) << number(m.value) << ' ' << m.unit << '\n';
    }
  }
  for (const std::string& what : report.mismatches) {
    std::cout << "MISMATCH " << what << '\n';
  }

  std::ostringstream json;
  json << "{\"correct\": " << (report.mismatches.empty() ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json << (i == 0 ? "" : ", ") << quoted(m.name) << ": {\"value\": "
         << (std::isfinite(m.value) ? number(m.value) : "0")
         << ", \"unit\": " << quoted(m.unit) << '}';
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return report.mismatches.empty() ? 0 : 1;
}
