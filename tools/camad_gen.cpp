// camad-gen — randomized generator / metamorphic-oracle driver.
//
//   camad-gen seed   N [--level program|system] [--print] [--no-shrink]
//   camad-gen range  FIRST COUNT [--out-dir DIR]
//   camad-gen soak   MINUTES [--start SEED] [--out-dir DIR]
//   camad-gen corpus FILE [--out-dir DIR]
//
// `--mc-crosscheck` (seed / range / soak / corpus) adds the model-checker
// cross-check stage to the battery: unguarded mc vs petri explorer
// bit-compare, guard-aware refinement containment, witness replay.
//
// `seed` reruns the full oracle battery (checker, engine differential,
// transformation chains, fold / io round-trips) on one seed — the
// reproduction entry point docs/TESTING.md points at. `range` sweeps a
// deterministic seed interval, `soak` runs until a wall-clock budget is
// spent (the CI nightly mode), `corpus` replays a checked-in seed file.
// Failures are minimized (unless --no-shrink) and printed as ready-to-
// register corpus lines; with --out-dir each failure's shrunk artifact is
// written to <dir>/<level>_<seed>.txt for artifact upload.
//
// Exit status: 0 all oracles green, 1 at least one failure, 2 usage (an
// unknown flag or option included).

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "gen/oracle.h"
#include "gen/program.h"
#include "gen/sysgen.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "util/error.h"

using namespace camad;

namespace {

constexpr const char* kUsage =
    "usage: camad-gen <seed|range|soak|corpus> ... [options]\n"
    "  seed N            run the oracle battery on one seed\n"
    "    --level L       program | system (default: both)\n"
    "    --print         print the generated input, run nothing\n"
    "    --no-shrink     report failures without minimizing\n"
    "  range FIRST COUNT sweep a seed interval (both levels)\n"
    "  soak MINUTES      sweep seeds until the time budget is spent\n"
    "    --start SEED    first seed of the sweep (default 1)\n"
    "  corpus FILE       replay a seed-corpus file\n"
    "  --out-dir DIR     write failing artifacts to DIR\n"
    "  --mc-crosscheck   add the model-checker cross-check stage\n"
    "  --report[=F]      write a machine-readable run report (args, wall\n"
    "                    time, exit status, peak RSS, gen.* counters, and\n"
    "                    for soak the soak.* counters, the per-seed\n"
    "                    duration histogram and soak.last_seed; default\n"
    "                    report.json)\n";

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> options;
  std::vector<std::string> flags;

  [[nodiscard]] std::optional<std::string> option(
      const std::string& key) const {
    for (const auto& [k, v] : options) {
      if (k == key) return v;
    }
    return std::nullopt;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    for (const std::string& f : flags) {
      if (f == key) return true;
    }
    return false;
  }
};

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Args args;
  args.command = argv[1];
  // Options that take a value, and flags that take none. Any other key,
  // bare or inline, is a usage error.
  const std::vector<std::string> value_options = {"--level", "--start",
                                                  "--out-dir"};
  const std::vector<std::string> flags = {"--print", "--no-shrink",
                                          "--mc-crosscheck", "--report"};
  const auto known = [](const std::vector<std::string>& keys,
                        const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.positional.push_back(arg);
      continue;
    }
    // Inline form --key=value. --report is a flag when bare; an inline
    // =FILE overrides the default output path.
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      const std::string key = arg.substr(0, eq);
      if (!known(value_options, key) && key != "--report") {
        return std::nullopt;
      }
      args.options.emplace_back(key, arg.substr(eq + 1));
    } else if (known(value_options, arg)) {
      if (i + 1 >= argc) return std::nullopt;
      args.options.emplace_back(arg, argv[++i]);
    } else if (known(flags, arg)) {
      args.flags.push_back(arg);
    } else {
      return std::nullopt;
    }
  }
  return args;
}

void report_failure(const gen::OracleOutcome& out,
                    const std::optional<std::string>& out_dir) {
  std::cout << out.to_string() << '\n';
  std::cout << "register as: " << out.corpus_line() << '\n';
  if (out_dir) {
    std::filesystem::create_directories(*out_dir);
    const std::string path = *out_dir + "/" +
                             std::string(gen::level_name(out.level)) + "_" +
                             std::to_string(out.seed) + ".txt";
    std::ofstream file(path);
    file << out.corpus_line() << "\n\n" << out.to_string() << '\n';
    std::cout << "artifact written to " << path << '\n';
  }
}

std::vector<gen::OracleLevel> levels_from(const Args& args) {
  const auto level = args.option("--level");
  if (!level) return {gen::OracleLevel::kProgram, gen::OracleLevel::kSystem};
  if (*level == "program") return {gen::OracleLevel::kProgram};
  if (*level == "system") return {gen::OracleLevel::kSystem};
  throw Error("unknown --level '" + *level + "'");
}

int cmd_seed(const Args& args, obs::MetricsRegistry& metrics) {
  if (args.positional.size() != 1) throw Error("seed: expected one seed");
  const std::uint64_t seed = std::stoull(args.positional[0]);
  gen::OracleOptions options;
  options.shrink_failures = !args.flag("--no-shrink");
  options.mc_crosscheck = args.flag("--mc-crosscheck");

  if (args.flag("--print")) {
    for (const gen::OracleLevel level : levels_from(args)) {
      if (level == gen::OracleLevel::kProgram) {
        std::cout << synth::to_source(gen::random_program(seed));
      } else {
        Rng rng(seed);
        std::cout << gen::plan_to_string(gen::random_plan(rng)) << '\n';
      }
    }
    return 0;
  }

  bool failed = false;
  for (const gen::OracleLevel level : levels_from(args)) {
    const gen::OracleOutcome out = gen::run_seed(seed, level, options);
    metrics.add("gen.runs");
    if (out.ok) {
      std::cout << out.to_string() << '\n';
    } else {
      failed = true;
      metrics.add("gen.failures");
      report_failure(out, args.option("--out-dir"));
    }
  }
  return failed ? 1 : 0;
}

int cmd_range(const Args& args, obs::MetricsRegistry& metrics) {
  if (args.positional.size() != 2) {
    throw Error("range: expected FIRST COUNT");
  }
  const std::uint64_t first = std::stoull(args.positional[0]);
  const std::size_t count = std::stoull(args.positional[1]);
  gen::OracleOptions options;
  options.mc_crosscheck = args.flag("--mc-crosscheck");
  const std::vector<gen::OracleOutcome> failures =
      gen::run_seed_range(first, count, options);
  metrics.add("gen.runs", count * 2);
  metrics.add("gen.failures", failures.size());
  for (const gen::OracleOutcome& out : failures) {
    report_failure(out, args.option("--out-dir"));
  }
  std::cout << count << " seeds x 2 levels, " << failures.size()
            << " failure(s)\n";
  return failures.empty() ? 0 : 1;
}

int cmd_soak(const Args& args, obs::MetricsRegistry& metrics) {
  if (args.positional.size() != 1) throw Error("soak: expected MINUTES");
  const double minutes = std::stod(args.positional[0]);
  std::uint64_t seed = 1;
  if (const auto start = args.option("--start")) seed = std::stoull(*start);

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::ratio<60>>(
                                minutes));
  gen::OracleOptions options;
  options.mc_crosscheck = args.flag("--mc-crosscheck");
  std::size_t ran = 0;
  std::size_t failed = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const gen::OracleLevel level :
         {gen::OracleLevel::kProgram, gen::OracleLevel::kSystem}) {
      const auto t0 = std::chrono::steady_clock::now();
      const gen::OracleOutcome out = gen::run_seed(seed, level, options);
      ++ran;
      metrics.add("gen.runs");
      metrics.add("soak.runs");
      metrics.add(std::string("soak.runs.") +
                  std::string(gen::level_name(level)));
      metrics.observe("soak.seed_seconds",
                      std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
      if (!out.ok) {
        ++failed;
        metrics.add("gen.failures");
        metrics.add("soak.failures");
        metrics.add("soak.failures." + out.stage);
        report_failure(out, args.option("--out-dir"));
      }
    }
    ++seed;
  }
  std::cout << "soak: " << ran << " runs up to seed " << seed - 1 << ", "
            << failed << " failure(s)\n";
  metrics.set("soak.last_seed", static_cast<double>(seed - 1));
  return failed == 0 ? 0 : 1;
}

int cmd_corpus(const Args& args, obs::MetricsRegistry& metrics) {
  if (args.positional.size() != 1) throw Error("corpus: expected FILE");
  const std::vector<gen::CorpusEntry> entries =
      gen::load_corpus_file(args.positional[0]);
  gen::OracleOptions options;
  options.mc_crosscheck = args.flag("--mc-crosscheck");
  std::size_t failed = 0;
  for (const gen::CorpusEntry& entry : entries) {
    const gen::OracleOutcome out =
        gen::run_seed(entry.seed, entry.level, options);
    metrics.add("gen.runs");
    std::cout << out.to_string();
    if (!entry.note.empty()) std::cout << "  (" << entry.note << ")";
    std::cout << '\n';
    if (!out.ok) {
      ++failed;
      metrics.add("gen.failures");
      report_failure(out, args.option("--out-dir"));
    }
  }
  std::cout << entries.size() << " corpus entries, " << failed
            << " failure(s)\n";
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << kUsage;
    return 2;
  }
  try {
    // One registry for the whole invocation; --report embeds it.
    obs::MetricsRegistry metrics;
    std::optional<obs::RunReport> report;
    std::string report_path;
    if (const auto path = args->option("--report")) {
      report_path = *path;
    } else if (args->flag("--report")) {
      report_path = "report.json";
    }
    if (!report_path.empty()) {
      std::vector<std::string> rest = args->positional;
      for (const auto& [k, v] : args->options) rest.push_back(k + "=" + v);
      for (const std::string& f : args->flags) rest.push_back(f);
      report.emplace(obs::RunReportOptions{
          "camad-gen", args->command,
          args->positional.empty() ? "" : args->positional.front(),
          std::move(rest)});
    }

    int status = 2;
    if (args->command == "seed") {
      status = cmd_seed(*args, metrics);
    } else if (args->command == "range") {
      status = cmd_range(*args, metrics);
    } else if (args->command == "soak") {
      status = cmd_soak(*args, metrics);
    } else if (args->command == "corpus") {
      status = cmd_corpus(*args, metrics);
    } else {
      std::cerr << kUsage;
      return 2;
    }
    if (report) {
      metrics.set("process.peak_rss_bytes",
                  static_cast<double>(obs::peak_rss_bytes()));
      std::ofstream out(report_path);
      if (!out) throw Error("cannot write '" + report_path + "'");
      report->write(out, status, metrics);
      std::cerr << "report written to " << report_path << '\n';
    }
    return status;
  } catch (const std::exception& e) {
    std::cerr << "camad-gen: " << e.what() << '\n';
    return 2;
  }
}
