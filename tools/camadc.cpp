// camadc — command-line driver for the camad synthesis flow.
//
//   camadc check  design.bdl [--reachable] [--strict-rule5]
//   camadc compile design.bdl --out design.sys [--no-fold]
//   camadc transform design.sys --passes=name,name,... [--print-pass-stats]
//                 --out result.sys
//   camadc synth  design.bdl [--lambda L] [--max-steps N]
//                 [--netlist PATH] [--dot PATH] [--no-verify]
//   camadc sim    design.bdl [--in name=v1,v2,...]... [--vcd PATH]
//                 [--max-cycles N] [--trace] [--seed S]
//   camadc verify design.bdl [--threads N] [--max-states M]
//                 [--token-bound B] [--witness[=FILE]] [--no-guards]
//                 [--expect safe=yes,deadlock=no,...]
//   camadc report design.bdl [--trips T]
//   camadc import net.pnml [--out FILE.sys] [--stub none|reg]
//   camadc import design.{bdl,sys,pnml} --export-pnml FILE
//
// `simulate` and `optimize` are aliases for `sim` and `synth`.
//
// Every file-loading command also accepts PNML (ISO/IEC 15909-2 P/T
// nets): text starting with '<' is parsed with petri::from_pnml and
// lifted to a System with a synthesized data-path stub, so
// `camadc verify instance.pnml` model-checks external benchmark nets
// directly. `verify --expect` compares the checker's verdicts against a
// comma-separated key=value list (safe, bounded, deadlock, terminates,
// dead, markings, states; '-' skips a key) and exits 0 only on a
// complete, fully matching run — the corpus ctest tier is built on it.
//
// Telemetry (every subcommand): `--trace[=FILE]` records a
// Chrome-trace-event timeline (chrome://tracing / Perfetto), default
// trace.json; `--trace-deterministic` switches it to logical clocks for
// byte-identical reruns; `--report[=FILE]` writes a machine-readable
// run report (args, wall time, exit status, peak RSS and the
// counters/gauges/histograms snapshot), default report.json;
// `--progress[=SECS]` prints live heartbeat lines to stderr while the
// engines run, default every 1s. Heartbeats and the report notice go to
// stderr, so stdout is byte-identical with and without them. On `sim`,
// bare `--trace` keeps its historical meaning (print the event trace as
// text), so the timeline there needs the explicit `--trace=FILE` form.
//
// Exit status: 0 on success, 1 on a failed check / simulation violation,
// 2 on usage or parse errors — an unknown flag or option and a malformed
// numeric option value included.

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dcf/check.h"
#include "gen/lift.h"
#include "mc/checker.h"
#include "petri/classify.h"
#include "petri/export.h"
#include "petri/pnml.h"
#include "synth/schedule.h"
#include "dcf/export.h"
#include "dcf/io.h"
#include "obs/adapters.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "semantics/analysis.h"
#include "serve/budget.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "sim/vcd.h"
#include "synth/compile.h"
#include "synth/critpath.h"
#include "synth/fold.h"
#include "synth/optimizer.h"
#include "synth/parser.h"
#include "synth/synthesis.h"
#include "transform/passes.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

using namespace camad;

namespace {

// SIGINT/SIGTERM cancel this budget instead of killing the process: the
// engine loops (sim cycles, checker BFS levels, optimizer generations)
// poll it and return well-formed partial results, so the command still
// prints its summary and Telemetry::finish still flushes the --report
// artifact. A second signal falls through to the default disposition for
// a hard kill.
serve::Budget g_interrupt_budget;

extern "C" void camadc_handle_signal(int sig) {
  // Async-signal-safe: cancel() is one relaxed atomic store, and
  // std::signal only changes the disposition.
  g_interrupt_budget.cancel();
  std::signal(sig, SIG_DFL);
}

void install_signal_handlers() {
  std::signal(SIGINT, camadc_handle_signal);
  std::signal(SIGTERM, camadc_handle_signal);
}

/// A malformed option value: main() prints it with the usage text and
/// exits 2.
struct UsageError : std::runtime_error {
  UsageError(const std::string& key, const std::string& text)
      : std::runtime_error("invalid value '" + text + "' for " + key) {}
};

struct Args {
  std::string command;
  std::string file;
  std::vector<std::pair<std::string, std::string>> options;  // --key value
  std::vector<std::string> flags;                            // --key

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
  /// Numeric option values, nullopt when absent; a malformed value
  /// throws UsageError.
  [[nodiscard]] std::optional<std::uint64_t> u64(
      const std::string& key) const {
    const auto text = option(key);
    if (!text) return std::nullopt;
    std::uint64_t value = 0;
    if (!parse_u64(*text, value)) throw UsageError(key, *text);
    return value;
  }
  [[nodiscard]] std::optional<double> real(const std::string& key) const {
    const auto text = option(key);
    if (!text) return std::nullopt;
    double value = 0;
    if (!parse_double(*text, value)) throw UsageError(key, *text);
    return value;
  }
  /// All values given for a repeatable option (e.g. --in).
  [[nodiscard]] std::vector<std::string> option_all(
      const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : options) {
      if (k == key) out.push_back(v);
    }
    return out;
  }
};

constexpr const char* kUsage =
    "usage: camadc <check|compile|transform|synth|sim|verify|report|import> "
    "file [options]\n"
    "  check:     --reachable --strict-rule5\n"
    "  compile:   --out design.sys --no-fold\n"
    "  transform: --passes=name,name,... --print-pass-stats\n"
    "             --out result.sys (passes run in the listed order)\n"
    "  synth:  --strategy greedy|pareto --lambda L --max-steps N "
    "--netlist PATH --dot PATH --no-verify\n"
    "          --beam N --generations N --threads N --frontier-out FILE "
    "(pareto)\n"
    "  sim:    --in name=v1,v2,... --vcd PATH --max-cycles N --trace "
    "--seed S\n"
    "          --engine compiled|reference\n"
    "  verify: --threads N --max-states M --token-bound B --witness[=FILE] "
    "--no-guards\n"
    "          --expect safe=yes,bounded=yes,deadlock=no,terminates=no,"
    "dead=0,markings=N\n"
    "  report: --trips T\n"
    "  import: --out FILE.sys --stub none|reg --export-pnml FILE\n"
    "  telemetry (all commands): --trace[=FILE] --trace-deterministic\n"
    "             --report[=FILE] --progress[=SECS]\n"
    "  aliases: simulate = sim, optimize = synth\n";

std::optional<Args> parse_args(int argc, char** argv) {
  if (argc < 3) return std::nullopt;
  Args args;
  args.command = argv[1];
  args.file = argv[2];
  // Options that take a value, and flags that take none. Any other key,
  // bare or inline, is a usage error.
  const std::vector<std::string> value_options = {
      "--lambda",  "--max-steps",  "--netlist",     "--dot",   "--in",
      "--vcd",     "--max-cycles", "--seed",        "--trips", "--out",
      "--passes",  "--threads",    "--max-states",  "--token-bound",
      "--engine",  "--expect",     "--stub",
      "--export-pnml", "--strategy", "--beam",      "--generations",
      "--frontier-out"};
  // --trace/--witness/--report/--progress are flags when bare but accept
  // an inline =VALUE to override the default.
  const std::vector<std::string> inline_flags = {"--trace", "--witness",
                                                 "--report", "--progress"};
  const std::vector<std::string> flags = {
      "--reachable",        "--strict-rule5", "--no-fold",
      "--print-pass-stats", "--no-verify",    "--no-guards",
      "--trace-deterministic"};
  const auto known = [](const std::vector<std::string>& keys,
                        const std::string& key) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!starts_with(arg, "--")) return std::nullopt;
    // Inline form --key=value.
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      const std::string key = arg.substr(0, eq);
      if (!known(value_options, key) && !known(inline_flags, key)) {
        return std::nullopt;
      }
      args.options.emplace_back(key, arg.substr(eq + 1));
    } else if (known(value_options, arg)) {
      if (i + 1 >= argc) return std::nullopt;
      args.options.emplace_back(arg, argv[++i]);
    } else if (known(flags, arg) || known(inline_flags, arg)) {
      args.flags.push_back(arg);
    } else {
      return std::nullopt;
    }
  }
  return args;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error("cannot write '" + path + "'");
  out << text;
}

/// Per-command telemetry: an optional activated TraceSession, an
/// optional live ProgressMeter, an optional RunReport and the
/// MetricsRegistry it embeds, configured from --trace[=FILE],
/// --trace-deterministic, --report[=FILE] and --progress[=SECS]. The CLI
/// pattern is activate -> run -> finish(status) (stop the meter,
/// deactivate, write every requested artifact, pass the status through).
struct Telemetry {
  Telemetry(const Args& args, bool bare_trace_is_chrome) {
    const bool deterministic = args.flag("--trace-deterministic");
    if (const auto path = args.option("--trace")) {
      trace_path = *path;
    } else if ((bare_trace_is_chrome && args.flag("--trace")) ||
               deterministic) {
      trace_path = "trace.json";
    }
    if (const auto path = args.option("--report")) {
      report_path = *path;
    } else if (args.flag("--report")) {
      report_path = "report.json";
    }
    if (!report_path.empty()) {
      std::vector<std::string> rest;
      for (const auto& [k, v] : args.options) rest.push_back(k + "=" + v);
      for (const std::string& f : args.flags) rest.push_back(f);
      report.emplace(obs::RunReportOptions{"camadc", args.command, args.file,
                                           std::move(rest)});
    }
    const double interval = args.real("--progress").value_or(
        args.flag("--progress") ? 1.0 : -1.0);
    if (interval >= 0.0) {
      meter.emplace(obs::ProgressMeterOptions{interval, nullptr});
    }
    if (!trace_path.empty()) {
      trace.emplace(obs::TraceOptions{deterministic});
      trace->activate();
    }
  }
  ~Telemetry() {
    if (trace) trace->deactivate();
  }

  /// True when a report was requested: it embeds the metrics snapshot,
  /// and commands gate stat publishing on this.
  [[nodiscard]] bool collect_metrics() const { return report.has_value(); }

  /// Free-form report annotation; no-op without --report.
  void note(std::string_view key, std::string_view value) {
    if (report) report->note(key, value);
  }

  /// Stops the progress meter, deactivates the session and writes
  /// whatever was requested, then passes `exit_status` through (so call
  /// sites read `return telemetry.finish(code);`). Call after all worker
  /// threads have joined. The report notice goes to stderr: stdout stays
  /// byte-identical with and without --report/--progress.
  int finish(int exit_status) {
    meter.reset();
    if (trace) {
      trace->deactivate();
      std::ofstream out(trace_path);
      if (!out) throw Error("cannot write '" + trace_path + "'");
      trace->write_json(out);
      std::cout << "trace written to " << trace_path << " ("
                << trace->event_count() << " events)\n";
    }
    if (report) {
      metrics.set("process.peak_rss_bytes",
                  static_cast<double>(obs::peak_rss_bytes()));
      std::ofstream out(report_path);
      if (!out) throw Error("cannot write '" + report_path + "'");
      report->write(out, exit_status, metrics);
      std::cerr << "report written to " << report_path << '\n';
    }
    return exit_status;
  }

  std::string trace_path;
  std::string report_path;
  std::optional<obs::TraceSession> trace;
  std::optional<obs::ProgressMeter> meter;
  std::optional<obs::RunReport> report;
  obs::MetricsRegistry metrics;
};

/// Derives a system name from a file path: basename minus extension.
std::string file_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  const std::size_t begin = slash == std::string::npos ? 0 : slash + 1;
  std::size_t end = path.rfind('.');
  if (end == std::string::npos || end <= begin) end = path.size();
  const std::string stem = path.substr(begin, end - begin);
  return stem.empty() ? "imported" : stem;
}

/// Loads a design file through gen::parse_design_text, naming a PNML net
/// without an id after the file.
dcf::System load_any(const std::string& path) {
  return gen::parse_design_text(read_file(path), file_stem(path));
}

int cmd_check(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  const dcf::System system = load_any(args.file);
  dcf::CheckOptions options;
  options.use_reachable_concurrency = args.flag("--reachable");
  options.allow_control_only_states = !args.flag("--strict-rule5");
  const dcf::CheckReport report = dcf::check_properly_designed(system,
                                                               options);
  std::cout << system.name() << ": " << report.to_string() << '\n';
  telemetry.note("check", report.to_string());
  return telemetry.finish(report.ok() ? 0 : 1);
}

int cmd_compile(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  const std::string text = read_file(args.file);
  synth::Program program = synth::parse_program(text);
  std::size_t folded = 0;
  if (!args.flag("--no-fold")) folded = synth::fold_constants(program);
  synth::CompileStats stats;
  const dcf::System system = synth::compile(program, &stats);
  std::cout << system.name() << ": " << stats.states << " states, "
            << stats.functional_units << " FUs, " << stats.registers
            << " registers (" << folded << " ops folded)\n";
  const std::string out =
      args.option("--out").value_or(system.name() + ".sys");
  write_file(out, dcf::save_system(system));
  std::cout << "system written to " << out << "\n";
  if (telemetry.collect_metrics()) {
    telemetry.metrics.set("compile.states", static_cast<double>(stats.states));
    telemetry.metrics.set("compile.functional_units",
                          static_cast<double>(stats.functional_units));
    telemetry.metrics.set("compile.registers",
                          static_cast<double>(stats.registers));
    telemetry.metrics.set("compile.ops_folded", static_cast<double>(folded));
  }
  return telemetry.finish(0);
}

int cmd_transform(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  dcf::System system = load_any(args.file);
  if (const auto spec = args.option("--passes")) {
    // Pipeline form: one AnalysisCache threaded through the sequence,
    // per-pass stats collected along the way.
    transform::PassPipeline pipeline =
        transform::PassPipeline::from_spec(*spec);
    system = pipeline.run(system);
    for (const transform::PassStats& ps : pipeline.stats()) {
      std::cout << ps.name << ": " << ps.states_before << " -> "
                << ps.states_after << " states";
      if (!ps.counters.empty()) std::cout << " (" << ps.counters << ")";
      std::cout << "\n";
    }
    std::cout << "  " << pipeline.cache_stats().summary() << "\n";
    if (args.flag("--print-pass-stats")) {
      std::cout << pipeline.stats_to_string();
    }
    if (telemetry.collect_metrics()) {
      obs::publish_pass_stats(telemetry.metrics, pipeline.stats());
      obs::publish_analysis_stats(telemetry.metrics,
                                  pipeline.cache_stats());
    }
  }
  const dcf::CheckReport report = dcf::check_properly_designed(system);
  std::cout << "result: " << report.to_string() << "\n";
  const std::string out =
      args.option("--out").value_or(system.name() + ".sys");
  write_file(out, dcf::save_system(system));
  std::cout << "system written to " << out << "\n";
  telemetry.note("check", report.to_string());
  return telemetry.finish(report.ok() ? 0 : 1);
}

/// The one-line engine summary every camadc subcommand prints: the
/// summed plan-cache activity of the run's measurements plus the
/// analysis cache's lifetime totals (same shape as `camadc sim`'s
/// "engine <name>:" line).
void print_engine_summary(const sim::SimStats& sim_stats,
                          const semantics::AnalysisCacheStats& analysis) {
  std::cout << "  engine compiled: " << sim_stats.to_string() << '\n'
            << "  " << analysis.summary() << '\n';
}

/// One-word run outcome, including the signal-interrupted case (the
/// budget checkpoint in the cycle loop stopped the run early).
const char* sim_outcome(const sim::SimResult& r) {
  if (r.terminated) return "terminated";
  if (r.deadlocked) return "deadlocked";
  if (r.budget_exhausted) return "interrupted";
  return "cycle limit";
}

/// The synth.frontier.bytes gauge: each frontier point's master and
/// schedule serialized, with a data path the schedule shares with its
/// master counted once, plus the point structs.
std::size_t frontier_bytes(const synth::ParetoResult& result) {
  std::size_t bytes = 0;
  for (const synth::FrontierPoint& point : result.frontier) {
    bytes += sizeof(point) + dcf::save_system(point.master).size() +
             dcf::save_system(point.scheduled).size();
    if (&point.scheduled.datapath() == &point.master.datapath()) {
      bytes -=
          dcf::save_system(point.master.with_control(dcf::ControlNet{}))
              .size();
    }
  }
  return bytes;
}

/// `camadc optimize --strategy=pareto`: multi-objective beam search,
/// prints the frontier table and optionally writes the deterministic
/// frontier JSON.
int cmd_synth_pareto(const Args& args, Telemetry& telemetry) {
  const dcf::System serial = load_any(args.file);
  const dcf::CheckReport check = dcf::check_properly_designed(serial);
  if (!check.ok()) {
    std::cerr << serial.name() << ": " << check.to_string() << '\n';
    return 1;
  }
  synth::ParetoOptions options;
  options.measure.environments = 2;
  options.beam_width = args.u64("--beam").value_or(options.beam_width);
  options.generations =
      args.u64("--generations").value_or(options.generations);
  options.eval_threads = args.u64("--threads").value_or(options.eval_threads);
  options.verify_frontier = !args.flag("--no-verify");
  options.budget = &g_interrupt_budget;
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  const synth::ParetoResult result =
      synth::optimize_pareto(serial, lib, options);

  std::cout << "pareto frontier for " << serial.name() << " ("
            << result.frontier.size() << " point(s), "
            << result.generations_run << " generation(s)"
            << (result.budget_exhausted ? ", interrupted" : "") << "):\n";
  Table table({"area", "mean cycles", "cycle ns", "time ns", "provenance"});
  for (const synth::FrontierPoint& p : result.frontier) {
    table.add_row({format_double(p.metrics.area, 0),
                   format_double(p.metrics.mean_cycles, 1),
                   format_double(p.metrics.cycle_time, 1),
                   format_double(p.metrics.time_ns, 0),
                   transform::provenance_to_string(p.provenance)});
  }
  std::cout << table.to_string();
  std::cout << "hypervolume " << format_double(result.hypervolume, 4)
            << " (ref " << format_double(synth::kHypervolumeRef, 1)
            << "x initial), " << result.candidates_evaluated
            << " candidate(s), " << result.dedup_hits << " dedup hit(s), "
            << result.verified_points << " point(s) verified\n";
  print_engine_summary(result.sim_stats, result.analysis_stats);
  if (const auto path = args.option("--frontier-out")) {
    write_file(*path, synth::frontier_to_json(result, serial.name()));
    std::cout << "frontier written to " << *path << '\n';
  }
  if (telemetry.collect_metrics()) {
    obs::publish_sim_stats(telemetry.metrics, result.sim_stats);
    obs::publish_analysis_stats(telemetry.metrics, result.analysis_stats);
    telemetry.metrics.add("pareto.candidates_evaluated",
                          result.candidates_evaluated);
    telemetry.metrics.add("pareto.dedup_hits", result.dedup_hits);
    telemetry.metrics.add("pareto.rebuilds", result.rebuilds);
    telemetry.metrics.add("pareto.frontier_points", result.frontier.size());
    telemetry.metrics.set("pareto.hypervolume", result.hypervolume);
    telemetry.metrics.set("synth.frontier.bytes",
                          static_cast<double>(frontier_bytes(result)));
  }
  telemetry.note("engine", result.sim_stats.to_string());
  return telemetry.finish(0);
}

int cmd_synth(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  const std::string strategy = args.option("--strategy").value_or("greedy");
  if (strategy == "pareto") return cmd_synth_pareto(args, telemetry);
  if (strategy != "greedy") {
    std::cerr << "unknown strategy '" << strategy
              << "' (expected greedy or pareto)\n";
    return 2;
  }
  synth::SynthesisOptions options;
  options.optimizer.area_weight =
      args.real("--lambda").value_or(options.optimizer.area_weight);
  options.optimizer.max_steps =
      args.u64("--max-steps").value_or(options.optimizer.max_steps);
  options.verify_result = !args.flag("--no-verify");
  options.optimizer.measure.environments = 2;

  const synth::SynthesisResult result =
      synth::synthesize(read_file(args.file), options);
  std::cout << result.report << '\n';
  print_engine_summary(result.optimization.sim_stats,
                       result.optimization.analysis_stats);
  if (const auto path = args.option("--netlist")) {
    write_file(*path, result.netlist);
    std::cout << "netlist written to " << *path << '\n';
  } else {
    std::cout << result.netlist;
  }
  if (const auto path = args.option("--dot")) {
    write_file(*path, dcf::system_to_dot(result.optimized));
    std::cout << "dot written to " << *path << '\n';
  }
  if (telemetry.collect_metrics()) {
    obs::publish_sim_stats(telemetry.metrics, result.optimization.sim_stats);
    obs::publish_analysis_stats(telemetry.metrics,
                                result.optimization.analysis_stats);
    telemetry.metrics.add("optimize.candidates_evaluated",
                          result.optimization.candidates_evaluated);
    telemetry.metrics.add("optimize.merges_applied",
                          result.optimization.merges_applied);
    telemetry.metrics.set("optimize.final_area",
                          result.optimization.final.area);
    telemetry.metrics.set("optimize.final_time_ns",
                          result.optimization.final.time_ns);
  }
  telemetry.note("engine", result.optimization.sim_stats.to_string());
  return telemetry.finish(0);
}

int cmd_sim(const Args& args) {
  // Bare --trace keeps its historical meaning here (text event trace),
  // so only --trace=FILE / --trace-deterministic open a chrome session.
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/false);
  const dcf::System system = load_any(args.file);

  sim::SimOptions options;
  // --trace prints and --vcd writes per-cycle records; a plain run keeps
  // only the event list.
  options.record_cycles =
      args.flag("--trace") || args.option("--vcd").has_value();
  options.max_cycles = args.u64("--max-cycles").value_or(options.max_cycles);
  options.seed = args.u64("--seed").value_or(7);
  options.budget = &g_interrupt_budget;
  if (const auto name = args.option("--engine")) {
    const auto engine = sim::engine_from_name(*name);
    if (!engine.has_value()) {
      std::cerr << "unknown engine '" << *name
                << "' (expected compiled or reference)\n";
      return 2;
    }
    options.engine = *engine;
  }

  sim::Environment env;
  const auto specs = args.option_all("--in");
  if (specs.empty()) {
    env = sim::Environment::random_for(system, options.seed, 64, 1, 99);
    std::cout << "(no --in given: random environment, seed " << options.seed
              << ")\n";
  } else {
    for (const std::string& spec : specs) {
      const auto eq = spec.find('=');
      if (eq == std::string::npos) {
        std::cerr << "bad --in spec '" << spec << "'\n";
        return 2;
      }
      const std::string name = spec.substr(0, eq);
      const dcf::VertexId v = system.datapath().find_vertex(name);
      if (!v.valid()) {
        std::cerr << "no input named '" << name << "'\n";
        return 2;
      }
      std::vector<std::int64_t> values;
      for (const std::string& item : split(spec.substr(eq + 1), ',')) {
        std::int64_t value = 0;
        if (!parse_i64(item, value)) throw UsageError("--in " + name, item);
        values.push_back(value);
      }
      env.set_stream(v, std::move(values));
    }
  }

  const sim::SimResult result = sim::simulate(system, env, options);

  std::cout << system.name() << ": " << sim_outcome(result) << " after "
            << result.cycles << " cycles, "
            << result.trace.event_count() << " external events\n";
  std::cout << "  engine " << sim::engine_name(options.engine) << ": "
            << result.stats.to_string() << '\n';
  for (const std::string& violation : result.violations) {
    std::cout << "violation: " << violation << '\n';
  }
  if (args.flag("--trace")) {
    std::cout << result.trace.to_string(system);
  } else {
    // Print just the external events, channel=value per line.
    const dcf::DataPath& dp = system.datapath();
    for (const sim::ExternalEvent& e : result.trace.events()) {
      const dcf::VertexId src = dp.arc_source_vertex(e.arc);
      const dcf::VertexId dst = dp.arc_target_vertex(e.arc);
      const dcf::VertexId ext =
          dp.kind(src) != dcf::VertexKind::kInternal ? src : dst;
      std::cout << "  @" << e.cycle << ' ' << dp.name(ext) << " = "
                << e.value << '\n';
    }
  }
  if (const auto path = args.option("--vcd")) {
    write_file(*path, sim::to_vcd(system, result));
    std::cout << "waveform written to " << *path << '\n';
  }
  if (telemetry.collect_metrics()) {
    obs::publish_sim_stats(telemetry.metrics, result.stats);
    telemetry.metrics.set("sim.cycles", static_cast<double>(result.cycles));
    telemetry.metrics.add("sim.runs");
  }
  telemetry.note("engine", result.stats.to_string());
  return telemetry.finish(result.violations.empty() ? 0 : 1);
}

/// Renders "s1(1) s2(2)" for a witness marking.
std::string marking_to_string(const petri::Net& net,
                              const petri::Marking& marking) {
  std::string out;
  for (petri::PlaceId p : marking.marked_places()) {
    if (!out.empty()) out += ' ';
    out += net.name(p) + "(" + std::to_string(marking.tokens(p)) + ")";
  }
  return out;
}

int cmd_verify(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  const dcf::System system = load_any(args.file);
  const petri::Net& net = system.control().net();

  mc::McOptions options;
  options.threads = args.u64("--threads").value_or(options.threads);
  options.max_states = args.u64("--max-states").value_or(options.max_states);
  if (const auto bound = args.u64("--token-bound")) {
    if (*bound > UINT32_MAX) {
      throw UsageError("--token-bound", std::to_string(*bound));
    }
    options.token_bound = static_cast<std::uint32_t>(*bound);
  }
  options.use_guards = !args.flag("--no-guards");
  options.budget = &g_interrupt_budget;

  // The check runs through an AnalysisCache (with the CLI's checker
  // configuration threaded in) so verify reports the same engine-summary
  // line as sim/optimize. camadd's verify does not come this way: it
  // reads StoredDesign::verify's per-options memo.
  const semantics::AnalysisCache cache(system, {}, options);
  const mc::McResult& result = cache.model_check();

  std::cout << system.name() << ": " << result.state_count << " state(s), "
            << result.marking_count << " marking(s), depth " << result.depth
            << ", " << result.tracked_cells << " guard cell(s)";
  if (!result.complete) {
    std::cout << " [incomplete: " << result.cutoff_reason << "]";
  }
  std::cout << '\n';
  std::cout << "  safe: " << (result.safe ? "yes" : "NO")
            << "  bounded: " << (result.bounded ? "yes" : "NO")
            << "  deadlock: " << (result.deadlock ? "YES" : "no")
            << "  terminates: " << (result.can_terminate ? "yes" : "no")
            << '\n';
  if (!result.dead_transitions.empty()) {
    std::cout << "  dead transitions:";
    for (petri::TransitionId t : result.dead_transitions) {
      std::cout << ' ' << net.name(t);
    }
    std::cout << '\n';
  }
  std::size_t unguarded_conflicts = 0;
  for (const mc::McConflict& c : result.conflicts) {
    std::cout << "  " << (c.unguarded ? "conflict" : "conflict-warning")
              << ": " << net.name(c.a) << " vs " << net.name(c.b)
              << " at place " << net.name(c.place) << " in marking "
              << marking_to_string(net, c.marking) << '\n';
    if (c.unguarded) ++unguarded_conflicts;
  }
  if (result.conflicts_truncated > 0) {
    std::cout << "  (+" << result.conflicts_truncated
              << " conflict triple(s) beyond reporting cap)\n";
  }
  std::cout << "  " << result.stats.threads << " thread(s), "
            << result.stats.shard_count << " shard(s), max frontier "
            << result.stats.max_frontier << ", "
            << format_double(result.stats.states_per_second, 0)
            << " states/s\n";
  std::cout << "  " << cache.stats().summary() << '\n';

  // Witness handling: print the trace, replay it through petri::fire and
  // confirm it reaches the claimed marking (the CLI test greps for
  // "witness replays").
  const auto show_witness = [&](const char* what,
                                const petri::Marking& marking,
                                const std::vector<petri::TransitionId>&
                                    trace) {
    std::cout << what << " witness: " << marking_to_string(net, marking)
              << '\n';
    std::string steps;
    for (petri::TransitionId t : trace) {
      if (!steps.empty()) steps += ' ';
      steps += net.name(t);
    }
    std::cout << what << " trace (" << trace.size() << " step(s)): " << steps
              << '\n';
    const std::optional<petri::Marking> replayed =
        mc::replay_trace(net, trace);
    if (replayed.has_value() && *replayed == marking) {
      std::cout << what << " witness replays to the claimed marking\n";
    } else {
      std::cout << what << " witness FAILED to replay\n";
    }
    if (args.flag("--witness") || args.option("--witness").has_value()) {
      const std::string path =
          args.option("--witness").value_or("witness.txt");
      std::ostringstream os;
      os << what << " " << marking_to_string(net, marking) << '\n'
         << steps << '\n';
      write_file(path, os.str());
      std::cout << "witness written to " << path << '\n';
    }
  };
  if (result.unsafe_witness.has_value()) {
    show_witness("unsafe", *result.unsafe_witness, result.unsafe_trace);
  }
  if (result.deadlock_witness.has_value()) {
    show_witness("deadlock", *result.deadlock_witness,
                 result.deadlock_trace);
  }

  if (telemetry.collect_metrics()) {
    obs::publish_mc_stats(telemetry.metrics, result);
    obs::publish_analysis_stats(telemetry.metrics, cache.stats());
  }
  telemetry.note("engine", cache.stats().summary());

  // --expect mode: the exit status reports agreement with the stated
  // verdicts (the external-corpus tests pin published results this way),
  // not the usual "any violation" policy — an expected-unsafe net passes.
  if (const auto expect = args.option("--expect")) {
    std::vector<std::string> mismatches;
    if (!result.complete) {
      mismatches.push_back("run incomplete (" + result.cutoff_reason + ")");
    }
    for (const std::string& item : split(*expect, ',')) {
      const auto eq = item.find('=');
      if (eq == std::string::npos) {
        std::cerr << "bad --expect item '" << item << "'\n";
        return telemetry.finish(2);
      }
      const std::string key{trim(item.substr(0, eq))};
      const std::string want{trim(item.substr(eq + 1))};
      if (want == "-") continue;  // not pinned
      std::string got;
      if (key == "safe") {
        got = result.safe ? "yes" : "no";
      } else if (key == "bounded") {
        got = result.bounded ? "yes" : "no";
      } else if (key == "deadlock") {
        got = result.deadlock ? "yes" : "no";
      } else if (key == "terminates") {
        got = result.can_terminate ? "yes" : "no";
      } else if (key == "dead") {
        got = std::to_string(result.dead_transitions.size());
      } else if (key == "markings") {
        got = std::to_string(result.marking_count);
      } else if (key == "states") {
        got = std::to_string(result.state_count);
      } else {
        std::cerr << "unknown --expect key '" << key << "'\n";
        return telemetry.finish(2);
      }
      if (got != want) {
        mismatches.push_back(key + ": expected " + want + ", got " + got);
      }
    }
    for (const std::string& m : mismatches) {
      std::cout << "expect MISMATCH " << m << '\n';
    }
    std::cout << (mismatches.empty() ? "expectations met"
                                     : "expectations FAILED")
              << '\n';
    telemetry.note("verdict", mismatches.empty() ? "expectations met"
                                                 : "expectations failed");
    return telemetry.finish(mismatches.empty() ? 0 : 1);
  }

  const bool violation = !result.complete || !result.safe ||
                         !result.bounded || result.deadlock ||
                         unguarded_conflicts > 0;
  std::cout << (violation ? "verification FAILED" : "verified") << '\n';
  telemetry.note("verdict", violation ? "verification failed" : "verified");
  return telemetry.finish(violation ? 1 : 0);
}

int cmd_import(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  gen::LiftOptions lift;
  if (const auto stub = args.option("--stub")) {
    if (*stub == "none") {
      lift.stub = gen::StubStyle::kNone;
    } else if (*stub == "reg") {
      lift.stub = gen::StubStyle::kRegisterPerState;
    } else {
      std::cerr << "unknown stub style '" << *stub
                << "' (expected none or reg)\n";
      return 2;
    }
  }
  const std::string text = read_file(args.file);
  dcf::System system;
  if (starts_with(trim(text), "<")) {
    const petri::PnmlImport imported = petri::from_pnml(text);
    const std::string name =
        !imported.net_id.empty() ? imported.net_id : file_stem(args.file);
    system = gen::lift_control_net(imported.net, lift, name);
    std::cout << name << ": imported " << imported.net.place_count()
              << " place(s), " << imported.net.transition_count()
              << " transition(s)"
              << (imported.net.is_ordinary() ? "" : " (weighted arcs)")
              << '\n';
    if (telemetry.collect_metrics()) {
      telemetry.metrics.set("import.places",
                            static_cast<double>(imported.net.place_count()));
      telemetry.metrics.set(
          "import.transitions",
          static_cast<double>(imported.net.transition_count()));
    }
  } else {
    system = load_any(args.file);
  }
  // Prime the (cheap, structural) order analysis so import reports the
  // same engine-summary line as sim/verify/optimize.
  const semantics::AnalysisCache cache(system);
  cache.order();
  std::cout << "  " << cache.stats().summary() << '\n';
  if (const auto path = args.option("--export-pnml")) {
    write_file(*path, petri::to_pnml(system.control().net(), system.name()));
    std::cout << "pnml written to " << *path << '\n';
    // Export-only unless a .sys destination was also requested.
    if (!args.option("--out").has_value()) return telemetry.finish(0);
  }
  const std::string out =
      args.option("--out").value_or(system.name() + ".sys");
  write_file(out, dcf::save_system(system));
  std::cout << "system written to " << out << '\n';
  return telemetry.finish(0);
}

int cmd_report(const Args& args) {
  Telemetry telemetry(args, /*bare_trace_is_chrome=*/true);
  const dcf::System system = load_any(args.file);
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  synth::CriticalPathOptions cp;
  cp.loop_trip_count = args.real("--trips").value_or(cp.loop_trip_count);

  std::size_t fus = 0, registers = 0, constants = 0;
  for (dcf::VertexId v : system.datapath().vertices()) {
    if (system.datapath().kind(v) != dcf::VertexKind::kInternal) continue;
    bool is_reg = false, is_const = false;
    for (dcf::PortId o : system.datapath().output_ports(v)) {
      is_reg |= system.datapath().operation(o).code == dcf::OpCode::kReg;
      is_const |= system.datapath().operation(o).code == dcf::OpCode::kConst;
    }
    if (is_reg) ++registers;
    else if (is_const) ++constants;
    else ++fus;
  }
  Table table({"metric", "value"});
  table.add_row({"control states",
                 std::to_string(system.control().net().place_count())});
  table.add_row({"transitions",
                 std::to_string(system.control().net().transition_count())});
  table.add_row({"functional units", std::to_string(fus)});
  table.add_row({"registers", std::to_string(registers)});
  table.add_row({"constants", std::to_string(constants)});
  table.add_row({"arcs", std::to_string(system.datapath().arc_count())});
  const synth::AreaReport area = synth::estimate_area(system, lib);
  table.add_row({"area (gates)", format_double(area.total(), 0)});
  const synth::TimingReport timing = synth::estimate_cycle_time(system, lib);
  table.add_row({"cycle time (ns)", format_double(timing.cycle_time, 1)});
  std::cout << system.name() << '\n' << table.to_string();

  const synth::CriticalPathResult path =
      synth::critical_path(system, lib, cp);
  std::cout << path.to_string(system) << '\n';

  std::cout << "control net class: "
            << petri::classify(system.control().net()).to_string() << '\n';
  std::cout << "schedule bounds:\n"
            << synth::analyze_schedules(system).to_string(system);
  return telemetry.finish(0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << kUsage;
    return 2;
  }
  install_signal_handlers();
  try {
    if (args->command == "check") return cmd_check(*args);
    if (args->command == "compile") return cmd_compile(*args);
    if (args->command == "transform") return cmd_transform(*args);
    if (args->command == "synth" || args->command == "optimize") {
      return cmd_synth(*args);
    }
    if (args->command == "sim" || args->command == "simulate") {
      return cmd_sim(*args);
    }
    if (args->command == "verify") return cmd_verify(*args);
    if (args->command == "report") return cmd_report(*args);
    if (args->command == "import") return cmd_import(*args);
    std::cerr << kUsage;
    return 2;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << '\n' << kUsage;
    return 2;
  } catch (const ParseError& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
