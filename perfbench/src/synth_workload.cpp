// synth: the paper's synthesis loop over the design corpus. Per design,
// the `camadc synth` flow (synthesize: parse, fold, compile, check,
// greedy optimize, Def 4.1 re-verify, netlist) and then the `camadc
// optimize --strategy=pareto --generations 3` flow (compile, check,
// optimize_pareto with frontier verification). The seed only orders the
// designs.
#include <functional>
#include <iostream>

#include "dcf/check.h"
#include "fold.h"
#include "obs/trace.h"
#include "runs.h"
#include "semantics/equivalence.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/fold.h"
#include "synth/netlist.h"
#include "synth/optimizer.h"
#include "synth/parser.h"
#include "synth/synthesis.h"
#include "util/error.h"

namespace perfbench {
namespace {

using namespace camad;

struct Design {
  std::string name;
  std::string source;
};

// guarded_branch stays out: its Pareto search alone takes over a minute.
std::vector<Design> load_corpus(const Config& config) {
  std::vector<Design> corpus;
  for (const synth::NamedDesign& d : synth::all_designs()) {
    if (config.smoke && d.name != "gcd" && d.name != "parlab") continue;
    corpus.push_back({d.name, std::string(d.source)});
    // Inputs are checked before anything is timed.
    dcf::require_properly_designed(synth::compile_source(corpus.back().source));
  }
  return corpus;
}

/// `camadc synth`'s options, with the engine threads at the CPU count.
synth::SynthesisOptions synthesis_options(const Config& config) {
  synth::SynthesisOptions options;
  options.optimizer.measure.environments = 2;
  options.optimizer.eval_threads = config.threads;
  return options;
}

/// Generations of the Pareto search. ewf's whole search (32 generations,
/// about 13 s on 4 threads) would make a pass that fits only once in a
/// run; three generations keep every design's cold first generations and
/// let a run hold several passes.
constexpr std::size_t kParetoGenerations = 3;

/// `camadc optimize --strategy=pareto --generations 3`'s options, likewise.
synth::ParetoOptions pareto_options(const Config& config) {
  synth::ParetoOptions options;
  options.measure.environments = 2;
  options.eval_threads = config.threads;
  options.generations = config.smoke ? 2 : kParetoGenerations;
  return options;
}

/// The greedy result's 0.5·area/area₀ + 0.5·time/time₀.
double objective(const synth::OptimizerResult& r) {
  return 0.5 * r.final.area / r.initial.area +
         0.5 * r.final.time_ns / r.initial.time_ns;
}

/// Calls fn inside a span named `name` (a no-op unless tracing).
template <typename Fn>
decltype(auto) span(std::string_view name, Fn&& fn) {
  const obs::ObsSpan s(name);
  return fn();
}

struct Pass {
  double synth_s = 0;
  double pareto_s = 0;
  double objective = 0;
  double hypervolume = 0;
};

class SynthRun {
 public:
  SynthRun(const Config& config, Report& report)
      : config_(config),
        report_(report),
        synthesis_(synthesis_options(config)),
        pareto_(pareto_options(config)),
        library_(synth::ModuleLibrary::standard()) {}

  void setup() { corpus_ = load_corpus(config_); }

  /// One pass, untraced: both flows on every design, each call timed.
  Pass pass() {
    Pass out;
    for (const std::size_t i : seeded_order(corpus_.size(), config_.seed)) {
      const Design& d = corpus_[i];
      out.synth_s += op(d, "synthesize", [&] {
        out.objective += objective(
            synth::synthesize(d.source, synthesis_).optimization);
      });
      out.pareto_s += op(d, "pareto", [&] {
        const dcf::System serial = synth::compile_source(d.source);
        dcf::require_properly_designed(serial);
        const synth::ParetoResult result =
            synth::optimize_pareto(serial, library_, pareto_);
        if (result.verified_points != result.frontier.size()) {
          report_.mismatch(d.name + ": " +
                           std::to_string(result.frontier.size() -
                                          result.verified_points) +
                           " frontier point(s) not verified");
        }
        out.hypervolume += result.hypervolume;
      });
    }
    return out;
  }

  /// One traced pass: synthesize's pieces called one by one, each in its
  /// own span, and the Pareto flow with frontier verification done here.
  /// Returns the wall time of the flows, folding excluded.
  double traced_pass(Fold& fold, Pass& quality) {
    double wall = 0;
    sim::SimStats sim_stats;
    semantics::AnalysisCacheStats analysis;
    std::size_t candidates = 0;
    std::size_t generations = 0;
    std::size_t dedup = 0;
    std::size_t pareto_candidates = 0;
    const auto traced = [&](const std::function<void()>& flow) {
      obs::TraceSession session;
      session.activate();
      const Clock::time_point t0 = Clock::now();
      {
        const obs::ObsSpan root("bench.synth");
        flow();
      }
      wall += seconds_since(t0);
      session.deactivate();
      fold.merge(fold_session(session));
    };
    for (const std::size_t i : seeded_order(corpus_.size(), config_.seed)) {
      const Design& d = corpus_[i];
      traced([&] {
        const synth::SynthesisOptions& o = synthesis_;
        synth::Program program = span("synth.parse_program", [&] {
          return synth::parse_program(d.source);
        });
        span("synth.fold_constants",
             [&] { return synth::fold_constants(program); });
        const dcf::System serial =
            span("synth.compile", [&] { return synth::compile(program); });
        span("dcf.check",
             [&] { dcf::require_properly_designed(serial, o.check); });
        const synth::OptimizerResult result = span("synth.optimize", [&] {
          return synth::optimize(serial, o.library, o.optimizer);
        });
        span("dcf.check",
             [&] { dcf::require_properly_designed(result.best, o.check); });
        semantics::DifferentialOptions diff;
        diff.environments = 4;
        diff.value_lo = o.optimizer.measure.value_lo;
        diff.value_hi = o.optimizer.measure.value_hi;
        diff.sim.max_cycles = o.optimizer.measure.max_cycles;
        verify(d, "greedy result", serial, result.best, diff);
        span("synth.emit_netlist",
             [&] { return synth::emit_netlist(result.best, o.library); });
        quality.objective += objective(result);
        sim_stats += result.sim_stats;
        analysis += result.analysis_stats;
        candidates += result.candidates_evaluated;
      });
      traced([&] {
        const synth::Program program = span("synth.parse_program", [&] {
          return synth::parse_program(d.source);
        });
        const dcf::System serial =
            span("synth.compile", [&] { return synth::compile(program); });
        span("dcf.check", [&] { dcf::require_properly_designed(serial); });
        synth::ParetoOptions options = pareto_;
        options.verify_frontier = false;
        const synth::ParetoResult result =
            span("synth.optimize_pareto", [&] {
              return synth::optimize_pareto(serial, library_, options);
            });
        for (const synth::FrontierPoint& point : result.frontier) {
          verify(d, "frontier point", serial, point.scheduled,
                 options.verify);
        }
        quality.hypervolume += result.hypervolume;
        sim_stats += result.sim_stats;
        analysis += result.analysis_stats;
        candidates += result.candidates_evaluated;
        pareto_candidates += result.candidates_evaluated;
        generations += result.generations_run;
        dedup += result.dedup_hits;
      });
    }
    auto& m = report_.layers;
    m["synth.candidates"] = static_cast<double>(candidates);
    m["synth.generations"] = static_cast<double>(generations);
    m["synth.dedup_share"] =
        dedup + pareto_candidates == 0
            ? 0.0
            : static_cast<double>(dedup) /
                  static_cast<double>(dedup + pareto_candidates);
    m["sim.plan_compiles"] = static_cast<double>(sim_stats.plan_cache_misses);
    const double lookups = static_cast<double>(sim_stats.plan_cache_hits +
                                               sim_stats.plan_cache_misses);
    m["sim.plan_hit_rate"] =
        lookups == 0
            ? 0.0
            : static_cast<double>(sim_stats.plan_cache_hits) / lookups;
    m["semantics.analysis_hit_rate"] = analysis.hit_rate();
    return wall;
  }

 private:
  /// The production Def 4.1 check, in its own span.
  void verify(const Design& d, const char* what, const dcf::System& serial,
              const dcf::System& candidate,
              const semantics::DifferentialOptions& options) {
    const semantics::EquivalenceVerdict verdict =
        span("semantics.differential_equivalence", [&] {
          return semantics::differential_equivalence(serial, candidate,
                                                     options);
        });
    if (!verdict.holds) {
      report_.mismatch(d.name + ": " + what + " fails Def 4.1: " +
                       verdict.why);
    }
  }

  /// Times one user-visible operation. A TransformError is a correctness
  /// failure (Def 4.1 rejected a result); anything else thrown is a
  /// failed operation.
  double op(const Design& d, const char* flow,
            const std::function<void()>& fn) {
    ++report_.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      fn();
    } catch (const TransformError& e) {
      report_.mismatch(d.name + " " + flow + ": " + e.what());
    } catch (const std::exception& e) {
      ++report_.failed;
      std::cerr << d.name << ' ' << flow << " failed: " << e.what() << '\n';
    }
    return seconds_since(t0);
  }

  const Config& config_;
  Report& report_;
  const synth::SynthesisOptions synthesis_;
  const synth::ParetoOptions pareto_;
  const synth::ModuleLibrary library_;
  std::vector<Design> corpus_;
};

}  // namespace

void run_synth(const Config& config, Report& report) {
  SynthRun run(config, report);
  // Set-up compiles and checks the corpus, a few milliseconds: sampled
  // again after every timed pass.
  std::vector<double> setup_cpu;
  const auto setup = [&] { run.setup(); };
  sample_setup(config.smoke ? 1 : 15, setup, setup_cpu);
  if (!config.trace) {
    std::vector<Pass> passes;
    report.passes =
        timed_passes(config.seconds, [&] { passes.push_back(run.pass()); },
                     [&] { sample_setup(10, setup, setup_cpu); });
    report.setup_s = median(setup_cpu);
    report.peak_rss_mb = peak_rss_mb();
    std::vector<double> synth_s;
    std::vector<double> pareto_s;
    for (const Pass& p : passes) {
      synth_s.push_back(p.synth_s);
      pareto_s.push_back(p.pareto_s);
    }
    // The quality sums are deterministic: a pass that disagrees with the
    // first is a nondeterminism bug. When only one pass fit in the run,
    // one more runs untimed so that there is something to compare.
    std::vector<Pass> compared = passes;
    if (compared.size() == 1) compared.push_back(run.pass());
    for (const Pass& p : compared) {
      if (p.objective != compared.front().objective ||
          p.hypervolume != compared.front().hypervolume) {
        report.mismatch("synth quality differs between passes");
      }
    }
    report.figure("synth_s", median(synth_s), "s");
    report.figure("pareto_s", median(pareto_s), "s");
    report.figure("synth_objective", passes.front().objective, "sum");
    report.figure("pareto_hypervolume", passes.front().hypervolume, "sum");
    return;
  }

  // Traced run: one untraced pass as the overhead baseline, then one
  // traced pass.
  const Clock::time_point t0 = Clock::now();
  const Pass untraced = run.pass();
  const double untraced_s = seconds_since(t0);
  Fold fold;
  Pass quality;
  const double traced_s = run.traced_pass(fold, quality);
  if (quality.objective != untraced.objective ||
      quality.hypervolume != untraced.hypervolume) {
    report.mismatch("synth quality differs between the flow and its pieces");
  }
  auto& m = report.layers;
  m["obs.trace_overhead"] = traced_s / untraced_s - 1;
  m["synth.objective"] = quality.objective;
  m["synth.hypervolume"] = quality.hypervolume;
  m["synth.parse_s"] = fold.total_s("synth.parse_program");
  m["synth.compile_s"] =
      fold.total_s("synth.fold_constants") + fold.total_s("synth.compile");
  m["dcf.check_s"] = fold.total_s("dcf.check");
  m["synth.expand_s"] = fold.self_s("pareto.expand");
  m["synth.measure_s"] = fold.self_s("pareto.measure");
  m["synth.select_s"] = fold.self_s("pareto.generation") + fold.self_s("pareto");
  m["synth.greedy_s"] = fold.total_s("synth.optimize");
  m["sim.cycle_loop_s"] = fold.self_prefix_s("sim.run");
  m["sim.runs"] = static_cast<double>(fold.count_prefix("sim.run"));
  m["sim.compile_plan_s"] = fold.self_s("sim.compile_plan");
  m["transform.parallelize_s"] = fold.self_s("transform.parallelize");
  m["transform.cleanup_s"] = fold.self_s("transform.cleanup");
  m["transform.passes_s"] = fold.self_prefix_s("pass.");
  m["semantics.dependence_s"] = fold.self_s("analysis.dependence");
  m["semantics.verify_s"] = fold.total_s("semantics.differential_equivalence");
  add_shares(report, layer_self_s(fold));
}

}  // namespace perfbench
