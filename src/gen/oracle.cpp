#include "gen/oracle.h"

#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "dcf/check.h"
#include "dcf/io.h"
#include "gen/program.h"
#include "gen/shrink.h"
#include "gen/sysgen.h"
#include "mc/checker.h"
#include "petri/export.h"
#include "petri/pnml.h"
#include "petri/reachability.h"
#include "obs/trace.h"
#include "semantics/analysis.h"
#include "semantics/equivalence.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "synth/ast.h"
#include "synth/compile.h"
#include "synth/fold.h"
#include "synth/parser.h"
#include "transform/chain.h"
#include "transform/cleanup.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "transform/passes.h"
#include "transform/regshare.h"
#include "util/error.h"
#include "util/rng.h"

namespace camad::gen {
namespace {

/// A battery stage failed: abort the seed with (stage, detail).
struct StageFailure {
  std::string stage;
  std::string detail;
};

std::string describe(const std::exception& e) { return e.what(); }

// --- engine differential ----------------------------------------------------

std::string compare_results(const sim::SimResult& ref,
                            const sim::SimResult& com) {
  std::ostringstream os;
  if (ref.cycles != com.cycles) {
    os << "cycles " << ref.cycles << " vs " << com.cycles;
    return os.str();
  }
  if (ref.terminated != com.terminated || ref.deadlocked != com.deadlocked) {
    os << "terminated/deadlocked " << ref.terminated << "/" << ref.deadlocked
       << " vs " << com.terminated << "/" << com.deadlocked;
    return os.str();
  }
  if (ref.violations != com.violations) {
    return "runtime violation lists differ";
  }
  if (ref.final_registers != com.final_registers) {
    return "final register states differ";
  }
  const std::vector<sim::ExternalEvent>& ref_events = ref.trace.events();
  const std::vector<sim::ExternalEvent>& com_events = com.trace.events();
  if (ref_events.size() != com_events.size()) {
    return "event counts differ";
  }
  for (std::size_t i = 0; i < ref_events.size(); ++i) {
    if (ref_events[i] != com_events[i]) {
      os << "events diverge at event " << i << " (cycle "
         << ref_events[i].cycle << ")";
      return os.str();
    }
  }
  if (ref.trace.cycles.size() != com.trace.cycles.size()) {
    return "trace lengths differ";
  }
  for (std::size_t i = 0; i < ref.trace.cycles.size(); ++i) {
    if (ref.trace.cycles[i] != com.trace.cycles[i]) {
      os << "trace diverges at cycle " << ref.trace.cycles[i].cycle;
      return os.str();
    }
  }
  return {};
}

/// The plan engine must be bit-identical to kReference under every
/// policy. The battery only reaches this stage on properly-designed
/// systems (the "check" stage runs first), so the improper-design
/// carve-out — where divergence is tolerated — is exercised by the
/// dedicated unit tests, not by the sweep.
void engine_differential(const dcf::System& system, std::uint64_t seed) {
  const obs::ObsSpan span("oracle.engines");
  const sim::FiringPolicy policies[] = {sim::FiringPolicy::kMaximalStep,
                                        sim::FiringPolicy::kRandomOrder};
  for (std::size_t e = 0; e < kOracleEnvironments; ++e) {
    for (const sim::FiringPolicy policy : policies) {
      sim::Environment env = sim::Environment::random_for(
          system, seed * 1315423911ULL + e, kOracleStreamLength, 0, 99);
      sim::SimOptions so;
      so.max_cycles = kOracleMaxCycles;
      so.policy = policy;
      so.seed = seed + e;
      so.record_cycles = true;  // per-cycle records, registers included

      so.engine = sim::SimEngine::kReference;
      const sim::SimResult ref = sim::simulate(system, env, so);
      env.rewind();
      so.engine = sim::SimEngine::kCompiled;
      const sim::SimResult com = sim::simulate(system, env, so);

      const std::string diff = compare_results(ref, com);
      if (!diff.empty()) {
        throw StageFailure{"engines",
                           "env " + std::to_string(e) + " policy " +
                               std::to_string(static_cast<int>(policy)) +
                               ": " + diff};
      }
    }
  }
}

// --- transformation chain ---------------------------------------------------

/// The passes a chain draws from: the name `transform::make_pass` and
/// `camadc transform --passes` take, and the direct entry point.
struct Pass {
  const char* name;
  dcf::System (*apply)(const dcf::System&);
};

const Pass kPasses[] = {
    {"parallelize",
     [](const dcf::System& s) { return transform::parallelize(s); }},
    {"merge-all",
     [](const dcf::System& s) { return transform::merge_all(s); }},
    {"regshare",
     [](const dcf::System& s) { return transform::share_registers(s); }},
    {"chain",
     [](const dcf::System& s) { return transform::chain_states(s); }},
    {"cleanup",
     [](const dcf::System& s) { return transform::cleanup_control(s); }},
};

/// Passes per random transformation chain.
constexpr std::size_t kMaxTransformSteps = 3;

semantics::DifferentialOptions differential_options(std::uint64_t seed) {
  semantics::DifferentialOptions d;
  d.environments = kOracleEnvironments;
  d.seed = seed * 2654435761ULL + 17;
  d.stream_length = kOracleStreamLength;
  d.sim.max_cycles = kOracleMaxCycles;
  return d;
}

/// Applies a seed-derived chain of passes; after every pass the checker
/// must stay green and the result must stay observationally equivalent
/// to the *untransformed* system.
void transform_chain(const dcf::System& original, std::uint64_t seed,
                     bool use_pass_pipeline) {
  const obs::ObsSpan span("oracle.transforms");
  Rng rng(seed ^ 0x7472616e73666fULL);
  const std::size_t steps = 1 + rng.below(kMaxTransformSteps);
  dcf::System current = original;
  // Pipeline route: one cache threaded across the chain; each pass's
  // declared-preserved analyses carry over, and the checker below reads
  // the carried results.
  std::optional<semantics::AnalysisCache> cache;
  if (use_pass_pipeline) cache.emplace(current);
  std::string chain;
  for (std::size_t i = 0; i < steps; ++i) {
    const Pass& pass = kPasses[rng.below(std::size(kPasses))];
    chain += (chain.empty() ? "" : " -> ") + std::string(pass.name);
    try {
      if (cache.has_value()) {
        const std::unique_ptr<transform::Pass> registered =
            transform::make_pass(pass.name);
        dcf::System next = registered->run(current, *cache);
        current = std::move(next);
        cache = cache->successor(current, registered->preserves());
      } else {
        current = pass.apply(current);
      }
    } catch (const Error& e) {
      throw StageFailure{"transforms", chain + " threw: " + describe(e)};
    }
    const dcf::CheckReport report =
        cache.has_value() ? dcf::check_properly_designed(current, *cache)
                          : dcf::check_properly_designed(current);
    if (!report.ok()) {
      throw StageFailure{"transforms",
                         chain + " broke the checker: " + report.to_string()};
    }
    const semantics::EquivalenceVerdict verdict =
        semantics::differential_equivalence(original, current,
                                            differential_options(seed + i));
    if (!verdict.holds) {
      throw StageFailure{"transforms",
                         chain + " changed observable behaviour: " +
                             verdict.why};
    }
  }
}

// --- model-checker cross-check ----------------------------------------------

/// Replays a witness trace and demands it reaches the claimed marking.
void require_witness_replays(const petri::Net& net, const char* what,
                             const std::optional<petri::Marking>& witness,
                             const std::vector<petri::TransitionId>& trace) {
  if (!witness.has_value()) return;
  const std::optional<petri::Marking> replayed =
      mc::replay_trace(net, trace);
  if (!replayed.has_value()) {
    throw StageFailure{"mc", std::string(what) +
                                 " witness trace has a disabled step"};
  }
  if (!(*replayed == *witness)) {
    throw StageFailure{"mc", std::string(what) +
                                 " witness trace replays to a different "
                                 "marking"};
  }
}

/// Stage "mc": the model checker vs the petri explorer on one system.
void mc_crosscheck_stage(const dcf::System& system) {
  const obs::ObsSpan span("oracle.mc");
  const petri::Net& net = system.control().net();
  const petri::ReachabilityOptions ro;

  mc::McOptions mo;
  mo.max_states = ro.max_markings;
  mo.token_bound = ro.token_bound;
  const mc::McResult bare = mc::model_check(net, mo);
  const mc::McResult guarded = mc::model_check(system, mo);
  require_witness_replays(net, "bare unsafe", bare.unsafe_witness,
                          bare.unsafe_trace);
  require_witness_replays(net, "bare deadlock", bare.deadlock_witness,
                          bare.deadlock_trace);
  require_witness_replays(net, "guarded unsafe", guarded.unsafe_witness,
                          guarded.unsafe_trace);
  require_witness_replays(net, "guarded deadlock",
                          guarded.deadlock_witness, guarded.deadlock_trace);

  // Unguarded mc must reproduce the petri explorer bit-for-bit. The two
  // stop at different granularities when the budget bites (mid-expansion
  // vs level boundary), so verdicts are only comparable on complete runs.
  const petri::ConcurrencyRelation ref =
      petri::concurrent_places_bounded(net, ro);
  if (ref.exploration.complete && bare.complete) {
    const petri::ReachabilityResult& re = ref.exploration;
    if (bare.safe != re.safe || bare.bounded != re.bounded ||
        bare.deadlock != re.deadlock ||
        bare.can_terminate != re.can_terminate ||
        bare.marking_count != re.marking_count) {
      throw StageFailure{
          "mc", "unguarded mc verdicts diverge from petri::explore"};
    }
    if (bare.concurrency != ref.concurrent) {
      throw StageFailure{
          "mc",
          "unguarded mc concurrency diverges from concurrent_places"};
    }
  }

  // The guard-aware run is a refinement: it explores a subset of the
  // unguarded markings, so safety is implied and every relation shrinks.
  if (bare.complete && guarded.complete) {
    if (bare.safe && !guarded.safe) {
      throw StageFailure{"mc",
                         "unguarded-safe but guard-aware run is unsafe"};
    }
    if (guarded.marking_count > bare.marking_count) {
      throw StageFailure{"mc", "guard-aware run visited more markings (" +
                                   std::to_string(guarded.marking_count) +
                                   ") than the unguarded run (" +
                                   std::to_string(bare.marking_count) +
                                   ")"};
    }
    for (std::size_t i = 0; i < guarded.concurrency.size(); ++i) {
      if (guarded.concurrency[i] && !bare.concurrency[i]) {
        throw StageFailure{
            "mc", "guard-aware concurrency is not a subset of unguarded"};
      }
    }
  }
}

// --- per-level batteries ----------------------------------------------------

/// Battery re-runs a failing seed's shrinker may spend.
constexpr std::size_t kMaxShrinkAttempts = 400;

/// The stages both levels run on the materialized system.
void run_system_stages(const dcf::System& system, std::uint64_t seed,
                       const OracleOptions& opt) {
  {
    const obs::ObsSpan span("oracle.check");
    const dcf::CheckReport report = dcf::check_properly_designed(system);
    if (!report.ok()) {
      throw StageFailure{"check", report.to_string()};
    }
  }
  if (opt.mc_crosscheck) mc_crosscheck_stage(system);
  engine_differential(system, seed);
  transform_chain(system, seed, opt.use_pass_pipeline);
}

/// Program level: compile, roundtrip, the system stages, fold.
void run_battery(const synth::Program& program, std::uint64_t seed,
                 const OracleOptions& opt) {
  std::string source;
  dcf::System system = [&] {
    const obs::ObsSpan span("oracle.compile");
    try {
      source = synth::to_source(program);
      return synth::compile(program);
    } catch (const Error& e) {
      throw StageFailure{"compile", describe(e)};
    }
  }();

  {
    const obs::ObsSpan span("oracle.roundtrip");
    try {
      const synth::Program reparsed = synth::parse_program(source);
      if (synth::to_source(reparsed) != source) {
        throw StageFailure{"roundtrip", "print -> parse -> print moved"};
      }
      (void)synth::compile(reparsed);
    } catch (const Error& e) {
      throw StageFailure{"roundtrip", describe(e)};
    }
  }

  run_system_stages(system, seed, opt);

  const obs::ObsSpan span("oracle.fold");
  try {
    synth::Program folded = clone_program(program);
    (void)synth::fold_constants(folded);
    const dcf::System folded_system = synth::compile(folded);
    const semantics::EquivalenceVerdict verdict =
        semantics::differential_equivalence(system, folded_system,
                                            differential_options(seed));
    if (!verdict.holds) {
      throw StageFailure{"fold", "folded program diverges: " + verdict.why};
    }
  } catch (const Error& e) {
    throw StageFailure{"fold", describe(e)};
  }
}

/// System level: build, the system stages, io, pnml.
void run_battery(const SysPlan& plan, std::uint64_t seed,
                 const OracleOptions& opt) {
  const dcf::System system = [&] {
    const obs::ObsSpan span("oracle.build");
    try {
      return build_system(plan, "gensys_" + std::to_string(seed));
    } catch (const Error& e) {
      throw StageFailure{"build", describe(e)};
    }
  }();

  run_system_stages(system, seed, opt);

  {
    const obs::ObsSpan span("oracle.io");
    try {
      const std::string text = dcf::save_system(system);
      const dcf::System loaded = dcf::load_system(text);
      if (dcf::save_system(loaded) != text) {
        throw StageFailure{"io", "re-serialization is not a fixpoint"};
      }
      const semantics::EquivalenceVerdict verdict =
          semantics::differential_equivalence(system, loaded,
                                              differential_options(seed));
      if (!verdict.holds) {
        throw StageFailure{"io", "loaded system diverges: " + verdict.why};
      }
    } catch (const Error& e) {
      throw StageFailure{"io", describe(e)};
    }
  }

  const obs::ObsSpan span("oracle.pnml");
  try {
    const petri::Net& net = system.control().net();
    const std::string text = petri::to_pnml(net, system.name());
    const petri::PnmlImport imported = petri::from_pnml(text);
    if (!petri::same_structure(imported.net, net)) {
      throw StageFailure{"pnml", "from_pnml(to_pnml(net)) is not isomorphic"};
    }
    if (petri::to_pnml(imported.net, system.name()) != text) {
      throw StageFailure{"pnml", "re-export is not a byte-exact fixpoint"};
    }
  } catch (const Error& e) {
    throw StageFailure{"pnml", describe(e)};
  }
}

std::string artifact(const synth::Program& program) {
  return synth::to_source(program);
}
std::string artifact(const SysPlan& plan) { return plan_to_string(plan); }

synth::Program shrink(const synth::Program& program,
                      const ProgramPredicate& still_fails) {
  return shrink_program(program, still_fails, kMaxShrinkAttempts);
}
SysPlan shrink(const SysPlan& plan, const PlanPredicate& still_fails) {
  return shrink_plan(plan, still_fails, kMaxShrinkAttempts);
}

/// The battery on one input: its first failing stage, or any stray
/// exception, becomes the outcome.
template <typename Input>
OracleOutcome run_oracle(const Input& input, std::uint64_t seed,
                         OracleLevel level, const OracleOptions& opt) {
  OracleOutcome out;
  out.seed = seed;
  out.level = level;
  try {
    run_battery(input, seed, opt);
  } catch (const StageFailure& f) {
    out.ok = false;
    out.stage = f.stage;
    out.detail = f.detail;
  } catch (const std::exception& e) {
    out.ok = false;
    out.stage = "unexpected";
    out.detail = describe(e);
  }
  return out;
}

/// Generated input -> battery -> (on failure) shrink under "fails at the
/// same stage" -> battery on the shrunk input. The outcome's artifact is
/// the input its verdict is about.
template <typename Input>
OracleOutcome drive(const Input& input, std::uint64_t seed, OracleLevel level,
                    const OracleOptions& opt) {
  OracleOutcome out = run_oracle(input, seed, level, opt);
  if (out.ok || !opt.shrink_failures) {
    out.artifact = artifact(input);
    return out;
  }
  const Input shrunk = shrink(input, [&](const Input& candidate) {
    const OracleOutcome o = run_oracle(candidate, seed, level, opt);
    return !o.ok && o.stage == out.stage;
  });
  out = run_oracle(shrunk, seed, level, opt);
  out.artifact = artifact(shrunk);
  return out;
}

}  // namespace

std::string_view level_name(OracleLevel level) {
  return level == OracleLevel::kProgram ? "program" : "system";
}

std::string OracleOutcome::to_string() const {
  std::ostringstream os;
  os << "seed " << seed << " [" << level_name(level) << "] ";
  if (ok) {
    os << "ok";
  } else {
    os << "FAILED at " << stage << ": " << detail;
    if (!artifact.empty()) os << "\n--- shrunk artifact ---\n" << artifact;
  }
  return os.str();
}

std::string OracleOutcome::corpus_line() const {
  std::ostringstream os;
  os << level_name(level) << ' ' << seed;
  if (!ok) {
    os << "  # " << stage;
    const std::string first = detail.substr(0, detail.find('\n'));
    if (!first.empty()) os << ": " << first;
  }
  return os.str();
}

OracleOutcome run_seed(std::uint64_t seed, OracleLevel level,
                       const OracleOptions& options) {
  const obs::ObsSpan seed_span("oracle.seed", [&] {
    return "{\"seed\":" + std::to_string(seed) + ",\"level\":\"" +
           std::string(level_name(level)) + "\"}";
  });
  if (level == OracleLevel::kProgram) {
    return drive(random_program(seed), seed, level, options);
  }
  Rng rng(seed);
  return drive(random_plan(rng), seed, level, options);
}

std::vector<OracleOutcome> run_seed_range(std::uint64_t first,
                                          std::size_t count,
                                          const OracleOptions& options) {
  std::vector<OracleOutcome> failures;
  for (std::size_t i = 0; i < count; ++i) {
    for (const OracleLevel level :
         {OracleLevel::kProgram, OracleLevel::kSystem}) {
      OracleOutcome out = run_seed(first + i, level, options);
      if (!out.ok) failures.push_back(std::move(out));
    }
  }
  return failures;
}

std::vector<CorpusEntry> parse_corpus(const std::string& text) {
  std::vector<CorpusEntry> out;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') continue;
    std::istringstream fields(line.substr(start));
    std::string level_word;
    std::uint64_t seed = 0;
    if (!(fields >> level_word >> seed)) {
      throw ModelError("corpus line " + std::to_string(lineno) +
                       ": expected '<level> <seed>', got '" + line + "'");
    }
    CorpusEntry entry;
    if (level_word == "program") {
      entry.level = OracleLevel::kProgram;
    } else if (level_word == "system") {
      entry.level = OracleLevel::kSystem;
    } else {
      throw ModelError("corpus line " + std::to_string(lineno) +
                       ": unknown level '" + level_word + "'");
    }
    entry.seed = seed;
    std::string rest;
    std::getline(fields, rest);
    const std::size_t hash = rest.find('#');
    if (hash != std::string::npos) {
      const std::size_t note = rest.find_first_not_of(" \t", hash + 1);
      if (note != std::string::npos) entry.note = rest.substr(note);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::vector<CorpusEntry> load_corpus_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read corpus file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_corpus(buffer.str());
}

}  // namespace camad::gen
