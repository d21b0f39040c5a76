// Metamorphic transformation oracles over generated systems.
//
// For each seed, the harness draws a properly-designed-by-construction
// input (a BDL program or a DCF plan), materializes the System, and runs
// a fixed battery of oracles, each of which must hold for *every*
// generated input:
//
//   roundtrip   (program level) pretty-print -> parse -> re-print is a
//               fixpoint, and the reparsed program compiles;
//   check       check_properly_designed reports no violations;
//   engines     SimEngine::kReference and SimEngine::kCompiled produce
//               bit-identical results (trace, termination, violations,
//               final registers) under identical environments — PR 1's
//               differential contract, quantified over generated systems;
//   transforms  a seed-derived random chain of up to three semantics-
//               preserving passes (parallelize, merge-all, regshare,
//               chain, cleanup) keeps the checker green at every step
//               and preserves the external event structure
//               (semantics::differential_equivalence against the
//               untransformed system);
//   fold        (program level) compiling the constant-folded program is
//               observationally equivalent to compiling the original;
//   io          (system level) save_system -> load_system round-trips to
//               an equivalent, re-serialization-stable system;
//   pnml        (system level) to_pnml -> from_pnml reconstructs a
//               structurally identical control net and re-export is a
//               byte-exact fixpoint.
//
// Every stage runs on every seed; only the mc cross-check (stage "mc")
// waits to be asked for. A failing seed is minimized with gen/shrink.h
// under a predicate that reruns the battery and demands the *same stage*
// fail, then reported with a ready-to-check-in corpus line and a
// human-readable artifact (shrunk BDL source / plan s-expression).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace camad::gen {

enum class OracleLevel : std::uint8_t {
  kProgram,  ///< BDL generator -> synth::compile front door
  kSystem,   ///< SysPlan generator -> dcf::SystemBuilder back door
};

std::string_view level_name(OracleLevel level);

/// Bounds of every simulation the battery runs. Generated systems are
/// small, so the environments and the cycle bound are tight. The stream
/// length is generous on purpose: equivalence of the transformations is
/// assessed under *non-exhausting* environments (the Def 3.5 operating
/// contract regshare's definedness analysis assumes), so streams must
/// outlast every bounded loop of a generated system.
constexpr std::size_t kOracleEnvironments = 2;
constexpr std::size_t kOracleStreamLength = 256;
constexpr std::uint64_t kOracleMaxCycles = 5000;

struct OracleOptions {
  /// Route the transformation chain through transform::PassPipeline's
  /// machinery (registered passes + one AnalysisCache threaded across
  /// the chain via successor()) instead of direct calls. Same seeds draw
  /// the same chains either way, so the two routes are differential
  /// oracles for each other — and the cached route additionally stresses
  /// every pass's PreservedAnalyses declaration, because the checker and
  /// the equivalence oracle observe the carried analyses' consequences.
  bool use_pass_pipeline = false;
  /// Cross-check the mc model checker against the petri explorer on
  /// every generated system (stage "mc"): unguarded mc must reproduce
  /// petri::explore's verdicts and concurrency relation bit-for-bit,
  /// the guard-aware run must be a refinement of the unguarded one
  /// (fewer markings, subset concurrency, implied safety), and every
  /// witness trace must replay to its claimed marking.
  bool mc_crosscheck = false;
  /// Minimize failures before reporting (costs predicate re-runs).
  bool shrink_failures = true;
};

struct OracleOutcome {
  std::uint64_t seed = 0;
  OracleLevel level = OracleLevel::kProgram;
  bool ok = true;
  std::string stage;     ///< failing oracle ("check", "engines", ...)
  std::string detail;    ///< first divergence / violation / exception
  std::string artifact;  ///< shrunk BDL source or plan s-expression

  /// One-line rendering: "seed <n> [<level>] ok" or the failure summary.
  [[nodiscard]] std::string to_string() const;
  /// The corpus line that reproduces this failure (see parse_corpus).
  [[nodiscard]] std::string corpus_line() const;
};

/// Runs the battery on one seed at one level.
OracleOutcome run_seed(std::uint64_t seed, OracleLevel level,
                       const OracleOptions& options = {});

/// Runs both levels for each of `count` consecutive seeds; returns only
/// failures (empty result == all green). Deterministic in (first, count,
/// options).
std::vector<OracleOutcome> run_seed_range(std::uint64_t first,
                                          std::size_t count,
                                          const OracleOptions& options = {});

// --- seed corpus ------------------------------------------------------------
//
// tests/corpus/seeds.txt holds one line per registered counterexample:
//
//   <level> <seed> [# comment]
//
// with <level> in {program, system}. Blank lines and full-line comments
// (leading '#') are skipped.

struct CorpusEntry {
  OracleLevel level = OracleLevel::kProgram;
  std::uint64_t seed = 0;
  std::string note;
};

std::vector<CorpusEntry> parse_corpus(const std::string& text);
/// Reads and parses a corpus file; throws Error when unreadable.
std::vector<CorpusEntry> load_corpus_file(const std::string& path);

}  // namespace camad::gen
