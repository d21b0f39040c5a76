// Uniform pass interface over the Section 4 transformations.
//
// Each transformation becomes a Pass that (1) names itself, (2) declares
// via PreservedAnalyses which analyses of its input survive into its
// output, and (3) runs against a shared semantics::AnalysisCache instead
// of recomputing reachability / order / dependence privately. A
// PassPipeline threads one cache through a pass sequence — after every
// pass the declared-preserved analyses carry over — and records per-pass
// wall-clock, state/vertex deltas, transformation counters, and the
// aggregate cache hit rate. `camadc transform --passes=a,b,c
// --print-pass-stats` exposes the same machinery on the command line.
//
// Declarations are not trusted: tests/passes_test.cpp re-runs every pass
// and compares each carried analysis bit-for-bit with a fresh recompute
// on the output system.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "dcf/system.h"
#include "semantics/analysis.h"
#include "transform/provenance.h"

namespace camad::transform {

class Pass {
 public:
  virtual ~Pass() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Analyses of the *input* system still valid for the returned system.
  [[nodiscard]] virtual semantics::PreservedAnalyses preserves() const = 0;
  /// Applies the pass. `cache` is bound to `system`; implementations pull
  /// shared analyses from it instead of recomputing.
  [[nodiscard]] virtual dcf::System run(
      const dcf::System& system, const semantics::AnalysisCache& cache) = 0;
  /// Human-readable counters from the most recent run ("3 merger(s)");
  /// empty when the pass has none or has not run.
  [[nodiscard]] virtual std::string counters() const { return {}; }
};

/// Instantiates the registered pass called `name`. Throws TransformError,
/// listing registered_passes(), for unknown names.
[[nodiscard]] std::unique_ptr<Pass> make_pass(std::string_view name);
/// All registered pass names, in canonical order.
[[nodiscard]] std::vector<std::string_view> registered_passes();

struct PassStats {
  std::string name;
  double seconds = 0.0;
  std::size_t states_before = 0;
  std::size_t states_after = 0;
  std::size_t vertices_before = 0;
  std::size_t vertices_after = 0;
  std::string counters;  ///< pass-specific, possibly empty
};

class PassPipeline {
 public:
  PassPipeline() = default;

  PassPipeline& add(std::unique_ptr<Pass> pass);
  PassPipeline& add(std::string_view name);
  /// "parallelize,merge-all,cleanup" -> pipeline of registered passes.
  [[nodiscard]] static PassPipeline from_spec(std::string_view spec);

  /// Runs the passes in order, threading an AnalysisCache through the
  /// sequence: after each pass the analyses it declared preserved carry
  /// into the next pass's cache. Fills stats(). This is the seeded run
  /// below on a fresh cache bound to `initial`, whose counters
  /// cache_stats() includes.
  [[nodiscard]] dcf::System run(const dcf::System& initial);

  /// Same, but the *first* pass reads `seed` — an external long-lived
  /// cache bound to `initial` — instead of a private fresh one, so
  /// analyses some earlier client already paid for (the camadd shared
  /// tier) are reused. Successor caches are still pipeline-owned.
  /// cache_stats() counts only the pipeline-owned caches: `seed` has a
  /// lifetime beyond this run and its counters are the owner's to
  /// report.
  [[nodiscard]] dcf::System run(const dcf::System& initial,
                                const semantics::AnalysisCache& seed);

  [[nodiscard]] std::size_t size() const { return passes_.size(); }
  /// Per-pass statistics of the most recent run().
  [[nodiscard]] const std::vector<PassStats>& stats() const { return stats_; }
  /// Aggregate analysis-cache statistics of the most recent run().
  [[nodiscard]] const semantics::AnalysisCacheStats& cache_stats() const {
    return cache_stats_;
  }
  /// Transform chain of the most recent run(): one step per pass, its
  /// counters as the detail — the recipe that rebuilds run()'s output.
  [[nodiscard]] const Provenance& provenance() const { return provenance_; }
  /// Analyses of run()'s *input* still valid for its output: the
  /// intersection of every pass's declaration.
  [[nodiscard]] semantics::PreservedAnalyses preserves() const;
  /// Multi-line human-readable dump of stats() + cache_stats().
  [[nodiscard]] std::string stats_to_string() const;

 private:
  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<PassStats> stats_;
  semantics::AnalysisCacheStats cache_stats_;
  Provenance provenance_;
};

}  // namespace camad::transform
