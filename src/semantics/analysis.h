// Shared, memoized semantic analyses with an explicit invalidation
// protocol.
//
// Every transformation legality check in the repo consults the same few
// facts about a system: the reachability of its control net and the
// reachable place-concurrency relation (both from one state-space
// exploration), the structural order F⁺ (Def 2.3), the data dependence
// relation (Defs 4.2-4.4), and — for register sharing — the
// definedness-aware liveness analysis. Before this module each consumer
// recomputed them ad hoc, so a design-space exploration step paid
// O(candidates) reachability explorations for one unchanged control net.
//
// The state space comes from mc::model_check, the one state-space engine
// in production: reachability() and concurrency() read one unguarded run
// per control net, model_check() one guard-aware run. petri::explore is
// kept only as the reference those runs are checked against (the oracle's
// `mc` stage, tests/mc_diff_test.cpp).
//
// An AnalysisCache binds to one dcf::System and computes each analysis
// lazily, at most once. Transformations declare, via PreservedAnalyses,
// which analyses of their *input* remain valid for their *output*
// (e.g. the Def 4.6 vertex merger rebuilds the control net verbatim, so
// every Petri-net analysis carries over); `successor()` transfers the
// declared-preserved results to a cache for the transformed system.
// Declarations are enforced empirically: tests/passes_test.cpp compares
// every carried analysis bit-for-bit against a fresh recompute.
//
// Thread-safety: all accessors are const and internally synchronized, so
// one primed cache may be read from parallel candidate-evaluation
// workers. Computation happens under the lock — prime hot analyses
// before fanning out if first-touch latency matters.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dcf/system.h"
#include "mc/checker.h"
#include "obs/trace.h"
#include "petri/order.h"
#include "petri/reachability.h"
#include "semantics/dependence.h"

namespace camad::semantics {

enum class Analysis : std::uint8_t {
  kReachability = 0,  ///< unguarded mc::model_check (and co-marking)
  kOrder,             ///< petri::OrderRelations (structural F⁺)
  kDependence,        ///< DependenceRelation, keyed by clause options
  kLiveness,          ///< transform-layer register liveness (slot)
  kExactConcurrency,  ///< mc::model_check guard-aware state space
};
inline constexpr std::size_t kAnalysisCount = 5;

std::string_view analysis_name(Analysis analysis);

/// What a transformation keeps valid. Default-constructed = nothing.
class PreservedAnalyses {
 public:
  [[nodiscard]] static PreservedAnalyses none() { return {}; }
  [[nodiscard]] static PreservedAnalyses all();
  /// Everything derived from the control net alone: reachability (with
  /// its co-marking relation) and structural order. The declaration of
  /// choice for data-path-only transformations (merge, regshare, split).
  [[nodiscard]] static PreservedAnalyses control_net();

  PreservedAnalyses& preserve(Analysis analysis);
  [[nodiscard]] bool preserved(Analysis analysis) const;
  [[nodiscard]] bool empty() const { return mask_ == 0; }

  /// Narrows to the analyses both declarations keep — the declaration of
  /// a *composed* transformation chain (a pipeline or a search path
  /// preserves exactly the intersection of its steps' declarations).
  PreservedAnalyses& intersect(const PreservedAnalyses& other) {
    mask_ &= other.mask_;
    return *this;
  }

  /// "reachability+order" or "none".
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint32_t mask_ = 0;
};

/// Per-analysis access counters. A *hit* found a computed (or carried)
/// result, a *miss* computed one, a *transfer* carried a result over
/// from a predecessor cache via successor().
struct AnalysisCacheStats {
  std::array<std::size_t, kAnalysisCount> hits{};
  std::array<std::size_t, kAnalysisCount> misses{};
  std::array<std::size_t, kAnalysisCount> transfers{};

  AnalysisCacheStats& operator+=(const AnalysisCacheStats& rhs);
  [[nodiscard]] std::size_t total_hits() const;
  [[nodiscard]] std::size_t total_misses() const;
  [[nodiscard]] std::size_t total_transfers() const;
  /// hits / (hits + misses), 0 when never accessed.
  [[nodiscard]] double hit_rate() const;
  /// Single-line totals — the CLI engine-summary form shared by every
  /// camadc subcommand. to_string() appends per-analysis breakdown lines.
  [[nodiscard]] std::string summary() const;
  [[nodiscard]] std::string to_string() const;
};

class AnalysisCache {
 public:
  /// `reachability` sets the state budget (max_markings) and token bound
  /// of both model checks. `mc_options`, when given, replaces the options
  /// of the guard-aware model_check() analysis; it lets a CLI or service
  /// thread its --threads/--max-states/budget configuration through the
  /// cache while keeping every other analysis untouched.
  explicit AnalysisCache(
      const dcf::System& system,
      petri::ReachabilityOptions reachability = {},
      std::optional<mc::McOptions> mc_options = std::nullopt);

  AnalysisCache(const AnalysisCache&) = delete;
  AnalysisCache& operator=(const AnalysisCache&) = delete;
  AnalysisCache(AnalysisCache&&) = default;
  AnalysisCache& operator=(AnalysisCache&&) = default;

  [[nodiscard]] const dcf::System& system() const { return *system_; }
  /// True iff this cache was built for exactly this System object.
  [[nodiscard]] bool bound_to(const dcf::System& system) const {
    return system_ == &system;
  }
  [[nodiscard]] const petri::ReachabilityOptions& reachability_options()
      const {
    return reach_;
  }

  /// Reachability of the control net: one unguarded mc::model_check at
  /// one thread (the callers already run on workers), which also records
  /// the co-marking relation. Never throws on a budget cutoff — check
  /// `.complete`.
  const mc::McResult& reachability() const;
  /// Reachable co-marking relation of reachability() (row-major |S|×|S|;
  /// the diagonal marks places that can hold two tokens). Throws Error
  /// when that run is incomplete, so a partial relation never feeds a
  /// legality decision.
  const std::vector<bool>& concurrency() const;
  [[nodiscard]] bool co_marked(petri::PlaceId a, petri::PlaceId b) const;
  /// Structural order relations (Def 2.3).
  const petri::OrderRelations& order() const;
  /// Dependence relation for the given clause selection (memoized per
  /// distinct selection).
  const DependenceRelation& dependence(
      const DependenceOptions& options = {}) const;
  /// Guard-aware model-check of the control net (mc::model_check with
  /// max_states / token_bound mirroring this cache's ReachabilityOptions
  /// unless `mc_options` was given). Never throws on a budget cutoff —
  /// check `.complete`.
  const mc::McResult& model_check() const;

  /// Extension slot for analyses defined in higher layers (transform's
  /// liveness): computes T at most once under `kind`, via `compute`,
  /// which receives the bound system. One T per kind, by convention.
  /// `compute` runs under the cache's (non-recursive) lock and must not
  /// call back into this cache.
  template <typename T, typename Fn>
  const T& slot(Analysis kind, Fn&& compute) const {
    const std::lock_guard<std::mutex> lock(*mu_);
    std::shared_ptr<const void>& entry = slots_[index(kind)];
    if (entry == nullptr) {
      ++stats_.misses[index(kind)];
      const obs::ObsSpan span("analysis.", analysis_name(kind));
      entry = std::make_shared<const T>(compute(*system_));
    } else {
      ++stats_.hits[index(kind)];
    }
    return *static_cast<const T*>(entry.get());
  }

  /// Cache for the system a transformation produced: analyses the
  /// transformation declared preserved carry over (cheap shared_ptr
  /// copies). Control-net-shape guard: if `next`'s net differs in place
  /// or transition count from the bound system's, Petri-net analyses are
  /// dropped regardless of the declaration (an unsound declaration must
  /// not turn into out-of-bounds indexing).
  [[nodiscard]] AnalysisCache successor(
      const dcf::System& next, const PreservedAnalyses& preserved) const;

  /// Forces the control-net analyses (order + concurrency) so parallel
  /// readers never contend on first touch.
  void warm_control() const;

  [[nodiscard]] AnalysisCacheStats stats() const;

 private:
  static std::size_t index(Analysis a) {
    return static_cast<std::size_t>(a);
  }

  const dcf::System* system_;
  petri::ReachabilityOptions reach_;
  std::optional<mc::McOptions> mc_options_;
  std::size_t nplaces_ = 0;
  std::size_t ntransitions_ = 0;

  mutable std::unique_ptr<std::mutex> mu_;
  mutable std::shared_ptr<const mc::McResult> reachability_;
  mutable std::shared_ptr<const mc::McResult> exact_;
  mutable std::shared_ptr<const petri::OrderRelations> order_;
  mutable std::map<std::uint8_t,
                   std::shared_ptr<const DependenceRelation>>
      dependence_;
  mutable std::array<std::shared_ptr<const void>, kAnalysisCount> slots_{};
  mutable AnalysisCacheStats stats_;
};

}  // namespace camad::semantics
