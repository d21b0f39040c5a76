#include "transform/passes.h"

#include <array>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "transform/chain.h"
#include "transform/cleanup.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "transform/regshare.h"
#include "util/error.h"
#include "util/strings.h"

namespace camad::transform {
namespace {

class ParallelizePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "parallelize";
  }
  [[nodiscard]] semantics::PreservedAnalyses preserves() const override {
    return semantics::PreservedAnalyses::none();
  }
  [[nodiscard]] dcf::System run(
      const dcf::System& system,
      const semantics::AnalysisCache& cache) override {
    return transform::parallelize(system, cache, {}, &stats_);
  }
  [[nodiscard]] std::string counters() const override {
    std::ostringstream out;
    out << stats_.segments_transformed << "/" << stats_.segments_found
        << " segment(s), " << stats_.helper_places << " helper place(s)";
    return out.str();
  }

 private:
  ParallelizeStats stats_;
};

class MergeAllPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "merge-all"; }
  [[nodiscard]] semantics::PreservedAnalyses preserves() const override {
    return merge_preserved_analyses();
  }
  [[nodiscard]] dcf::System run(
      const dcf::System& system,
      const semantics::AnalysisCache& cache) override {
    return merge_all(system, cache, &merges_);
  }
  [[nodiscard]] std::string counters() const override {
    return std::to_string(merges_) + " merger(s)";
  }

 private:
  std::size_t merges_ = 0;
};

class RegSharePass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "regshare"; }
  [[nodiscard]] semantics::PreservedAnalyses preserves() const override {
    return regshare_preserved_analyses();
  }
  [[nodiscard]] dcf::System run(
      const dcf::System& system,
      const semantics::AnalysisCache& cache) override {
    return share_registers(system, cache, &stats_);
  }
  [[nodiscard]] std::string counters() const override {
    std::ostringstream out;
    out << stats_.registers_before << " -> " << stats_.registers_after
        << " register(s), " << stats_.interference_edges
        << " interference edge(s)";
    return out.str();
  }

 private:
  RegShareStats stats_;
};

class ChainPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "chain"; }
  [[nodiscard]] semantics::PreservedAnalyses preserves() const override {
    return semantics::PreservedAnalyses::none();
  }
  [[nodiscard]] dcf::System run(
      const dcf::System& system,
      const semantics::AnalysisCache& cache) override {
    return chain_states(system, cache, &stats_);
  }
  [[nodiscard]] std::string counters() const override {
    return std::to_string(stats_.states_merged) + " state(s) chained";
  }

 private:
  ChainStats stats_;
};

class CleanupPass final : public Pass {
 public:
  [[nodiscard]] std::string_view name() const override { return "cleanup"; }
  [[nodiscard]] semantics::PreservedAnalyses preserves() const override {
    return semantics::PreservedAnalyses::none();
  }
  [[nodiscard]] dcf::System run(
      const dcf::System& system,
      const semantics::AnalysisCache& /*cache*/) override {
    return cleanup_control(system, &stats_);
  }
  [[nodiscard]] std::string counters() const override {
    return std::to_string(stats_.states_removed) + " state(s) removed";
  }

 private:
  CleanupStats stats_;
};

template <typename P>
std::unique_ptr<Pass> make() {
  return std::make_unique<P>();
}

/// Every registered pass in canonical order; each pass's name() is its
/// registered name.
constexpr std::array<std::unique_ptr<Pass> (*)(), 5> kRegistry = {
    make<ParallelizePass>, make<MergeAllPass>, make<RegSharePass>,
    make<ChainPass>, make<CleanupPass>};

}  // namespace

std::unique_ptr<Pass> make_pass(std::string_view name) {
  for (const auto factory : kRegistry) {
    std::unique_ptr<Pass> pass = factory();
    if (pass->name() == name) return pass;
  }
  throw TransformError("unknown pass '" + std::string(name) +
                       "' (registered: " + join(registered_passes(), ", ") +
                       ")");
}

std::vector<std::string_view> registered_passes() {
  // Every name() returns a string literal, so the views outlive the
  // temporary passes.
  std::vector<std::string_view> names;
  for (const auto factory : kRegistry) names.push_back(factory()->name());
  return names;
}

PassPipeline& PassPipeline::add(std::unique_ptr<Pass> pass) {
  if (!(pass != nullptr)) {
    throw Error("PassPipeline::add: null pass");
  }
  passes_.push_back(std::move(pass));
  return *this;
}

PassPipeline& PassPipeline::add(std::string_view name) {
  return add(make_pass(name));
}

PassPipeline PassPipeline::from_spec(std::string_view spec) {
  PassPipeline pipeline;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string_view token =
        spec.substr(start, comma == std::string_view::npos ? spec.size() - start
                                                           : comma - start);
    if (!token.empty()) pipeline.add(token);
    if (comma == std::string_view::npos) break;
    start = comma + 1;
  }
  if (pipeline.size() == 0) {
    throw TransformError("empty pass specification '" + std::string(spec) +
                         "'");
  }
  return pipeline;
}

semantics::PreservedAnalyses PassPipeline::preserves() const {
  semantics::PreservedAnalyses preserved = semantics::PreservedAnalyses::all();
  for (const std::unique_ptr<Pass>& pass : passes_) {
    preserved.intersect(pass->preserves());
  }
  return preserved;
}

dcf::System PassPipeline::run(const dcf::System& initial) {
  const semantics::AnalysisCache cache(initial);
  dcf::System out = run(initial, cache);
  cache_stats_ += cache.stats();
  return out;
}

dcf::System PassPipeline::run(const dcf::System& initial,
                              const semantics::AnalysisCache& seed) {
  stats_.clear();
  cache_stats_ = {};
  provenance_.clear();
  if (passes_.empty()) return initial;
  const dcf::System* cur = &initial;
  const semantics::AnalysisCache* cache = &seed;
  dcf::System current;                            // owned from step 2 on
  std::optional<semantics::AnalysisCache> owned;  // successor chain
  for (const std::unique_ptr<Pass>& pass : passes_) {
    PassStats record;
    record.name = std::string(pass->name());
    record.states_before = cur->control().state_count();
    record.vertices_before = cur->datapath().vertex_count();
    const auto t0 = std::chrono::steady_clock::now();
    dcf::System next;
    {
      const obs::ObsSpan span("pass.", record.name);
      next = pass->run(*cur, *cache);
    }
    const auto t1 = std::chrono::steady_clock::now();
    record.seconds = std::chrono::duration<double>(t1 - t0).count();
    record.states_after = next.control().state_count();
    record.vertices_after = next.datapath().vertex_count();
    record.counters = pass->counters();
    provenance_.push_back({record.name, record.counters});
    stats_.push_back(std::move(record));
    if (owned.has_value()) cache_stats_ += owned->stats();
    current = std::move(next);
    owned = cache->successor(current, pass->preserves());
    cache = &*owned;
    cur = &current;
  }
  if (owned.has_value()) cache_stats_ += owned->stats();
  return current;
}

std::string PassPipeline::stats_to_string() const {
  std::ostringstream out;
  for (const PassStats& s : stats_) {
    out << s.name << ": " << s.states_before << " -> " << s.states_after
        << " state(s), " << s.vertices_before << " -> " << s.vertices_after
        << " vertice(s), "
        << static_cast<long long>(s.seconds * 1e6 + 0.5) << " us";
    if (!s.counters.empty()) out << " [" << s.counters << "]";
    out << '\n';
  }
  out << "pipeline preserves: " << preserves().to_string() << '\n';
  out << cache_stats_.to_string() << '\n';
  return out.str();
}

}  // namespace camad::transform
