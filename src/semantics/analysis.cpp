#include "semantics/analysis.h"

#include <sstream>
#include <utility>

#include "obs/trace.h"
#include "util/error.h"

namespace camad::semantics {
namespace {

constexpr std::array<std::string_view, kAnalysisCount> kNames = {
    "reachability", "order", "dependence", "liveness", "exact-concurrency"};

std::uint32_t bit(Analysis analysis) {
  return std::uint32_t{1} << static_cast<std::uint32_t>(analysis);
}

std::uint8_t dependence_key(const DependenceOptions& options) {
  std::uint8_t key = 0;
  key |= options.clause_a ? 1u : 0u;
  key |= options.clause_b ? 2u : 0u;
  key |= options.clause_c ? 4u : 0u;
  key |= options.clause_d ? 8u : 0u;
  key |= options.clause_e ? 16u : 0u;
  return key;
}

}  // namespace

std::string_view analysis_name(Analysis analysis) {
  const auto i = static_cast<std::size_t>(analysis);
  if (!(i < kAnalysisCount)) {
    throw Error("unknown analysis kind");
  }
  return kNames[i];
}

PreservedAnalyses PreservedAnalyses::all() {
  PreservedAnalyses p;
  for (std::size_t i = 0; i < kAnalysisCount; ++i) {
    p.preserve(static_cast<Analysis>(i));
  }
  return p;
}

PreservedAnalyses PreservedAnalyses::control_net() {
  return PreservedAnalyses{}
      .preserve(Analysis::kReachability)
      .preserve(Analysis::kOrder);
}

PreservedAnalyses& PreservedAnalyses::preserve(Analysis analysis) {
  mask_ |= bit(analysis);
  return *this;
}

bool PreservedAnalyses::preserved(Analysis analysis) const {
  return (mask_ & bit(analysis)) != 0;
}

std::string PreservedAnalyses::to_string() const {
  if (mask_ == 0) return "none";
  std::string out;
  for (std::size_t i = 0; i < kAnalysisCount; ++i) {
    if (!preserved(static_cast<Analysis>(i))) continue;
    if (!out.empty()) out += '+';
    out += kNames[i];
  }
  return out;
}

AnalysisCacheStats& AnalysisCacheStats::operator+=(
    const AnalysisCacheStats& rhs) {
  for (std::size_t i = 0; i < kAnalysisCount; ++i) {
    hits[i] += rhs.hits[i];
    misses[i] += rhs.misses[i];
    transfers[i] += rhs.transfers[i];
  }
  return *this;
}

std::size_t AnalysisCacheStats::total_hits() const {
  std::size_t n = 0;
  for (const std::size_t h : hits) n += h;
  return n;
}

std::size_t AnalysisCacheStats::total_misses() const {
  std::size_t n = 0;
  for (const std::size_t m : misses) n += m;
  return n;
}

std::size_t AnalysisCacheStats::total_transfers() const {
  std::size_t n = 0;
  for (const std::size_t t : transfers) n += t;
  return n;
}

double AnalysisCacheStats::hit_rate() const {
  const std::size_t accesses = total_hits() + total_misses();
  if (accesses == 0) return 0.0;
  return static_cast<double>(total_hits()) / static_cast<double>(accesses);
}

std::string AnalysisCacheStats::summary() const {
  std::ostringstream out;
  out << "analysis cache: " << total_hits() << " hit(s), " << total_misses()
      << " miss(es), " << total_transfers() << " transfer(s), hit rate "
      << static_cast<int>(hit_rate() * 100.0 + 0.5) << "%";
  return out.str();
}

std::string AnalysisCacheStats::to_string() const {
  std::ostringstream out;
  out << summary();
  for (std::size_t i = 0; i < kAnalysisCount; ++i) {
    if (hits[i] + misses[i] + transfers[i] == 0) continue;
    out << "\n  " << kNames[i] << ": " << hits[i] << " hit(s), " << misses[i]
        << " miss(es), " << transfers[i] << " transfer(s)";
  }
  return out.str();
}

AnalysisCache::AnalysisCache(const dcf::System& system,
                             petri::ReachabilityOptions reachability,
                             std::optional<mc::McOptions> mc_options)
    : system_(&system),
      reach_(reachability),
      mc_options_(std::move(mc_options)),
      nplaces_(system.control().net().place_count()),
      ntransitions_(system.control().net().transition_count()),
      mu_(std::make_unique<std::mutex>()) {}

const mc::McResult& AnalysisCache::reachability() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto i = index(Analysis::kReachability);
  if (reachability_ == nullptr) {
    ++stats_.misses[i];
    const obs::ObsSpan span("analysis.reachability");
    mc::McOptions opt;
    opt.threads = 1;
    opt.max_states = reach_.max_markings;
    opt.token_bound = reach_.token_bound;
    opt.collect_traces = false;
    reachability_ = std::make_shared<const mc::McResult>(
        mc::model_check(system_->control().net(), opt));
  } else {
    ++stats_.hits[i];
  }
  return *reachability_;
}

const std::vector<bool>& AnalysisCache::concurrency() const {
  const mc::McResult& reach = reachability();
  if (!reach.complete) {
    throw Error("concurrency: control-net state space exceeds the "
                "exploration budget (" + reach.cutoff_reason + ")");
  }
  return reach.concurrency;
}

bool AnalysisCache::co_marked(petri::PlaceId a, petri::PlaceId b) const {
  return concurrency()[a.index() * nplaces_ + b.index()];
}

const petri::OrderRelations& AnalysisCache::order() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto i = index(Analysis::kOrder);
  if (order_ == nullptr) {
    ++stats_.misses[i];
    const obs::ObsSpan span("analysis.order");
    order_ = std::make_shared<const petri::OrderRelations>(
        system_->control().net());
  } else {
    ++stats_.hits[i];
  }
  return *order_;
}

const mc::McResult& AnalysisCache::model_check() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto i = index(Analysis::kExactConcurrency);
  if (exact_ == nullptr) {
    ++stats_.misses[i];
    const obs::ObsSpan span("analysis.exact-concurrency");
    mc::McOptions opt;
    if (mc_options_.has_value()) {
      opt = *mc_options_;
    } else {
      opt.max_states = reach_.max_markings;
      opt.token_bound = reach_.token_bound;
    }
    exact_ = std::make_shared<const mc::McResult>(
        mc::model_check(*system_, opt));
  } else {
    ++stats_.hits[i];
  }
  return *exact_;
}

const DependenceRelation& AnalysisCache::dependence(
    const DependenceOptions& options) const {
  const std::lock_guard<std::mutex> lock(*mu_);
  const auto i = index(Analysis::kDependence);
  auto& entry = dependence_[dependence_key(options)];
  if (entry == nullptr) {
    ++stats_.misses[i];
    const obs::ObsSpan span("analysis.dependence");
    entry = std::make_shared<const DependenceRelation>(*system_, options);
  } else {
    ++stats_.hits[i];
  }
  return *entry;
}

AnalysisCache AnalysisCache::successor(
    const dcf::System& next, const PreservedAnalyses& preserved) const {
  AnalysisCache out(next, reach_, mc_options_);
  const std::lock_guard<std::mutex> lock(*mu_);
  const bool same_net_shape =
      out.nplaces_ == nplaces_ && out.ntransitions_ == ntransitions_;
  const auto carry = [&](Analysis kind, auto& from, auto& to) {
    if (!preserved.preserved(kind) || from == nullptr) return;
    to = from;
    ++out.stats_.transfers[index(kind)];
  };
  if (same_net_shape) {
    carry(Analysis::kReachability, reachability_, out.reachability_);
    carry(Analysis::kOrder, order_, out.order_);
    // Unlike the pure control-net analyses above, the model check also
    // reads the data path (guard classification), so control_net() never
    // declares it; only all() — used for identical-copy rebinds — does.
    carry(Analysis::kExactConcurrency, exact_, out.exact_);
  }
  if (preserved.preserved(Analysis::kDependence) && !dependence_.empty()) {
    out.dependence_ = dependence_;
    out.stats_.transfers[index(Analysis::kDependence)] += dependence_.size();
  }
  for (std::size_t i = 0; i < kAnalysisCount; ++i) {
    if (!preserved.preserved(static_cast<Analysis>(i))) continue;
    if (slots_[i] == nullptr) continue;
    out.slots_[i] = slots_[i];
    ++out.stats_.transfers[i];
  }
  return out;
}

void AnalysisCache::warm_control() const {
  order();
  concurrency();
}

AnalysisCacheStats AnalysisCache::stats() const {
  const std::lock_guard<std::mutex> lock(*mu_);
  return stats_;
}

}  // namespace camad::semantics
