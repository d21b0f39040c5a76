// Named counters / gauges / histograms with a JSON snapshot exporter.
//
// A MetricsRegistry is a passive sink the CLIs own for the duration of a
// command: library layers keep reporting through their existing stats
// structs (sim::SimStats, semantics::AnalysisCacheStats,
// transform::PassStats), and the adapters in obs/adapters.h publish
// those structs into one registry under a uniform naming scheme
// ("sim.plan_cache.hits", "analysis.reachability.misses",
// "pass.merge-all.seconds"). `--report[=FILE]` then embeds the
// registry's machine-readable JSON snapshot in the run report.
//
// Thread-safe: every method takes the registry mutex; the recording
// sites are coarse (per run / per pass / per sweep), not per cycle.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

namespace camad::obs {

/// Snapshot of one histogram. Quantiles are approximate: samples land in
/// power-of-two buckets and a quantile reports its bucket's geometric
/// midpoint.
struct HistogramStats {
  std::uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

class MetricsRegistry {
 public:
  /// Monotonic counter.
  void add(std::string_view counter, std::uint64_t delta = 1);
  /// Last-write-wins gauge.
  void set(std::string_view gauge, double value);
  /// Histogram sample. Non-finite samples never enter the histogram;
  /// each one instead increments a `<histogram>.dropped` counter so the
  /// loss shows up in snapshots.
  void observe(std::string_view histogram, double sample);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] HistogramStats histogram(std::string_view name) const;
  [[nodiscard]] bool empty() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:
  /// {count,sum,min,max,mean,p50,p90,p99}}} — keys sorted, so snapshots
  /// of identical recordings compare equal.
  void write_json(std::ostream& out) const;
  [[nodiscard]] std::string to_json() const;

 private:
  /// Power-of-two buckets covering 2^-32 .. 2^31 (bucket i holds samples
  /// in [2^(i-33), 2^(i-32))), clamped at the ends.
  static constexpr std::size_t kBuckets = 64;
  struct Histogram {
    HistogramStats stats;
    std::array<std::uint64_t, kBuckets> buckets{};
  };
  static std::size_t bucket_of(double sample);
  static double quantile(const Histogram& h, double q);

  mutable std::mutex mu_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
  std::map<std::string, double, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace camad::obs
