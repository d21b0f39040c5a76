#include "obs/adapters.h"

#include <string>

namespace camad::obs {
namespace {

std::string joined(std::string_view prefix, std::string_view suffix) {
  std::string out;
  out.reserve(prefix.size() + 1 + suffix.size());
  out.append(prefix);
  out.push_back('.');
  out.append(suffix);
  return out;
}

}  // namespace

void publish_sim_stats(MetricsRegistry& registry, const sim::SimStats& stats,
                       std::string_view prefix) {
  const std::string base = joined(prefix, "plan_cache");
  registry.add(base + ".hits", stats.plan_cache_hits);
  registry.add(base + ".misses", stats.plan_cache_misses);
  registry.add(base + ".evictions", stats.plan_cache_evictions);
  registry.set(base + ".size", static_cast<double>(stats.plan_cache_size));
  if (stats.plan_cache_bytes > 0) {
    registry.set(base + ".bytes",
                 static_cast<double>(stats.plan_cache_bytes));
  }
  if (stats.steps_evaluated + stats.steps_skipped > 0) {
    const std::string steps = joined(prefix, "steps");
    registry.add(steps + ".evaluated", stats.steps_evaluated);
    registry.add(steps + ".skipped", stats.steps_skipped);
    registry.set(joined(prefix, "activity_factor"), stats.activity_factor());
    // The engine pre-buckets wavefront sizes (bucket 0 = empty, bucket b
    // = width-b sizes, i.e. [2^(b-1), 2^b)); export the counts as-is
    // rather than replaying millions of per-cycle samples.
    const std::string wavefront = joined(prefix, "wavefront");
    for (std::size_t b = 0; b < sim::SimStats::kWavefrontBuckets; ++b) {
      if (stats.wavefront_hist[b] == 0) continue;
      registry.add(wavefront + ".bucket_" + std::to_string(b),
                   stats.wavefront_hist[b]);
    }
  }
}

void publish_mc_stats(MetricsRegistry& registry, const mc::McResult& result,
                      std::string_view prefix) {
  registry.add(joined(prefix, "states"), result.state_count);
  registry.add(joined(prefix, "markings"), result.marking_count);
  registry.add(joined(prefix, "depth"), result.depth);
  registry.add(joined(prefix, "conflicts"), result.conflicts.size());
  registry.add(joined(prefix, "successors"), result.stats.successors);
  registry.add(joined(prefix, "rediscoveries.same_depth"),
               result.stats.same_depth_rediscoveries);
  registry.add(joined(prefix, "rediscoveries.older"),
               result.stats.older_rediscoveries);
  registry.add(joined(prefix, "parent_replacements"),
               result.stats.parent_replacements);
  registry.set(joined(prefix, "states_per_second"),
               result.stats.states_per_second);
  registry.set(joined(prefix, "max_frontier"),
               static_cast<double>(result.stats.max_frontier));
  registry.set(joined(prefix, "threads"),
               static_cast<double>(result.stats.threads));
  const std::string store = joined(prefix, "store");
  registry.set(store + ".bytes", static_cast<double>(result.stats.store_bytes));
  if (result.state_count > 0) {
    registry.set(store + ".bytes_per_state",
                 static_cast<double>(result.stats.store_bytes) /
                     static_cast<double>(result.state_count));
  }
  registry.set(store + ".shards",
               static_cast<double>(result.stats.shard_count));
  // One sample per shard: the histogram's min/mean/max read directly as
  // the store's occupancy balance.
  const std::string occupancy = store + ".shard_entries";
  for (const std::size_t entries : result.stats.shard_entries) {
    registry.observe(occupancy, static_cast<double>(entries));
  }
}

void publish_analysis_stats(MetricsRegistry& registry,
                            const semantics::AnalysisCacheStats& stats,
                            std::string_view prefix) {
  for (std::size_t i = 0; i < semantics::kAnalysisCount; ++i) {
    if (stats.hits[i] + stats.misses[i] + stats.transfers[i] == 0) continue;
    const std::string base = joined(
        prefix, semantics::analysis_name(static_cast<semantics::Analysis>(i)));
    registry.add(base + ".hits", stats.hits[i]);
    registry.add(base + ".misses", stats.misses[i]);
    registry.add(base + ".transfers", stats.transfers[i]);
  }
  registry.add(joined(prefix, "hits"), stats.total_hits());
  registry.add(joined(prefix, "misses"), stats.total_misses());
  registry.add(joined(prefix, "transfers"), stats.total_transfers());
  registry.set(joined(prefix, "hit_rate"), stats.hit_rate());
}

void publish_pass_stats(MetricsRegistry& registry,
                        const std::vector<transform::PassStats>& stats,
                        std::string_view prefix) {
  for (const transform::PassStats& pass : stats) {
    const std::string base = joined(prefix, pass.name);
    registry.add(base + ".runs");
    registry.observe(base + ".seconds", pass.seconds);
    registry.set(base + ".states_before",
                 static_cast<double>(pass.states_before));
    registry.set(base + ".states_after",
                 static_cast<double>(pass.states_after));
    registry.set(base + ".vertices_before",
                 static_cast<double>(pass.vertices_before));
    registry.set(base + ".vertices_after",
                 static_cast<double>(pass.vertices_after));
  }
}

}  // namespace camad::obs
