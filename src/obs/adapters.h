// Bridges from the engines' existing stats structs into a
// MetricsRegistry, so each struct
// stops hand-rolling its own reporting surface. The structs stay the
// in-library source of truth; these adapters define the exported names.
#pragma once

#include <string_view>
#include <vector>

#include "mc/checker.h"
#include "obs/metrics.h"
#include "semantics/analysis.h"
#include "sim/simulator.h"
#include "transform/passes.h"

namespace camad::obs {

/// <prefix>.plan_cache.{hits,misses,evictions} counters and
/// <prefix>.plan_cache.{size,bytes} gauges. Plan-engine runs
/// additionally get <prefix>.steps.{evaluated,skipped} counters, an
/// <prefix>.activity_factor gauge and per-bucket
/// <prefix>.wavefront.bucket_<b> counters.
void publish_sim_stats(MetricsRegistry& registry, const sim::SimStats& stats,
                       std::string_view prefix = "sim");

/// Model-checker run summary: <prefix>.{states,markings,depth,conflicts}
/// counters, <prefix>.{states_per_second,max_frontier,threads} gauges,
/// and the store memory accounting —
/// <prefix>.store.{bytes,bytes_per_state,shards} gauges plus a
/// <prefix>.store.shard_entries histogram with one sample per shard (the
/// occupancy balance across the sharded visited store).
void publish_mc_stats(MetricsRegistry& registry, const mc::McResult& result,
                      std::string_view prefix = "mc");

/// Per-analysis <prefix>.<analysis>.{hits,misses,transfers} counters
/// plus <prefix>.{hits,misses,transfers} totals and a <prefix>.hit_rate
/// gauge.
void publish_analysis_stats(MetricsRegistry& registry,
                            const semantics::AnalysisCacheStats& stats,
                            std::string_view prefix = "analysis");

/// Per pass: <prefix>.<name>.runs counter, <prefix>.<name>.seconds
/// histogram, and gauges for the most recent state/vertex deltas.
void publish_pass_stats(MetricsRegistry& registry,
                        const std::vector<transform::PassStats>& stats,
                        std::string_view prefix = "pass");

}  // namespace camad::obs
