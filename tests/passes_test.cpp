// Pass framework and AnalysisCache: registry, pipeline plumbing, and —
// the load-bearing part — empirical enforcement of every pass's
// PreservedAnalyses declaration. For each pass we prime a cache on the
// input, run the pass, carry the declared-preserved analyses into a
// successor cache, and demand each carried result be bit-identical to a
// fresh recompute on the output system. An unsound declaration (an
// analysis claimed preserved that the transformation actually changes)
// fails these tests before it can mislead a consumer.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "dcf/io.h"
#include "gen/oracle.h"
#include "gen/sysgen.h"
#include "semantics/analysis.h"
#include "sim/environment.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/cost.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/optimizer.h"
#include "transform/chain.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "transform/passes.h"
#include "transform/regshare.h"
#include "transform/split.h"
#include "util/error.h"

namespace camad {
namespace {

using semantics::Analysis;
using semantics::AnalysisCache;
using semantics::PreservedAnalyses;

// --- registry & pipeline construction --------------------------------------

TEST(PassRegistry, ProvidesEveryRegisteredPass) {
  const std::vector<std::string_view> names = transform::registered_passes();
  ASSERT_FALSE(names.empty());
  for (const std::string_view name : names) {
    const std::unique_ptr<transform::Pass> pass = transform::make_pass(name);
    ASSERT_NE(pass, nullptr);
    EXPECT_EQ(pass->name(), name);
  }
}

TEST(PassRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)transform::make_pass("frobnicate"), TransformError);
}

TEST(PassPipeline, FromSpecParsesCommaList) {
  const transform::PassPipeline pipeline =
      transform::PassPipeline::from_spec("parallelize,merge-all,cleanup");
  EXPECT_EQ(pipeline.size(), 3u);
  EXPECT_THROW((void)transform::PassPipeline::from_spec(""), TransformError);
  EXPECT_THROW((void)transform::PassPipeline::from_spec("merge-all,nope"),
               TransformError);
}

TEST(PassPipeline, RunFillsStatsAndCacheStats) {
  const dcf::System system = gen::random_system(11);
  transform::PassPipeline pipeline =
      transform::PassPipeline::from_spec("parallelize,merge-all,cleanup");
  const dcf::System out = pipeline.run(system);
  (void)out;
  ASSERT_EQ(pipeline.stats().size(), 3u);
  for (const transform::PassStats& ps : pipeline.stats()) {
    EXPECT_FALSE(ps.name.empty());
    EXPECT_GE(ps.seconds, 0.0);
    EXPECT_GT(ps.states_before, 0u);
  }
  EXPECT_GT(pipeline.cache_stats().total_misses(), 0u);
  EXPECT_FALSE(pipeline.stats_to_string().empty());
}

// --- declaration soundness: stale-cache differential ------------------------

/// Forces every analysis the cache can hold so successor() has something
/// to carry for each declared-preserved kind.
void prime(const AnalysisCache& cache) {
  (void)cache.reachability();
  (void)cache.concurrency();
  (void)cache.order();
  (void)cache.dependence();
  (void)transform::cached_liveness(cache);
}

/// The differential: carried analyses of `carried` (declared preserved
/// across input -> output) must be bit-identical to a fresh recompute on
/// `output`.
void expect_carried_matches_fresh(const AnalysisCache& carried,
                                  const dcf::System& output,
                                  const PreservedAnalyses& preserved) {
  const AnalysisCache fresh(output);
  if (preserved.preserved(Analysis::kReachability)) {
    EXPECT_TRUE(
        mc::same_verdicts(carried.reachability(), fresh.reachability()));
    EXPECT_EQ(carried.concurrency(), fresh.concurrency());
  }
  if (preserved.preserved(Analysis::kOrder)) {
    EXPECT_EQ(carried.order(), fresh.order());
  }
  if (preserved.preserved(Analysis::kDependence)) {
    EXPECT_EQ(carried.dependence(), fresh.dependence());
  }
}

/// Seeds chosen to give a mix of loops, branches and par blocks.
const std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34, 55, 89};

TEST(PreservedAnalysesSoundness, EveryRegisteredPassOnGeneratedSystems) {
  for (const std::string_view name : transform::registered_passes()) {
    for (const std::uint64_t seed : kSeeds) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const dcf::System system = gen::random_system(seed);
      const AnalysisCache cache(system);
      prime(cache);
      const std::unique_ptr<transform::Pass> pass =
          transform::make_pass(name);
      const dcf::System output = pass->run(system, cache);
      const AnalysisCache carried =
          cache.successor(output, pass->preserves());
      expect_carried_matches_fresh(carried, output, pass->preserves());

      // Transfer accounting: every declared-preserved Petri analysis we
      // primed must have been carried, not recomputed (shape is unchanged
      // for control-net-preserving passes, by definition of the claim).
      if (pass->preserves().preserved(Analysis::kOrder)) {
        const semantics::AnalysisCacheStats stats = carried.stats();
        EXPECT_GE(stats.total_transfers(), 2u)
            << "declared-preserved analyses were not transferred";
        (void)carried.order();
        EXPECT_EQ(carried.stats()
                      .misses[static_cast<std::size_t>(Analysis::kOrder)],
                  0u)
            << "carried order was recomputed instead of transferred";
      }
    }
  }
}

TEST(PreservedAnalysesSoundness, SplitDeclarationOnMergedDesign) {
  // split_vertex is not a registered pass; check its declaration
  // directly: merge a pair, then split it back apart.
  for (const std::uint64_t seed : kSeeds) {
    const dcf::System system = gen::random_system(seed);
    const AnalysisCache cache(system);
    const auto pairs = transform::mergeable_pairs(system, cache);
    if (pairs.empty()) continue;
    const dcf::System merged = transform::merge_vertices(
        system, pairs.front().first, pairs.front().second, cache);
    const AnalysisCache merged_cache =
        cache.successor(merged, transform::merge_preserved_analyses());
    prime(merged_cache);
    expect_carried_matches_fresh(merged_cache, merged,
                                 transform::merge_preserved_analyses());
  }
}

TEST(PreservedAnalysesSoundness, SuccessorShapeGuardOverridesDeclaration) {
  // Deliberately unsound claim: parallelize rewrites the control net
  // (fork/join realization adds helper places), yet we declare everything
  // preserved. The successor's net-shape guard must drop the Petri
  // analyses rather than serve stale (and wrongly-sized) results.
  const dcf::System system = synth::compile_source(
      std::string(synth::diffeq_source()));
  const AnalysisCache cache(system);
  prime(cache);
  const dcf::System chained = transform::parallelize(system, cache);
  ASSERT_NE(chained.control().net().place_count(),
            system.control().net().place_count())
      << "parallelize was a no-op on diffeq; pick a different design";
  const AnalysisCache carried =
      cache.successor(chained, PreservedAnalyses::all());
  // All Petri-net analyses must have been dropped by the guard...
  EXPECT_EQ(carried.stats()
                .transfers[static_cast<std::size_t>(Analysis::kReachability)],
            0u);
  EXPECT_EQ(carried.stats()
                .transfers[static_cast<std::size_t>(Analysis::kOrder)],
            0u);
  // ...so reads recompute against the new net (correct sizes, no OOB).
  const AnalysisCache fresh(chained);
  EXPECT_TRUE(mc::same_verdicts(carried.reachability(), fresh.reachability()));
  EXPECT_EQ(carried.order(), fresh.order());
  EXPECT_EQ(carried.concurrency(), fresh.concurrency());
}

// --- optimizer: cached/parallel path is behaviour-identical -----------------

/// synth::evaluate without the batched engine: one sim::simulate, on a
/// fresh engine, per environment.
synth::Metrics reference_evaluate(const dcf::System& system,
                                  const synth::ModuleLibrary& lib,
                                  const synth::MeasureOptions& options) {
  sim::SimOptions sim_options;
  sim_options.max_cycles = options.max_cycles;
  double total = 0;
  for (std::size_t k = 0; k < options.environments; ++k) {
    sim::Environment env = sim::Environment::random_for(
        system, options.seed + k, options.stream_length, options.value_lo,
        options.value_hi);
    total += static_cast<double>(
        sim::simulate(system, env, sim_options).cycles);
  }
  synth::Metrics m;
  m.area = synth::estimate_area(system, lib).total();
  m.mean_cycles = options.environments == 0
                      ? 0
                      : total / static_cast<double>(options.environments);
  m.cycle_time = synth::estimate_cycle_time(system, lib).cycle_time;
  m.time_ns = m.mean_cycles * m.cycle_time;
  return m;
}

/// The greedy sweep as one serial loop with no analysis reuse: every
/// candidate goes through the uncached transform overloads, and the
/// post-passes (register sharing, chaining, both) run the same way.
synth::OptimizerResult reference_optimize(
    const dcf::System& serial, const synth::ModuleLibrary& lib,
    const synth::OptimizerOptions& options) {
  synth::OptimizerResult result;
  dcf::System master = serial;
  dcf::System best = synth::derive_schedule(master);
  const synth::Metrics baseline =
      reference_evaluate(best, lib, options.measure);
  const auto objective_of = [&](const synth::Metrics& m) {
    const double area_norm =
        baseline.area > 0 ? m.area / baseline.area : 1.0;
    const double time_norm =
        baseline.time_ns > 0 ? m.time_ns / baseline.time_ns : 1.0;
    return options.area_weight * area_norm +
           (1.0 - options.area_weight) * time_norm;
  };
  double best_objective = objective_of(baseline);
  result.steps.push_back(
      {"initial (no mergers, parallelized)", baseline, best_objective});

  for (std::size_t step = 0; step < options.max_steps; ++step) {
    const auto pairs = transform::mergeable_pairs(master);
    std::size_t winner = pairs.size();
    double winner_objective = std::numeric_limits<double>::infinity();
    dcf::System winner_master;
    dcf::System winner_scheduled;
    synth::Metrics winner_metrics;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      dcf::System merged =
          transform::merge_vertices(master, pairs[i].first, pairs[i].second);
      dcf::System scheduled = synth::derive_schedule(merged);
      const synth::Metrics metrics =
          reference_evaluate(scheduled, lib, options.measure);
      const double objective = objective_of(metrics);
      if (objective < winner_objective) {
        winner = i;
        winner_objective = objective;
        winner_master = std::move(merged);
        winner_scheduled = std::move(scheduled);
        winner_metrics = metrics;
      }
    }
    if (winner == pairs.size() ||
        winner_objective >= best_objective - 1e-12) {
      break;
    }
    const dcf::DataPath& dp = master.datapath();
    result.steps.push_back({"merge " + dp.name(pairs[winner].first) +
                                " into " + dp.name(pairs[winner].second),
                            winner_metrics, winner_objective});
    master = std::move(winner_master);
    best = std::move(winner_scheduled);
    best_objective = winner_objective;
  }

  const dcf::System shared = transform::share_registers(master);
  const std::vector<std::pair<std::string, dcf::System>> post = {
      {"share registers", shared},
      {"chain states", transform::chain_states(master)},
      {"share registers + chain states", transform::chain_states(shared)}};
  for (const auto& [name, candidate] : post) {
    dcf::System scheduled = synth::derive_schedule(candidate);
    const synth::Metrics metrics =
        reference_evaluate(scheduled, lib, options.measure);
    const double objective = objective_of(metrics);
    if (objective < best_objective - 1e-12) {
      result.steps.push_back({name, metrics, objective});
      master = candidate;
      best = std::move(scheduled);
      best_objective = objective;
    }
  }
  result.best = std::move(best);
  result.serial_master = std::move(master);
  return result;
}

TEST(OptimizerCache, CachedParallelMatchesUncachedSerial) {
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  for (const std::string_view source :
       {synth::gcd_source(), synth::diffeq_source()}) {
    const dcf::System serial = synth::compile_source(std::string(source));
    synth::OptimizerOptions options;
    options.max_steps = 4;
    options.measure.environments = 2;
    const synth::OptimizerResult reference =
        reference_optimize(serial, lib, options);
    // The shared cache, batched measurement and parallel sweep must
    // walk the reference's trajectory at any thread count, also when
    // each worker keeps its best of several candidates.
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(serial.name() + " at " + std::to_string(threads) +
                   " thread(s)");
      options.eval_threads = threads;
      const synth::OptimizerResult result =
          synth::optimize(serial, lib, options);
      ASSERT_EQ(result.steps.size(), reference.steps.size());
      for (std::size_t i = 0; i < result.steps.size(); ++i) {
        EXPECT_EQ(result.steps[i].description,
                  reference.steps[i].description);
        EXPECT_EQ(result.steps[i].objective, reference.steps[i].objective);
        EXPECT_EQ(result.steps[i].metrics.area,
                  reference.steps[i].metrics.area);
        EXPECT_EQ(result.steps[i].metrics.time_ns,
                  reference.steps[i].metrics.time_ns);
      }
      EXPECT_EQ(dcf::save_system(result.best),
                dcf::save_system(reference.best));
      EXPECT_EQ(dcf::save_system(result.serial_master),
                dcf::save_system(reference.serial_master));
    }
  }
}

// --- 200-seed oracle battery through the PassPipeline route -----------------

constexpr std::uint64_t kShardSize = 50;

class PipelineOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineOracleSweep, BatteryHoldsWithPassPipelineRoute) {
  gen::OracleOptions options;
  options.use_pass_pipeline = true;
  const std::uint64_t first = 1 + GetParam() * kShardSize;
  const std::vector<gen::OracleOutcome> failures =
      gen::run_seed_range(first, kShardSize, options);
  for (const gen::OracleOutcome& f : failures) {
    ADD_FAILURE() << f.to_string() << "\n--- shrunk artifact ---\n"
                  << f.artifact;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PipelineOracleSweep,
                         ::testing::Range<std::uint64_t>(0, 4));

}  // namespace
}  // namespace camad
