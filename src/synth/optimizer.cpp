#include "synth/optimizer.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/progress.h"
#include "obs/trace.h"
#include "semantics/equivalence.h"
#include "serve/budget.h"
#include "sim/batch.h"
#include "synth/design_hash.h"
#include "transform/chain.h"
#include "transform/cleanup.h"
#include "transform/merge.h"
#include "transform/parallelize.h"
#include "transform/regshare.h"
#include "transform/split.h"
#include "util/error.h"
#include "util/json.h"

namespace camad::synth {
namespace {

double objective_of(const Metrics& m, const Metrics& baseline, double lambda) {
  const double area_norm = baseline.area > 0 ? m.area / baseline.area : 1.0;
  const double time_norm =
      baseline.time_ns > 0 ? m.time_ns / baseline.time_ns : 1.0;
  return lambda * area_norm + (1.0 - lambda) * time_norm;
}

constexpr std::size_t kNoPair = std::numeric_limits<std::size_t>::max();

/// One evaluated search candidate: a serial master, its derived
/// schedule, and the schedule's measured cost. An empty slot holds
/// kNoPair and an infinite objective.
struct Candidate {
  dcf::System master;
  dcf::System scheduled;
  Metrics metrics;
  double objective = std::numeric_limits<double>::infinity();
  std::size_t pair = kNoPair;  ///< index into the sweep's mergeable pairs
  sim::SimStats sim_stats;
};

/// The greedy sweep's selection rule, a strict total order: the lower
/// objective wins, then the lower pair index. An empty slot takes no
/// tie, so neither NaN nor +inf ever wins, as in a serial scan that
/// keeps the first strict minimum.
bool ranks_before(const Candidate& c, const Candidate& slot) {
  if (c.objective < slot.objective) return true;
  return c.objective == slot.objective && slot.pair != kNoPair &&
         c.pair < slot.pair;
}

/// Marks an accepted move on the trace timeline (no-op when disabled).
void trace_accept(const std::string& description, double objective) {
  obs::TraceSession* session = obs::TraceSession::active();
  if (session == nullptr) return;
  session->instant("optimize.accept",
                   "{\"move\":" + json_quote(description) +
                       ",\"objective\":" + json_number(objective) + "}");
}

}  // namespace

Metrics evaluate(const dcf::System& system, const ModuleLibrary& lib,
                 const MeasureOptions& options, sim::SimStats* sim_stats) {
  Metrics m;
  m.area = estimate_area(system, lib).total();
  const PerformanceReport perf = measure_performance(system, lib, options);
  if (sim_stats != nullptr) *sim_stats += perf.sim_stats;
  m.mean_cycles = perf.mean_cycles;
  m.cycle_time = perf.cycle_time;
  m.time_ns = perf.mean_time_ns();
  return m;
}

dcf::System derive_schedule(const dcf::System& master) {
  return transform::cleanup_control(transform::parallelize(master));
}

dcf::System derive_schedule(const dcf::System& master,
                            const semantics::AnalysisCache& cache) {
  return transform::cleanup_control(transform::parallelize(master, cache));
}

OptimizerResult optimize(const dcf::System& serial, const ModuleLibrary& lib,
                         const OptimizerOptions& options) {
  const obs::ObsSpan optimize_span("optimize");
  dcf::System master = serial;
  semantics::AnalysisCache cache(master);

  OptimizerResult result;
  dcf::System best = derive_schedule(master, cache);
  const Metrics baseline =
      evaluate(best, lib, options.measure, &result.sim_stats);
  ++result.candidates_evaluated;

  result.best = best;
  result.serial_master = master;
  result.initial = baseline;
  result.final = baseline;
  double best_objective = objective_of(baseline, baseline,
                                       options.area_weight);
  result.steps.push_back(
      {"initial (no mergers, parallelized)", baseline, best_objective});

  for (std::size_t step = 0; step < options.max_steps; ++step) {
    const obs::ObsSpan sweep_span("optimize.sweep", [&] {
      return "{\"step\":" + std::to_string(step) + "}";
    });
    const auto pairs = [&] {
      const obs::ObsSpan enumerate_span("optimize.enumerate");
      return transform::mergeable_pairs(master, cache);
    }();
    if (pairs.empty()) break;

    // Every worker reads order/concurrency through the shared cache —
    // force them now so first touch doesn't serialize the fan-out.
    cache.warm_control();

    // Each worker keeps its best candidate by ranks_before and frees
    // every other one in the job that built it. The rule is a strict
    // total order, so the best of the workers' bests is the serial
    // sweep's winner whatever the thread count.
    const std::size_t workers =
        sim::resolve_worker_count(pairs.size(), options.eval_threads);
    std::vector<Candidate> kept(workers);
    std::vector<sim::SimStats> worker_stats(workers);
    sim::parallel_jobs(
        pairs.size(), workers, [&](std::size_t worker, std::size_t i) {
          const obs::ObsSpan candidate_span("optimize.candidate", [&] {
            return "{\"pair\":" + std::to_string(i) + "}";
          });
          Candidate c;
          c.pair = i;
          c.master = transform::merge_vertices(master, pairs[i].first,
                                               pairs[i].second, cache);
          // The merged system is a different net object per candidate:
          // its schedule cannot reuse the master's cache.
          c.scheduled = derive_schedule(c.master);
          c.metrics = evaluate(c.scheduled, lib, options.measure,
                               &worker_stats[worker]);
          c.objective = objective_of(c.metrics, baseline,
                                     options.area_weight);
          if (ranks_before(c, kept[worker])) kept[worker] = std::move(c);
        });
    for (const sim::SimStats& stats : worker_stats) result.sim_stats += stats;
    result.candidates_evaluated += pairs.size();
    Candidate* winner = &kept.front();
    for (Candidate& c : kept) {
      if (ranks_before(c, *winner)) winner = &c;
    }

    if (winner->pair == kNoPair ||
        winner->objective >= best_objective - 1e-12) {
      break;  // no improving merger
    }
    Candidate& accepted = *winner;

    if (options.verify_steps) {
      const semantics::EquivalenceVerdict verdict =
          semantics::differential_equivalence(best, accepted.scheduled);
      if (!verdict.holds) {
        throw TransformError("optimizer step failed verification: " +
                             verdict.why);
      }
    }

    const auto& dp = master.datapath();
    result.steps.push_back(
        {"merge " + dp.name(pairs[accepted.pair].first) + " into " +
             dp.name(pairs[accepted.pair].second),
         accepted.metrics, accepted.objective});
    trace_accept(result.steps.back().description, accepted.objective);
    master = std::move(accepted.master);
    result.analysis_stats += cache.stats();
    cache = cache.successor(master, transform::merge_preserved_analyses());
    best = std::move(accepted.scheduled);
    best_objective = accepted.objective;
    ++result.merges_applied;
  }

  // Post-passes: register sharing and state chaining, each kept only if
  // it improves the objective (both change the serial master, so the
  // schedule is re-derived). All candidates derive from the post-merge
  // master; evaluation fans out, acceptance stays serial and ordered.
  struct PostPass {
    const char* name;
    dcf::System master;
  };
  std::vector<PostPass> post;
  post.push_back(
      {"share registers", transform::share_registers(master, cache)});
  post.push_back({"chain states", transform::chain_states(master, cache)});
  {
    const dcf::System& shared = post.front().master;
    const semantics::AnalysisCache shared_cache =
        cache.successor(shared, transform::regshare_preserved_analyses());
    post.push_back({"share registers + chain states",
                    transform::chain_states(shared, shared_cache)});
    result.analysis_stats += shared_cache.stats();
  }

  std::vector<Candidate> post_eval(post.size());
  sim::parallel_jobs(post.size(), options.eval_threads,
                     [&](std::size_t /*worker*/, std::size_t i) {
                       const obs::ObsSpan post_span("optimize.post.",
                                                    post[i].name);
                       Candidate& c = post_eval[i];
                       c.scheduled = derive_schedule(post[i].master);
                       c.metrics = evaluate(c.scheduled, lib,
                                            options.measure, &c.sim_stats);
                       c.objective = objective_of(c.metrics, baseline,
                                                  options.area_weight);
                     });
  for (const Candidate& c : post_eval) result.sim_stats += c.sim_stats;
  result.candidates_evaluated += post_eval.size();
  for (std::size_t i = 0; i < post.size(); ++i) {
    if (post_eval[i].objective < best_objective - 1e-12) {
      if (options.verify_steps) {
        const semantics::EquivalenceVerdict verdict =
            semantics::differential_equivalence(best,
                                                post_eval[i].scheduled);
        if (!verdict.holds) {
          throw TransformError(std::string("post-pass '") + post[i].name +
                               "' failed verification: " + verdict.why);
        }
      }
      result.steps.push_back(
          {post[i].name, post_eval[i].metrics, post_eval[i].objective});
      trace_accept(result.steps.back().description, post_eval[i].objective);
      master = std::move(post[i].master);
      best = std::move(post_eval[i].scheduled);
      best_objective = post_eval[i].objective;
    }
  }

  result.analysis_stats += cache.stats();
  result.best = best;
  result.serial_master = master;
  result.final = result.steps.back().metrics;
  return result;
}

namespace {

/// One beam slot. `master` lives behind a shared_ptr so the bound
/// AnalysisCache (which holds the System by address) survives vector
/// reshuffles, and so frontier points and child candidates can alias it.
struct BeamEntry {
  std::shared_ptr<const dcf::System> master;
  std::shared_ptr<const semantics::AnalysisCache> cache;
  transform::Provenance provenance;
  std::uint64_t hash = 0;  ///< design_hash of *master
};

/// The Pareto search stops after this many consecutive generations
/// without a frontier insertion.
constexpr std::size_t kStallGenerations = 2;
/// Split actions enumerated per candidate per generation: splits mostly
/// re-open merged routes, and a small cap keeps them from dominating the
/// job list.
constexpr std::size_t kMaxSplitActions = 8;

enum class ActionKind : std::uint8_t { kMerge, kSplit, kRegshare, kChain };

/// One (candidate × pass) successor job, enumerated serially in a fixed
/// total order: beam index major; within a candidate merges (in
/// mergeable_pairs order), then splits (vertex id, state id), then
/// regshare, then chain. The job index is the tie-breaking total order
/// every downstream decision uses.
struct Action {
  ActionKind kind = ActionKind::kMerge;
  std::size_t parent = 0;  ///< beam index
  dcf::VertexId vi, vj;    ///< merge operands (vi into vj)
  dcf::VertexId split_unit;
  petri::PlaceId split_state;
  std::string detail;  ///< provenance operand, from the parent's names
};

const char* action_pass_name(ActionKind kind) {
  switch (kind) {
    case ActionKind::kMerge: return "merge";
    case ActionKind::kSplit: return "split";
    case ActionKind::kRegshare: return "regshare";
    case ActionKind::kChain: return "chain";
  }
  return "?";
}

semantics::PreservedAnalyses action_preserved(ActionKind kind) {
  switch (kind) {
    case ActionKind::kMerge: return transform::merge_preserved_analyses();
    case ActionKind::kSplit: return transform::split_preserved_analyses();
    case ActionKind::kRegshare:
      return transform::regshare_preserved_analyses();
    case ActionKind::kChain: return semantics::PreservedAnalyses::none();
  }
  return semantics::PreservedAnalyses::none();
}

dcf::System apply_action(const dcf::System& master,
                         const semantics::AnalysisCache& cache,
                         const Action& action) {
  switch (action.kind) {
    case ActionKind::kMerge:
      return transform::merge_vertices(master, action.vi, action.vj, cache);
    case ActionKind::kSplit:
      return transform::split_vertex(master, action.split_unit,
                                     {action.split_state});
    case ActionKind::kRegshare:
      return transform::share_registers(master, cache);
    case ActionKind::kChain:
      return transform::chain_states(master, cache);
  }
  throw TransformError("unknown optimizer action");
}

void enumerate_actions(const BeamEntry& entry, std::size_t parent,
                       std::vector<Action>& out) {
  const dcf::System& master = *entry.master;
  const dcf::DataPath& dp = master.datapath();

  const auto pairs = transform::mergeable_pairs(master, *entry.cache);
  for (const auto& [vi, vj] : pairs) {
    Action a;
    a.kind = ActionKind::kMerge;
    a.parent = parent;
    a.vi = vi;
    a.vj = vj;
    a.detail = dp.name(vi) + " into " + dp.name(vj);
    out.push_back(std::move(a));
  }

  // Split actions: peel one associated state off a shared combinational
  // unit (the Def 4.6 merger's inverse) — the moves that walk back up
  // the area axis after regshare/chain changed the trade-off.
  std::vector<std::vector<petri::PlaceId>> states_of(dp.vertex_count());
  for (const petri::PlaceId s : master.control().net().places()) {
    for (const dcf::VertexId v : master.associated_vertices(s)) {
      if (dp.kind(v) != dcf::VertexKind::kInternal) continue;
      if (dp.is_sequential_vertex(v)) continue;
      states_of[v.index()].push_back(s);
    }
  }
  std::size_t splits = 0;
  for (std::size_t i = 0; i < states_of.size() && splits < kMaxSplitActions;
       ++i) {
    if (states_of[i].size() < 2) continue;
    const dcf::VertexId v(static_cast<std::uint32_t>(i));
    for (const petri::PlaceId s : states_of[i]) {
      if (splits >= kMaxSplitActions) break;
      if (!transform::can_split(master, v, {s}).legal) continue;
      Action a;
      a.kind = ActionKind::kSplit;
      a.parent = parent;
      a.split_unit = v;
      a.split_state = s;
      a.detail = dp.name(v) + " @ s" + std::to_string(s.value());
      out.push_back(std::move(a));
      ++splits;
    }
  }

  Action regshare;
  regshare.kind = ActionKind::kRegshare;
  regshare.parent = parent;
  out.push_back(std::move(regshare));
  Action chain;
  chain.kind = ActionKind::kChain;
  chain.parent = parent;
  out.push_back(std::move(chain));
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

ParetoResult optimize_pareto(const dcf::System& serial,
                             const ModuleLibrary& lib,
                             const ParetoOptions& options) {
  const obs::ObsSpan pareto_span("pareto");
  obs::TraceSession* session = obs::TraceSession::active();
  ParetoResult result;
  ParetoFrontier frontier;
  std::unordered_set<std::uint64_t> explored;
  // Designs whose successor set has already been enumerated. Expansion
  // is deterministic per design, so re-expanding could only reproduce
  // dedup hits — every design is expanded at most once, ever.
  std::unordered_set<std::uint64_t> expanded_designs;
  // Archive elitism (PAES-style): every frontier-resident design keeps a
  // beam entry here and re-enters the beam until it has been expanded,
  // so a non-dominated design never loses its unexplored successors just
  // because the λ-slots picked other lanes that generation.
  std::unordered_map<std::uint64_t, BeamEntry> archive;
  // Every cache ever created, folded into result.analysis_stats at the
  // end. Entries can alias between beam and archive across generations,
  // so per-generation retirement would double-count. The paired master
  // keeps the cache's referenced System alive.
  std::vector<std::pair<std::shared_ptr<const dcf::System>,
                        std::shared_ptr<const semantics::AnalysisCache>>>
      cache_registry;

  // Seed candidate: the untransformed serial master.
  const auto seed_master = std::make_shared<const dcf::System>(serial);
  const auto seed_cache =
      std::make_shared<const semantics::AnalysisCache>(*seed_master);
  dcf::System seed_scheduled = derive_schedule(*seed_master, *seed_cache);
  result.initial =
      evaluate(seed_scheduled, lib, options.measure, &result.sim_stats);
  ++result.candidates_evaluated;
  const Metrics initial = result.initial;
  const auto norm = [](double v, double base) {
    return base > 0 ? v / base : v;
  };

  const std::uint64_t seed_hash = design_hash(*seed_master);
  explored.insert(seed_hash);
  frontier.insert(
      {*seed_master, std::move(seed_scheduled), initial, {}, seed_hash});
  cache_registry.emplace_back(seed_master, seed_cache);

  std::vector<BeamEntry> beam;
  beam.push_back({seed_master, seed_cache, {}, seed_hash});
  archive[seed_hash] = beam.front();

  std::size_t stall = 0;
  result.stop_reason = "generations";
  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    if (options.budget != nullptr && options.budget->exhausted()) {
      result.budget_exhausted = true;
      result.stop_reason = options.budget->reason();
      break;
    }
    std::vector<Action> actions;
    std::vector<std::size_t> active;  // beam indices expanded this gen
    {
      const obs::ObsSpan enumerate_span("pareto.enumerate");
      for (std::size_t i = 0; i < beam.size(); ++i) {
        if (!expanded_designs.insert(beam[i].hash).second) continue;
        active.push_back(i);
        enumerate_actions(beam[i], i, actions);
      }
    }
    const obs::ObsSpan gen_span("pareto.generation", [&] {
      return "{\"generation\":" + std::to_string(gen) +
             ",\"beam\":" + std::to_string(beam.size()) +
             ",\"actions\":" + std::to_string(actions.size()) + "}";
    });
    // Every beam entry already expanded: no design can produce a new
    // successor, so the search has converged.
    if (actions.empty()) break;

    // Prime every shared analysis this generation's workers will read
    // (order/concurrency for merges, dependence for chain, liveness for
    // regshare) so a lazy first touch under the cache lock never stalls
    // sibling jobs.
    sim::parallel_jobs(active.size(), options.eval_threads,
                       [&](std::size_t /*worker*/, std::size_t k) {
                         const BeamEntry& entry = beam[active[k]];
                         entry.cache->warm_control();
                         entry.cache->dependence();
                         transform::cached_liveness(*entry.cache);
                       });

    // Phase A — apply + hash every successor in parallel. Cheap relative
    // to measurement, so dedup (serial, in job order) happens *before*
    // any schedule is derived or simulated.
    struct Expansion {
      std::shared_ptr<const dcf::System> master;
      std::uint64_t hash = 0;
    };
    std::vector<Expansion> expanded(actions.size());
    sim::parallel_jobs(
        actions.size(), options.eval_threads,
        [&](std::size_t /*worker*/, std::size_t j) {
          const obs::ObsSpan expand_span("pareto.expand", [&] {
            return "{\"job\":" + std::to_string(j) + ",\"pass\":\"" +
                   action_pass_name(actions[j].kind) + "\"}";
          });
          const BeamEntry& parent = beam[actions[j].parent];
          dcf::System next =
              apply_action(*parent.master, *parent.cache, actions[j]);
          expanded[j].hash = design_hash(next);
          expanded[j].master =
              std::make_shared<const dcf::System>(std::move(next));
        });

    std::vector<std::size_t> fresh;
    {
      const obs::ObsSpan reduce_span("pareto.reduce");
      for (std::size_t j = 0; j < actions.size(); ++j) {
        if (!explored.insert(expanded[j].hash).second) {
          ++result.dedup_hits;
          continue;
        }
        fresh.push_back(j);
      }
    }
    if (session != nullptr) {
      session->counter("pareto.dedup_hits",
                       static_cast<std::int64_t>(result.dedup_hits));
    }
    // Nothing new reachable from this beam: the next generation would
    // enumerate the identical action set, so the search has converged.
    if (fresh.empty()) {
      const obs::ObsSpan release_span("pareto.release");
      std::vector<Expansion>().swap(expanded);
      break;
    }

    // Phase B — derive + measure the surviving successors in parallel.
    // A job drops its schedule when the frontier as this generation
    // found it already weakly dominates the point: the reduction below
    // only adds to the dominated region, so it would reject the point
    // too, and the schedule is freed on the worker that built it.
    struct Measured {
      dcf::System scheduled;
      Metrics metrics;
      sim::SimStats sim_stats;
    };
    std::vector<Measured> measured(fresh.size());
    sim::parallel_jobs(
        fresh.size(), options.eval_threads,
        [&](std::size_t /*worker*/, std::size_t k) {
          const obs::ObsSpan measure_span("pareto.measure", [&] {
            return "{\"job\":" + std::to_string(fresh[k]) + "}";
          });
          Measured& m = measured[k];
          m.scheduled = derive_schedule(*expanded[fresh[k]].master);
          m.metrics =
              evaluate(m.scheduled, lib, options.measure, &m.sim_stats);
          if (frontier.dominates(m.metrics.area, m.metrics.time_ns)) {
            m.scheduled = dcf::System();
          }
        });
    for (const Measured& m : measured) result.sim_stats += m.sim_stats;
    result.candidates_evaluated += fresh.size();

    // Serial reduction in job order: frontier insertion + survivor
    // records for beam selection.
    bool inserted_any = false;
    std::vector<BeamEntry> next_beam;
    {
      const obs::ObsSpan reduce_span("pareto.reduce");
      struct Survivor {
        std::size_t job = 0;
        double area_norm = 0;
        double time_norm = 0;
        transform::Provenance provenance;
      };
      std::vector<Survivor> survivors;
      survivors.reserve(fresh.size());
      const auto make_child = [&](std::size_t j,
                                  transform::Provenance provenance) {
        const Action& action = actions[j];
        BeamEntry child;
        child.master = expanded[j].master;
        child.hash = expanded[j].hash;
        child.provenance = std::move(provenance);
        // Carry the parent's declared-preserved analyses into the child's
        // cache — the Pass framework's successor() protocol, applied per
        // search edge.
        child.cache = std::make_shared<const semantics::AnalysisCache>(
            beam[action.parent].cache->successor(
                *child.master, action_preserved(action.kind)));
        cache_registry.emplace_back(child.master, child.cache);
        return child;
      };
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        const std::size_t j = fresh[k];
        const Action& action = actions[j];
        const Metrics& metrics = measured[k].metrics;
        transform::Provenance provenance = beam[action.parent].provenance;
        provenance.push_back({action_pass_name(action.kind), action.detail});
        // insert() rejects exactly the weakly dominated points, so test
        // that first and copy the master only for a point that enters.
        if (!frontier.dominates(metrics.area, metrics.time_ns)) {
          frontier.insert({*expanded[j].master,
                           std::move(measured[k].scheduled), metrics,
                           provenance, expanded[j].hash});
          inserted_any = true;
          archive[expanded[j].hash] = make_child(j, provenance);
        }
        survivors.push_back({j, norm(metrics.area, initial.area),
                             norm(metrics.time_ns, initial.time_ns),
                             std::move(provenance)});
      }
      // Drop evicted designs from the archive: only frontier residents
      // earn guaranteed expansion.
      {
        std::unordered_set<std::uint64_t> frontier_hashes;
        for (const FrontierPoint& p : frontier.points()) {
          frontier_hashes.insert(p.design_hash);
        }
        for (auto it = archive.begin(); it != archive.end();) {
          it = frontier_hashes.count(it->first) ? std::next(it)
                                                : archive.erase(it);
        }
      }
      if (session != nullptr) {
        session->counter("pareto.frontier_size",
                         static_cast<std::int64_t>(frontier.size()));
      }
      if (obs::progress_enabled()) {
        obs::ProgressCounters& pc = obs::progress();
        pc.pareto_generation.store(gen + 1, std::memory_order_relaxed);
        pc.pareto_frontier_points.store(frontier.size(),
                                        std::memory_order_relaxed);
        // Normalized hypervolume is cheap (frontier-sized staircase sweep)
        // and only computed when a meter is live.
        const double hv =
            (initial.area > 0 && initial.time_ns > 0)
                ? frontier.hypervolume(kHypervolumeRef * initial.area,
                                       kHypervolumeRef * initial.time_ns) /
                      (initial.area * initial.time_ns)
                : 0.0;
        pc.pareto_hypervolume.store(hv, std::memory_order_relaxed);
        pc.pareto_updates.fetch_add(1, std::memory_order_relaxed);
      }

      // Beam selection. Reserved λ-grid slots first: for each λ the
      // earliest-job-index argmin of the scalarized objective (the greedy
      // acceptance rule, one per descent direction). Remaining slots fill
      // by non-domination rank with a lexicographic deterministic
      // tie-break (rank, area_norm + time_norm, job index).
      std::vector<std::size_t> selected;
      const auto already_selected = [&](std::size_t s) {
        return std::find(selected.begin(), selected.end(), s) !=
               selected.end();
      };
      for (const double lambda : options.lambda_grid) {
        if (selected.size() >= options.beam_width) break;
        std::size_t best = survivors.size();
        double best_objective = std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < survivors.size(); ++s) {
          const double objective = lambda * survivors[s].area_norm +
                                   (1.0 - lambda) * survivors[s].time_norm;
          if (objective < best_objective) {
            best_objective = objective;
            best = s;
          }
        }
        if (best < survivors.size() && !already_selected(best)) {
          selected.push_back(best);
        }
      }
      if (selected.size() < options.beam_width &&
          survivors.size() > selected.size()) {
        std::vector<std::size_t> rank(survivors.size(), 0);
        for (std::size_t a = 0; a < survivors.size(); ++a) {
          for (std::size_t b = 0; b < survivors.size(); ++b) {
            if (a == b) continue;
            const bool dominates =
                survivors[b].area_norm <= survivors[a].area_norm &&
                survivors[b].time_norm <= survivors[a].time_norm &&
                (survivors[b].area_norm < survivors[a].area_norm ||
                 survivors[b].time_norm < survivors[a].time_norm);
            if (dominates) ++rank[a];
          }
        }
        std::vector<std::size_t> rest;
        for (std::size_t s = 0; s < survivors.size(); ++s) {
          if (!already_selected(s)) rest.push_back(s);
        }
        std::sort(rest.begin(), rest.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (rank[a] != rank[b]) return rank[a] < rank[b];
                    const double sa =
                        survivors[a].area_norm + survivors[a].time_norm;
                    const double sb =
                        survivors[b].area_norm + survivors[b].time_norm;
                    if (sa != sb) return sa < sb;
                    return survivors[a].job < survivors[b].job;
                  });
        for (const std::size_t s : rest) {
          if (selected.size() >= options.beam_width) break;
          selected.push_back(s);
        }
      }

      next_beam.reserve(selected.size() + archive.size());
      std::unordered_set<std::uint64_t> in_next;
      for (const std::size_t s : selected) {
        const std::size_t j = survivors[s].job;
        if (!in_next.insert(expanded[j].hash).second) continue;
        // Frontier-inserted survivors already have an archive entry (and
        // cache) — alias it rather than building a second one.
        const auto it = archive.find(expanded[j].hash);
        next_beam.push_back(it != archive.end()
                                ? it->second
                                : make_child(j, survivors[s].provenance));
      }
      // Archive elitism: append every frontier resident the λ-slots did
      // not pick. Already-expanded residents are skipped at enumeration,
      // so this costs nothing once a design's successors have been tried.
      for (const FrontierPoint& p : frontier.points()) {
        const auto it = archive.find(p.design_hash);
        if (it == archive.end()) continue;
        if (!in_next.insert(p.design_hash).second) continue;
        next_beam.push_back(it->second);
      }
    }
    {
      // The successors and schedules that no beam entry or frontier
      // point kept, and the buffers too: returning the first large block
      // makes the allocator consolidate the chunks these frees left, a
      // cost that would otherwise land in whatever span runs next.
      const obs::ObsSpan release_span("pareto.release");
      std::vector<Expansion>().swap(expanded);
      std::vector<Measured>().swap(measured);
    }

    beam = std::move(next_beam);
    ++result.generations_run;

    if (inserted_any) {
      stall = 0;
    } else if (++stall >= kStallGenerations) {
      result.stop_reason = "converged";
      break;
    }
  }
  // Fold every cache's lifetime counters exactly once. Entries alias
  // between beam generations and the archive, so this happens off one
  // flat registry instead of at retirement points.
  for (const auto& [master, cache] : cache_registry) {
    (void)master;
    result.analysis_stats += cache->stats();
  }

  result.frontier = frontier.points();
  result.hypervolume =
      (initial.area > 0 && initial.time_ns > 0)
          ? frontier.hypervolume(kHypervolumeRef * initial.area,
                                 kHypervolumeRef * initial.time_ns) /
                (initial.area * initial.time_ns)
          : 0.0;

  if (options.verify_frontier) {
    const obs::ObsSpan verify_span("pareto.verify", [&] {
      return "{\"points\":" + std::to_string(result.frontier.size()) + "}";
    });
    for (const FrontierPoint& point : result.frontier) {
      const semantics::EquivalenceVerdict verdict =
          semantics::differential_equivalence(serial, point.scheduled,
                                              options.verify);
      if (!verdict.holds) {
        throw TransformError(
            "pareto frontier point '" +
            transform::provenance_to_string(point.provenance) +
            "' failed Def 4.1 equivalence against the seed: " + verdict.why);
      }
      ++result.verified_points;
    }
  }
  return result;
}

std::string frontier_to_json(const ParetoResult& result,
                             const std::string& design_name) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object()
      .kv("design", design_name)
      .key("objectives")
      .begin_array()
      .value("area")
      .value("time_ns")
      .end_array()
      .key("initial")
      .begin_object()
      .kv("area", result.initial.area)
      .kv("mean_cycles", result.initial.mean_cycles)
      .kv("cycle_time", result.initial.cycle_time)
      .kv("time_ns", result.initial.time_ns)
      .end_object()
      .kv("hypervolume", result.hypervolume)
      .kv("hypervolume_ref", kHypervolumeRef)
      .kv("generations", result.generations_run)
      .kv("candidates_evaluated", result.candidates_evaluated)
      .kv("dedup_hits", result.dedup_hits)
      .key("points")
      .begin_array();
  for (const FrontierPoint& point : result.frontier) {
    w.begin_object()
        .kv("hash", hash_hex(point.design_hash))
        .kv("area", point.metrics.area)
        .kv("mean_cycles", point.metrics.mean_cycles)
        .kv("cycle_time", point.metrics.cycle_time)
        .kv("time_ns", point.metrics.time_ns)
        .key("provenance")
        .begin_array();
    for (const transform::ProvenanceStep& step : point.provenance) {
      w.begin_object().kv("pass", step.pass).kv("detail", step.detail)
          .end_object();
    }
    w.end_array().end_object();
  }
  w.end_array().end_object();
  return os.str();
}

}  // namespace camad::synth
