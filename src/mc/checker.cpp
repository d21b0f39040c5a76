#include "mc/checker.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <unordered_map>
#include <utility>

#include "mc/encode.h"
#include "mc/guards.h"
#include "mc/store.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "petri/exec.h"
#include "serve/budget.h"
#include "sim/batch.h"

namespace camad::mc {
namespace {

using petri::PlaceId;
using petri::TransitionId;

/// Worker-local witness candidate: the least (depth, packed words) state
/// satisfying a property. Levels are expanded in depth order, so the
/// first candidate a worker sees is already at its minimal depth.
struct WitnessCandidate {
  bool set = false;
  std::uint32_t depth = 0;
  std::vector<std::uint64_t> words;
  StateRef ref;

  void offer(const StateCodec& codec, std::uint32_t d,
             const std::uint64_t* w, StateRef r) {
    if (set && (depth < d || codec.compare(w, words.data()) >= 0)) return;
    set = true;
    depth = d;
    words.assign(w, w + codec.words());
    ref = r;
  }
};

/// Cross-worker merge: least (depth, words).
void merge_witness(const StateCodec& codec, WitnessCandidate& into,
                   const WitnessCandidate& from) {
  if (!from.set) return;
  if (!into.set || from.depth < into.depth ||
      (from.depth == into.depth &&
       codec.compare(from.words.data(), into.words.data()) < 0)) {
    into = from;
  }
}

struct ConflictKey {
  std::uint32_t place;
  std::uint32_t a;
  std::uint32_t b;
  friend auto operator<=>(const ConflictKey&, const ConflictKey&) = default;
};

struct WorkerState {
  std::vector<std::uint64_t> succ;    // successor scratch
  std::vector<std::uint64_t> marked;  // marked-support scratch
  std::vector<std::uint32_t> marked_list;
  std::vector<std::uint32_t> allowed;  // competitor scratch
  std::vector<std::uint64_t> fired;    // transition bitset
  std::vector<std::uint64_t> conc;     // |S|*|S| bitset
  bool bounded = true;
  bool can_terminate = false;
  WitnessCandidate unsafe;
  WitnessCandidate dead;
  std::map<ConflictKey, WitnessCandidate> conflicts;
  std::vector<StateRef> new_refs;
  // One outbox of successors per store shard, handed to the store when it
  // fills and at the end of every chunk; `results` receives its outcome.
  std::vector<InsertBatch> outboxes;
  std::array<InsertResult, InsertBatch::kCapacity> results;
};

bool intersects(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

constexpr std::size_t kMaxReportedConflicts = 64;

struct Search {
  const petri::Net& net;
  const GuardModel* guards;  // nullptr = plain unguarded relation
  McOptions options;
  StateCodec codec;
  VisitedStore store;
  std::size_t workers;

  // Flattened flow relation (place indices per transition). `pre`/`post`
  // keep multiset entries (one per token moved, so the firing loops stay
  // weight-correct); `pre_unique`/`pre_need` are the deduplicated view for
  // the enabling check: place index plus required token multiplicity.
  std::vector<std::vector<std::uint32_t>> pre;
  std::vector<std::vector<std::uint32_t>> post;
  std::vector<std::vector<std::uint32_t>> pre_unique;
  std::vector<std::vector<std::uint32_t>> pre_need;
  // Competitor lists per place (transition indices of net.post(place)).
  std::vector<std::vector<std::uint32_t>> competitors;

  // Frontier of the level being expanded: packed copies (immutable while
  // workers run — workers read state words from here, never from a
  // possibly-growing arena) plus the store refs.
  std::vector<std::uint64_t> frontier_words;
  std::vector<StateRef> frontier_refs;

  std::vector<WorkerState> worker_state;

  Search(const petri::Net& n, const GuardModel* g, const McOptions& opt)
      : net(n),
        guards(g),
        options(opt),
        codec(n, opt.token_bound, g != nullptr ? g->cell_count() : 0),
        store(codec, opt.shards != 0
                         ? opt.shards
                         : std::clamp<std::size_t>(
                               8 * sim::resolve_worker_count(
                                       std::size_t{1} << 30, opt.threads),
                               16, 256)),
        workers(sim::resolve_worker_count(std::size_t{1} << 30, opt.threads)) {
    const std::size_t t_count = net.transition_count();
    pre.resize(t_count);
    post.resize(t_count);
    pre_unique.resize(t_count);
    pre_need.resize(t_count);
    for (TransitionId t : net.transitions()) {
      for (PlaceId p : net.pre(t)) pre[t.index()].push_back(p.value());
      for (PlaceId p : net.post(t)) post[t.index()].push_back(p.value());
      auto& unique = pre_unique[t.index()];
      auto& need = pre_need[t.index()];
      for (const std::uint32_t p : pre[t.index()]) {
        const auto it = std::find(unique.begin(), unique.end(), p);
        if (it == unique.end()) {
          unique.push_back(p);
          need.push_back(1);
        } else {
          ++need[static_cast<std::size_t>(it - unique.begin())];
        }
      }
    }
    competitors.resize(net.place_count());
    for (PlaceId p : net.places()) {
      for (TransitionId t : net.consumers(p)) {
        competitors[p.index()].push_back(t.value());
      }
    }
    worker_state.resize(workers);
    const std::size_t n_places = net.place_count();
    for (WorkerState& w : worker_state) {
      w.succ.resize(codec.words());
      w.marked.resize(codec.marked_words());
      w.fired.assign((t_count + 63) / 64, 0);
      w.outboxes.assign(store.shard_count(), InsertBatch(codec.words()));
      if (options.compute_concurrency) {
        w.conc.assign((n_places * n_places + 63) / 64, 0);
      }
    }
  }

  [[nodiscard]] bool token_enabled(const std::uint64_t* w,
                                   std::size_t t) const {
    const auto& unique = pre_unique[t];
    const auto& need = pre_need[t];
    for (std::size_t i = 0; i < unique.size(); ++i) {
      if (codec.tokens(w, unique[i]) < need[i]) return false;
    }
    return true;
  }

  [[nodiscard]] bool guard_allowed(const std::uint64_t* w,
                                   std::size_t t) const {
    if (guards == nullptr) return true;
    const std::int32_t cell = guards->constraint_cell(t);
    if (cell < 0) return true;
    const std::uint8_t k = codec.commitment(w, static_cast<std::size_t>(cell));
    return k == kUnknown || k == guards->constraint_value(t);
  }

  /// Canonical parent order among same-depth discoverers: least (parent
  /// packed words, transition id). Parent positions index the live
  /// frontier copy, so the comparison never touches a growing arena.
  [[nodiscard]] bool better_parent(const StateMeta& stored,
                                   const StateMeta& candidate) const {
    const std::uint64_t* sp =
        frontier_words.data() + std::size_t{stored.parent_pos} * codec.words();
    const std::uint64_t* cp =
        frontier_words.data() +
        std::size_t{candidate.parent_pos} * codec.words();
    const int c = codec.compare(cp, sp);
    if (c != 0) return c < 0;
    return candidate.via.value() < stored.via.value();
  }

  /// Inserts a worker's outbox under one acquisition of its shard's lock
  /// and records the states it added.
  void flush(WorkerState& ws, InsertBatch& outbox) {
    store.insert_or_improve(
        outbox,
        [this](const StateMeta& s, const StateMeta& c) {
          return better_parent(s, c);
        },
        ws.results.data());
    for (std::size_t i = 0; i < outbox.size(); ++i) {
      if (ws.results[i].inserted) ws.new_refs.push_back(ws.results[i].ref);
    }
    outbox.clear();
  }

  void expand(WorkerState& ws, std::size_t pos, std::uint32_t depth) {
    const std::uint64_t* w =
        frontier_words.data() + pos * codec.words();
    const StateRef ref = frontier_refs[pos];
    const std::size_t n_places = net.place_count();

    // --- per-state property visit (mirrors petri::explore's order) -----
    bool unsafe_here = false;
    bool over_bound = false;
    std::uint64_t total = 0;
    ws.marked_list.clear();
    for (std::size_t i = 0; i < n_places; ++i) {
      const std::uint32_t tok = codec.tokens(w, i);
      if (tok == 0) continue;
      ws.marked_list.push_back(static_cast<std::uint32_t>(i));
      total += tok;
      if (tok >= 2) unsafe_here = true;
      if (tok > options.token_bound) over_bound = true;
    }
    if (options.compute_concurrency) {
      for (std::size_t a = 0; a < ws.marked_list.size(); ++a) {
        const std::size_t ia = ws.marked_list[a];
        for (std::size_t b = a + 1; b < ws.marked_list.size(); ++b) {
          const std::size_t ib = ws.marked_list[b];
          const std::size_t bit1 = ia * n_places + ib;
          const std::size_t bit2 = ib * n_places + ia;
          ws.conc[bit1 >> 6] |= std::uint64_t{1} << (bit1 & 63);
          ws.conc[bit2 >> 6] |= std::uint64_t{1} << (bit2 & 63);
        }
        if (codec.tokens(w, ia) >= 2) {
          const std::size_t bit = ia * n_places + ia;
          ws.conc[bit >> 6] |= std::uint64_t{1} << (bit & 63);
        }
      }
    }
    if (unsafe_here) ws.unsafe.offer(codec, depth, w, ref);
    // Over-bound markings are visited but not expanded (and not
    // classified dead) — exactly petri::explore's cutoff.
    if (over_bound) {
      ws.bounded = false;
      return;
    }

    // --- successors ----------------------------------------------------
    bool any_allowed = false;
    for (std::size_t t = 0; t < pre.size(); ++t) {
      if (!token_enabled(w, t)) continue;
      if (!guard_allowed(w, t)) continue;
      any_allowed = true;
      ws.fired[t >> 6] |= std::uint64_t{1} << (t & 63);

      std::copy(w, w + codec.words(), ws.succ.begin());
      for (const std::uint32_t p : pre[t]) codec.remove_token(ws.succ.data(), p);
      for (const std::uint32_t p : post[t]) codec.add_token(ws.succ.data(), p);
      if (guards != nullptr && guards->cell_count() != 0) {
        const std::int32_t cell = guards->constraint_cell(t);
        if (cell >= 0) {
          codec.set_commitment(ws.succ.data(),
                               static_cast<std::size_t>(cell),
                               guards->constraint_value(t));
        }
        // Release every cell whose condition may relatch under the
        // successor marking.
        codec.marked_support(ws.succ.data(), ws.marked.data());
        for (std::size_t c = 0; c < guards->cell_count(); ++c) {
          if (codec.commitment(ws.succ.data(), c) != kUnknown &&
              intersects(ws.marked, guards->latch_support(c))) {
            codec.set_commitment(ws.succ.data(), c, kUnknown);
          }
        }
      }

      StateMeta meta;
      meta.parent = ref;
      meta.via = TransitionId(static_cast<TransitionId::underlying_type>(t));
      meta.depth = depth + 1;
      meta.parent_pos = static_cast<std::uint32_t>(pos);
      const std::uint64_t hash = codec.hash(ws.succ.data());
      InsertBatch& outbox = ws.outboxes[store.shard_of(hash)];
      outbox.push(ws.succ.data(), hash, meta);
      if (outbox.full()) flush(ws, outbox);
    }
    if (!any_allowed) {
      if (total == 0) {
        ws.can_terminate = true;
      } else {
        ws.dead.offer(codec, depth, w, ref);
      }
    }

    // --- reachable guard conflicts (rule 3, per state) -----------------
    if (guards != nullptr) {
      for (const std::uint32_t p : ws.marked_list) {
        const auto& comp = competitors[p];
        if (comp.size() < 2) continue;
        ws.allowed.clear();
        for (const std::uint32_t t : comp) {
          if (token_enabled(w, t) && guard_allowed(w, t)) {
            ws.allowed.push_back(t);
          }
        }
        for (std::size_t i = 0; i < ws.allowed.size(); ++i) {
          for (std::size_t j = i + 1; j < ws.allowed.size(); ++j) {
            const std::uint32_t a = ws.allowed[i];
            const std::uint32_t b = ws.allowed[j];
            if (guards->statically_exclusive(a, b)) continue;
            ws.conflicts[{p, a, b}].offer(codec, depth, w, ref);
          }
        }
      }
    }
  }

  [[nodiscard]] std::vector<TransitionId> trace_to(StateRef ref) const {
    std::vector<TransitionId> trace;
    StateRef cur = ref;
    while (store.meta(cur).parent.valid()) {
      trace.push_back(store.meta(cur).via);
      cur = store.meta(cur).parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  }

  McResult run() {
    const obs::ObsSpan span("mc.search");
    const auto t0 = std::chrono::steady_clock::now();
    McResult result;
    result.complete = true;
    result.tracked_cells = guards != nullptr ? guards->cell_count() : 0;

    // Seed level 0.
    frontier_words.resize(codec.words());
    codec.encode_initial(net, frontier_words.data());
    {
      InsertBatch seed(codec.words());
      seed.push(frontier_words.data(), codec.hash(frontier_words.data()), {});
      InsertResult initial;
      store.insert_or_improve(
          seed, [](const StateMeta&, const StateMeta&) { return false; },
          &initial);
      frontier_refs.assign(1, initial.ref);
    }

    std::uint32_t depth = 0;
    std::uint32_t last_expanded_depth = 0;
    while (!frontier_refs.empty()) {
      result.stats.max_frontier =
          std::max(result.stats.max_frontier, frontier_refs.size());
      if (auto* session = obs::TraceSession::active()) {
        session->counter("mc.frontier",
                         static_cast<double>(frontier_refs.size()));
        session->counter("mc.states", static_cast<double>(store.size()));
      }
      // Heartbeat slots, refreshed per level while the arenas are
      // quiescent (memory_bytes reads every shard's capacities).
      const bool live_progress = obs::progress_enabled();
      if (live_progress) {
        obs::ProgressCounters& pc = obs::progress();
        pc.mc_frontier.store(frontier_refs.size(),
                             std::memory_order_relaxed);
        pc.mc_level.store(depth, std::memory_order_relaxed);
        pc.mc_store_bytes.store(store.memory_bytes(),
                                std::memory_order_relaxed);
        pc.mc_updates.fetch_add(1, std::memory_order_relaxed);
      }

      // Eight chunks per worker balance the load; one worker runs the
      // level as one chunk, since each chunk ends by flushing every
      // non-empty outbox.
      const std::size_t chunks_per_level = workers == 1 ? 1 : workers * 8;
      const std::size_t chunk_size = std::max<std::size_t>(
          1, frontier_refs.size() / chunks_per_level);
      const std::size_t chunks =
          (frontier_refs.size() + chunk_size - 1) / chunk_size;
      sim::parallel_jobs(
          chunks, options.threads, [&](std::size_t worker, std::size_t job) {
            const std::size_t begin = job * chunk_size;
            const std::size_t end =
                std::min(begin + chunk_size, frontier_refs.size());
            WorkerState& ws = worker_state[worker];
            for (std::size_t pos = begin; pos < end; ++pos) {
              expand(ws, pos, depth);
            }
            for (InsertBatch& outbox : ws.outboxes) {
              if (!outbox.empty()) flush(ws, outbox);
            }
            // Per-chunk so long levels still show movement between
            // heartbeats; publishing never feeds back into the search.
            if (live_progress) {
              obs::progress().mc_states.fetch_add(
                  end - begin, std::memory_order_relaxed);
            }
          });
      result.state_count += frontier_refs.size();
      last_expanded_depth = depth;

      if (store.size() > options.max_states) {
        result.complete = false;
        result.cutoff_reason = "max-states";
        break;
      }
      if (options.budget != nullptr && options.budget->exhausted()) {
        result.complete = false;
        result.cutoff_reason = options.budget->reason();
        break;
      }

      // Build the next level's frontier copy (workers have joined; the
      // arenas are quiescent, so cross-shard reads are safe here).
      std::vector<StateRef> next;
      for (WorkerState& ws : worker_state) {
        next.insert(next.end(), ws.new_refs.begin(), ws.new_refs.end());
        ws.new_refs.clear();
      }
      frontier_refs = std::move(next);
      frontier_words.resize(frontier_refs.size() * codec.words());
      for (std::size_t i = 0; i < frontier_refs.size(); ++i) {
        const std::uint64_t* w = store.state(frontier_refs[i]);
        std::copy(w, w + codec.words(),
                  frontier_words.data() + i * codec.words());
      }
      ++depth;
    }
    result.depth = last_expanded_depth;

    // --- merge worker aggregates (all commutative) ----------------------
    WitnessCandidate unsafe_cand;
    WitnessCandidate dead_cand;
    std::map<ConflictKey, WitnessCandidate> conflict_cands;
    std::vector<std::uint64_t> fired((net.transition_count() + 63) / 64, 0);
    const std::size_t n_places = net.place_count();
    std::vector<std::uint64_t> conc;
    if (options.compute_concurrency) {
      conc.assign((n_places * n_places + 63) / 64, 0);
    }
    for (const WorkerState& ws : worker_state) {
      result.bounded = result.bounded && ws.bounded;
      result.can_terminate = result.can_terminate || ws.can_terminate;
      for (std::size_t i = 0; i < fired.size(); ++i) fired[i] |= ws.fired[i];
      if (options.compute_concurrency) {
        for (std::size_t i = 0; i < conc.size(); ++i) conc[i] |= ws.conc[i];
      }
      merge_witness(codec, unsafe_cand, ws.unsafe);
      merge_witness(codec, dead_cand, ws.dead);
      for (const auto& [key, cand] : ws.conflicts) {
        merge_witness(codec, conflict_cands[key], cand);
      }
    }

    if (unsafe_cand.set) {
      result.safe = false;
      result.unsafe_witness = codec.marking(unsafe_cand.words.data());
      if (options.collect_traces) {
        result.unsafe_trace = trace_to(unsafe_cand.ref);
      }
    }
    if (dead_cand.set) {
      result.deadlock = true;
      result.deadlock_witness = codec.marking(dead_cand.words.data());
      if (options.collect_traces) {
        result.deadlock_trace = trace_to(dead_cand.ref);
      }
    }
    for (const auto& [key, cand] : conflict_cands) {
      if (result.conflicts.size() >= kMaxReportedConflicts) {
        ++result.conflicts_truncated;
        continue;
      }
      McConflict conflict;
      conflict.place = PlaceId(key.place);
      conflict.a = TransitionId(key.a);
      conflict.b = TransitionId(key.b);
      conflict.unguarded = guards != nullptr && (!guards->guarded(key.a) ||
                                                 !guards->guarded(key.b));
      conflict.marking = codec.marking(cand.words.data());
      if (options.collect_traces) conflict.trace = trace_to(cand.ref);
      result.conflicts.push_back(std::move(conflict));
    }

    for (std::size_t t = 0; t < net.transition_count(); ++t) {
      if (((fired[t >> 6] >> (t & 63)) & 1U) == 0) {
        result.dead_transitions.push_back(
            TransitionId(static_cast<TransitionId::underlying_type>(t)));
      }
    }
    if (options.compute_concurrency) {
      result.concurrency.assign(n_places * n_places, false);
      for (std::size_t bit = 0; bit < n_places * n_places; ++bit) {
        if ((conc[bit >> 6] >> (bit & 63)) & 1U) {
          result.concurrency[bit] = true;
        }
      }
    }

    // Distinct marking projections among expanded states. Without
    // commitment cells the encoding is a marking bijection, so the store
    // already counts them.
    if (codec.commitment_count() == 0) {
      result.marking_count = result.state_count;
    } else {
      std::unordered_map<std::uint64_t, std::vector<const std::uint64_t*>>
          buckets;
      store.for_each([&](StateRef, const std::uint64_t* w,
                         const StateMeta& meta) {
        if (meta.depth > last_expanded_depth) return;  // never expanded
        auto& bucket = buckets[codec.marking_hash(w)];
        for (const std::uint64_t* other : bucket) {
          if (codec.same_marking(w, other)) return;
        }
        bucket.push_back(w);
        ++result.marking_count;
      });
    }

    const StoreStats store_stats = store.stats();
    result.stats.threads = workers;
    result.stats.shard_count = store_stats.shard_count;
    result.stats.max_shard_entries = store_stats.max_shard_entries;
    result.stats.max_probe_length = store_stats.max_probe_length;
    result.stats.store_bytes = store_stats.bytes;
    result.stats.shard_entries = store_stats.shard_entries;
    result.stats.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    result.stats.states_per_second =
        result.stats.seconds > 0.0
            ? static_cast<double>(result.state_count) / result.stats.seconds
            : 0.0;
    if (auto* session = obs::TraceSession::active()) {
      session->counter("mc.states", static_cast<double>(store.size()));
    }
    return result;
  }
};

}  // namespace

bool same_verdicts(const McResult& a, const McResult& b) {
  return a.complete == b.complete && a.cutoff_reason == b.cutoff_reason &&
         a.safe == b.safe && a.bounded == b.bounded &&
         a.deadlock == b.deadlock && a.can_terminate == b.can_terminate &&
         a.state_count == b.state_count &&
         a.marking_count == b.marking_count && a.depth == b.depth &&
         a.tracked_cells == b.tracked_cells &&
         a.unsafe_witness == b.unsafe_witness &&
         a.deadlock_witness == b.deadlock_witness &&
         a.unsafe_trace == b.unsafe_trace &&
         a.deadlock_trace == b.deadlock_trace &&
         a.concurrency == b.concurrency &&
         a.dead_transitions == b.dead_transitions &&
         a.conflicts == b.conflicts &&
         a.conflicts_truncated == b.conflicts_truncated;
}

McResult model_check(const petri::Net& net, const McOptions& options) {
  Search search(net, nullptr, options);
  return search.run();
}

McResult model_check(const dcf::System& system, const McOptions& options) {
  if (!options.use_guards) {
    return model_check(system.control().net(), options);
  }
  const GuardModel guards(system);
  Search search(system.control().net(), &guards, options);
  return search.run();
}

std::optional<petri::Marking> replay_trace(
    const petri::Net& net, const std::vector<TransitionId>& trace) {
  petri::Marking m = petri::Marking::initial(net);
  for (const TransitionId t : trace) {
    if (!petri::is_enabled(net, m, t)) return std::nullopt;
    m = petri::fire(net, m, t);
  }
  return m;
}

}  // namespace camad::mc
