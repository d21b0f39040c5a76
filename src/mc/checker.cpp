#include "mc/checker.h"

#include <algorithm>
#include <array>
#include <chrono>
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

[[nodiscard]] bool test_bit(const std::uint64_t* bits, std::size_t i) {
  return ((bits[i >> 6] >> (i & 63)) & 1U) != 0;
}
void set_bit(std::uint64_t* bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}
void clear_bit(std::uint64_t* bits, std::size_t i) {
  bits[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
}

bool intersects(const std::vector<std::uint64_t>& a,
                const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

/// Position of competitor pair (i, j), i < j, among the k(k-1)/2 pairs of
/// a place with k competitors, pairs ordered by (i, j).
[[nodiscard]] std::size_t pair_index(std::size_t i, std::size_t j,
                                     std::size_t k) {
  return i * (2 * k - i - 1) / 2 + (j - i - 1);
}

constexpr std::uint32_t kNoSlot = 0xffffffffU;

struct WorkerState {
  std::vector<std::uint64_t> succ;         // successor scratch
  std::vector<std::uint64_t> marked;       // marked places of the state
  std::vector<std::uint32_t> marked_list;  // the same, as ascending ids
  std::vector<std::uint64_t> succ_marked;  // marked places of a successor
  std::vector<std::uint64_t> allowed;      // enabled, guard-allowed
                                           // transitions of the state
  std::vector<std::uint32_t> competing;    // rule-3 competitor scratch
  std::vector<std::uint64_t> fired;        // transition bitset
  // Concurrency: row p (place_words words) ORs the marked set of every
  // state that marks p; its diagonal bit is replaced by `multi` (places
  // that held two or more tokens) when the relation is read out.
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> multi;
  bool bounded = true;
  bool can_terminate = false;
  WitnessCandidate unsafe;
  WitnessCandidate dead;
  std::vector<WitnessCandidate> conflicts;  // one per conflict slot
  std::size_t successors = 0;
  // States this worker inserted during the level, in insertion order:
  // its share of the next frontier.
  std::vector<StateRef> next_refs;
  std::vector<std::uint64_t> next_words;
  // One outbox of successors per store shard, handed to the store when it
  // fills and at the end of every chunk; `results` receives its outcome.
  std::vector<InsertBatch> outboxes;
  std::array<InsertResult, InsertBatch::kCapacity> results;
};

constexpr std::size_t kMaxReportedConflicts = 64;

struct Search {
  const petri::Net& net;
  const GuardModel* guards;  // nullptr = plain unguarded relation
  McOptions options;
  StateCodec codec;
  VisitedStore store;
  std::size_t workers;
  std::size_t place_words;  // words of a place bitset

  // Flattened flow relation (place indices per transition). `pre`/`post`
  // keep multiset entries (one per token moved, so the firing loops stay
  // weight-correct). Enabling reads `pre_mask` (transition t's input
  // places, place_words words at t * place_words) against the marked
  // set, and token counts only for the arcs in `heavy`, those that take
  // two or more tokens (transition t's at heavy_begin[t]..[t + 1]).
  std::vector<std::vector<std::uint32_t>> pre;
  std::vector<std::vector<std::uint32_t>> post;
  std::vector<std::uint64_t> pre_mask;
  std::vector<std::uint32_t> heavy_begin;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> heavy;  // place, need

  // Rule 3 (guard-aware runs only). Competitor lists per place
  // (transition indices of net.consumers(place)); pair (i, j) of place p
  // owns pair_slot[pair_base[p] + pair_index(i, j, k)], its witness slot,
  // or kNoSlot when the pair is statically exclusive. Slots are numbered
  // in ConflictKey order, the order conflicts are reported in, and
  // conflict_keys[slot] is the slot's key.
  std::vector<std::vector<std::uint32_t>> competitors;
  std::vector<std::size_t> pair_base;
  std::vector<std::uint32_t> pair_slot;
  std::vector<ConflictKey> conflict_keys;

  // Frontier of the level being expanded: packed copies (immutable while
  // workers run — workers read state words from here, never from
  // possibly-growing records) plus the store refs.
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
        workers(sim::resolve_worker_count(std::size_t{1} << 30, opt.threads)),
        place_words(codec.marked_words()) {
    const std::size_t t_count = net.transition_count();
    const std::size_t n_places = net.place_count();
    pre.resize(t_count);
    post.resize(t_count);
    pre_mask.assign(t_count * place_words, 0);
    heavy_begin.assign(t_count + 1, 0);
    for (TransitionId t : net.transitions()) {
      auto& in = pre[t.index()];
      for (PlaceId p : net.pre(t)) in.push_back(p.value());
      for (PlaceId p : net.post(t)) post[t.index()].push_back(p.value());
      for (auto p = in.begin(); p != in.end(); ++p) {
        set_bit(pre_mask.data() + t.index() * place_words, *p);
        // A weighted arc lists its place once per token it takes.
        if (std::find(in.begin(), p, *p) != p) continue;
        const auto need =
            static_cast<std::uint32_t>(std::count(p, in.end(), *p));
        if (need >= 2) heavy.emplace_back(*p, need);
      }
      heavy_begin[t.index() + 1] = static_cast<std::uint32_t>(heavy.size());
    }
    if (guards != nullptr) build_conflict_slots();
    worker_state.resize(workers);
    for (WorkerState& w : worker_state) {
      w.succ.resize(codec.words());
      w.marked.resize(place_words);
      w.succ_marked.resize(place_words);
      w.allowed.resize((t_count + 63) / 64);
      w.fired.assign((t_count + 63) / 64, 0);
      w.outboxes.assign(store.shard_count(), InsertBatch(codec.words()));
      w.conflicts.resize(conflict_keys.size());
      if (options.compute_concurrency) {
        w.rows.assign(n_places * place_words, 0);
        w.multi.assign(place_words, 0);
      }
    }
  }

  void build_conflict_slots() {
    const std::size_t n_places = net.place_count();
    competitors.resize(n_places);
    pair_base.assign(n_places + 1, 0);
    std::vector<std::pair<ConflictKey, std::size_t>> keyed;
    for (PlaceId p : net.places()) {
      auto& comp = competitors[p.index()];
      for (TransitionId t : net.consumers(p)) comp.push_back(t.value());
      const std::size_t k = comp.size();
      pair_base[p.index() + 1] =
          pair_base[p.index()] + (k < 2 ? 0 : k * (k - 1) / 2);
      for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = i + 1; j < k; ++j) {
          if (guards->statically_exclusive(comp[i], comp[j])) continue;
          keyed.push_back({{p.value(), comp[i], comp[j]},
                           pair_base[p.index()] + pair_index(i, j, k)});
        }
      }
    }
    std::sort(keyed.begin(), keyed.end());
    pair_slot.assign(pair_base.back(), kNoSlot);
    conflict_keys.reserve(keyed.size());
    for (const auto& [key, at] : keyed) {
      pair_slot[at] = static_cast<std::uint32_t>(conflict_keys.size());
      conflict_keys.push_back(key);
    }
  }

  [[nodiscard]] bool token_enabled(const std::uint64_t* marked,
                                   const std::uint64_t* w,
                                   std::size_t t) const {
    const std::uint64_t* need = pre_mask.data() + t * place_words;
    for (std::size_t i = 0; i < place_words; ++i) {
      if ((need[i] & ~marked[i]) != 0) return false;
    }
    for (std::uint32_t a = heavy_begin[t]; a < heavy_begin[t + 1]; ++a) {
      if (codec.tokens(w, heavy[a].first) < heavy[a].second) return false;
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
  /// frontier copy, so the comparison never touches growing records.
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
  /// and appends the states it added to the worker's next frontier.
  void flush(WorkerState& ws, InsertBatch& outbox) {
    store.insert_or_improve(
        outbox,
        [this](const StateMeta& s, const StateMeta& c) {
          return better_parent(s, c);
        },
        ws.results.data());
    for (std::size_t i = 0; i < outbox.size(); ++i) {
      if (!ws.results[i].inserted) continue;
      ws.next_refs.push_back(ws.results[i].ref);
      ws.next_words.insert(ws.next_words.end(), outbox.words(i),
                           outbox.words(i) + codec.words());
    }
    outbox.clear();
  }

  void expand(WorkerState& ws, std::size_t pos, std::uint32_t depth) {
    const std::uint64_t* w =
        frontier_words.data() + pos * codec.words();
    const StateRef ref = frontier_refs[pos];

    // --- per-state property visit (mirrors petri::explore's order) -----
    // One pass over the packed marking builds the marked-place bitset.
    bool unsafe_here = false;
    bool over_bound = false;
    std::fill(ws.marked.begin(), ws.marked.end(), 0);
    ws.marked_list.clear();
    codec.for_each_marked(w, [&](std::size_t p, std::uint32_t tokens) {
      set_bit(ws.marked.data(), p);
      ws.marked_list.push_back(static_cast<std::uint32_t>(p));
      if (tokens >= 2) {
        unsafe_here = true;
        if (options.compute_concurrency) set_bit(ws.multi.data(), p);
      }
      if (tokens > options.token_bound) over_bound = true;
    });
    if (options.compute_concurrency) {
      for (const std::uint32_t p : ws.marked_list) {
        std::uint64_t* row = ws.rows.data() + std::size_t{p} * place_words;
        for (std::size_t i = 0; i < place_words; ++i) row[i] |= ws.marked[i];
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
    std::fill(ws.allowed.begin(), ws.allowed.end(), 0);
    for (std::size_t t = 0; t < pre.size(); ++t) {
      if (!token_enabled(ws.marked.data(), w, t)) continue;
      if (!guard_allowed(w, t)) continue;
      any_allowed = true;
      set_bit(ws.allowed.data(), t);

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
        // successor marking: the state's marked places, less those t
        // emptied, plus t's outputs.
        ws.succ_marked = ws.marked;
        for (const std::uint32_t p : pre[t]) {
          if (codec.tokens(ws.succ.data(), p) == 0) {
            clear_bit(ws.succ_marked.data(), p);
          }
        }
        for (const std::uint32_t p : post[t]) {
          set_bit(ws.succ_marked.data(), p);
        }
        for (std::size_t c = 0; c < guards->cell_count(); ++c) {
          if (codec.commitment(ws.succ.data(), c) != kUnknown &&
              intersects(ws.succ_marked, guards->latch_support(c))) {
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
      ++ws.successors;
      if (outbox.full()) flush(ws, outbox);
    }
    for (std::size_t i = 0; i < ws.allowed.size(); ++i) {
      ws.fired[i] |= ws.allowed[i];
    }
    if (!any_allowed) {
      if (ws.marked_list.empty()) {
        ws.can_terminate = true;
      } else {
        ws.dead.offer(codec, depth, w, ref);
      }
    }

    // --- reachable guard conflicts (rule 3, per state) -----------------
    // Every pair of a marked place's allowed competitors that is not
    // statically exclusive offers the state to its witness slot.
    if (guards != nullptr) {
      for (const std::uint32_t p : ws.marked_list) {
        const auto& comp = competitors[p];
        if (comp.size() < 2) continue;
        ws.competing.clear();
        for (std::size_t i = 0; i < comp.size(); ++i) {
          if (test_bit(ws.allowed.data(), comp[i])) {
            ws.competing.push_back(static_cast<std::uint32_t>(i));
          }
        }
        for (std::size_t x = 0; x < ws.competing.size(); ++x) {
          for (std::size_t y = x + 1; y < ws.competing.size(); ++y) {
            const std::uint32_t slot =
                pair_slot[pair_base[p] + pair_index(ws.competing[x],
                                                    ws.competing[y],
                                                    comp.size())];
            if (slot != kNoSlot) ws.conflicts[slot].offer(codec, depth, w, ref);
          }
        }
      }
    }
  }

  [[nodiscard]] std::vector<TransitionId> trace_to(StateRef ref) const {
    std::vector<TransitionId> trace;
    for (StateMeta meta = store.meta(ref); meta.parent.valid();
         meta = store.meta(meta.parent)) {
      trace.push_back(meta.via);
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
      // Heartbeat slots, refreshed per level while the records are
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

      // The next level's frontier: the workers' new states, concatenated
      // in worker order.
      frontier_refs.clear();
      frontier_words.clear();
      for (WorkerState& ws : worker_state) {
        frontier_refs.insert(frontier_refs.end(), ws.next_refs.begin(),
                             ws.next_refs.end());
        frontier_words.insert(frontier_words.end(), ws.next_words.begin(),
                              ws.next_words.end());
        ws.next_refs.clear();
        ws.next_words.clear();
      }
      ++depth;
    }
    result.depth = last_expanded_depth;

    // --- merge worker aggregates (all commutative) ----------------------
    WitnessCandidate unsafe_cand;
    WitnessCandidate dead_cand;
    std::vector<WitnessCandidate> conflict_cands(conflict_keys.size());
    std::vector<std::uint64_t> fired((net.transition_count() + 63) / 64, 0);
    const std::size_t n_places = net.place_count();
    std::vector<std::uint64_t> rows;
    std::vector<std::uint64_t> multi;
    if (options.compute_concurrency) {
      rows.assign(n_places * place_words, 0);
      multi.assign(place_words, 0);
    }
    for (const WorkerState& ws : worker_state) {
      result.bounded = result.bounded && ws.bounded;
      result.can_terminate = result.can_terminate || ws.can_terminate;
      result.stats.successors += ws.successors;
      for (std::size_t i = 0; i < fired.size(); ++i) fired[i] |= ws.fired[i];
      for (std::size_t i = 0; i < rows.size(); ++i) rows[i] |= ws.rows[i];
      for (std::size_t i = 0; i < multi.size(); ++i) multi[i] |= ws.multi[i];
      merge_witness(codec, unsafe_cand, ws.unsafe);
      merge_witness(codec, dead_cand, ws.dead);
      for (std::size_t slot = 0; slot < conflict_cands.size(); ++slot) {
        merge_witness(codec, conflict_cands[slot], ws.conflicts[slot]);
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
    for (std::size_t slot = 0; slot < conflict_cands.size(); ++slot) {
      const WitnessCandidate& cand = conflict_cands[slot];
      if (!cand.set) continue;
      if (result.conflicts.size() >= kMaxReportedConflicts) {
        ++result.conflicts_truncated;
        continue;
      }
      const ConflictKey& key = conflict_keys[slot];
      McConflict conflict;
      conflict.place = PlaceId(key.place);
      conflict.a = TransitionId(key.a);
      conflict.b = TransitionId(key.b);
      conflict.unguarded = !guards->guarded(key.a) || !guards->guarded(key.b);
      conflict.marking = codec.marking(cand.words.data());
      if (options.collect_traces) conflict.trace = trace_to(cand.ref);
      result.conflicts.push_back(std::move(conflict));
    }

    for (std::size_t t = 0; t < net.transition_count(); ++t) {
      if (!test_bit(fired.data(), t)) {
        result.dead_transitions.push_back(
            TransitionId(static_cast<TransitionId::underlying_type>(t)));
      }
    }
    if (options.compute_concurrency) {
      result.concurrency.assign(n_places * n_places, false);
      for (std::size_t a = 0; a < n_places; ++a) {
        const std::uint64_t* row = rows.data() + a * place_words;
        for (std::size_t b = 0; b < n_places; ++b) {
          result.concurrency[a * n_places + b] =
              a == b ? test_bit(multi.data(), a) : test_bit(row, b);
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
    result.stats.same_depth_rediscoveries =
        store_stats.same_depth_rediscoveries;
    result.stats.older_rediscoveries = store_stats.older_rediscoveries;
    result.stats.parent_replacements = store_stats.parent_replacements;
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
