// Sharded open-addressing visited-state store for the parallel BFS.
//
// States hash-partition across shards; each shard owns a mutex, an
// open-addressing slot table (linear probing over 32-bit entry indices),
// a packed-word arena and a per-entry metadata record (canonical parent
// pointer + discovering transition + BFS depth) for counterexample-trace
// reconstruction.
//
// Concurrency contract (what makes the level-synchronized search safe):
//   * Writers hand the store a whole InsertBatch: candidates bound for
//     one shard, inserted under one acquisition of that shard's lock.
//     Each mc worker buffers its successors in one fixed-capacity batch
//     (outbox) per shard and hands an outbox over when it fills and at
//     the end of every chunk, so a lock is taken once per
//     InsertBatch::kCapacity successors (plus once per non-empty outbox
//     at a chunk's end), and every successor of a level is stored before
//     the level's workers join. Probing and the parent-improvement
//     comparison read only that shard's arena/metadata plus
//     caller-supplied immutable buffers (the level's frontier copy).
//   * Shards are cache-line aligned, so workers holding the locks of
//     neighbouring shards do not write to one line.
//   * Cross-shard reads (`state()`, `meta()`, the end-of-run passes) are
//     only performed between levels / after the search joins, when no
//     writer is active — workers never dereference another shard's arena
//     while it may grow.
// Parent improvement keeps, among all same-depth discoverers of a state,
// the one with the lexicographically least (parent words, transition id)
// key, which makes every reconstructed trace independent of thread count,
// batching and scheduling.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "mc/encode.h"
#include "petri/net.h"

namespace camad::mc {

/// Stable handle to a stored state: shard number + index in that shard.
struct StateRef {
  std::uint32_t shard = 0xffffffffU;
  std::uint32_t index = 0xffffffffU;

  [[nodiscard]] bool valid() const { return shard != 0xffffffffU; }
  friend bool operator==(const StateRef&, const StateRef&) = default;
};

/// Per-state search metadata. `parent_pos` is the parent's position in
/// the frontier buffer of its level — valid only while that level's
/// frontier copy is alive; trace reconstruction uses `parent` instead.
struct StateMeta {
  StateRef parent;
  petri::TransitionId via;
  std::uint32_t depth = 0;
  std::uint32_t parent_pos = 0xffffffffU;
};

struct StoreStats {
  std::size_t shard_count = 0;
  std::size_t max_shard_entries = 0;
  std::size_t max_probe_length = 0;
  /// Resident footprint (slot tables + hashes + arenas + metadata).
  std::size_t bytes = 0;
  /// Entry count per shard, shard order — the occupancy histogram the
  /// memory-accounting gauges publish.
  std::vector<std::size_t> shard_entries;
};

/// Candidates bound for one shard, in the order they were pushed: packed
/// words, hash and metadata of at most kCapacity states. The storage is
/// allocated once, at construction.
class InsertBatch {
 public:
  /// Candidates one batch holds: the inserts one acquisition of a
  /// shard's lock covers.
  static constexpr std::size_t kCapacity = 64;

  explicit InsertBatch(std::size_t words)
      : words_(words), arena_(kCapacity * words) {}

  /// Appends a candidate; the batch must not be full.
  void push(const std::uint64_t* words, std::uint64_t hash,
            const StateMeta& meta) {
    assert(size_ < kCapacity);
    std::copy(words, words + words_, arena_.data() + size_ * words_);
    hashes_[size_] = hash;
    meta_[size_] = meta;
    ++size_;
  }
  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] bool full() const { return size_ == kCapacity; }
  [[nodiscard]] const std::uint64_t* words(std::size_t i) const {
    return arena_.data() + i * words_;
  }
  [[nodiscard]] std::uint64_t hash(std::size_t i) const { return hashes_[i]; }
  [[nodiscard]] const StateMeta& meta(std::size_t i) const {
    return meta_[i];
  }

 private:
  std::size_t words_;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> arena_;
  std::array<std::uint64_t, kCapacity> hashes_{};
  std::array<StateMeta, kCapacity> meta_{};
};

/// What inserting one candidate did: the entry's handle and whether the
/// candidate was new.
struct InsertResult {
  StateRef ref;
  bool inserted = false;
};

class VisitedStore {
 public:
  /// `shard_count` is rounded up to a power of two.
  VisitedStore(const StateCodec& codec, std::size_t shard_count);

  /// Shard that owns states with this hash.
  [[nodiscard]] std::uint32_t shard_of(std::uint64_t hash) const {
    // shard_shift_ == 64 would be UB in the shift; single-shard stores
    // use shard 0 directly.
    return static_cast<std::uint32_t>(
        shards_.size() == 1 ? 0 : hash >> shard_shift_);
  }

  /// Inserts every candidate of `batch`, all of which must belong to one
  /// shard, under one acquisition of that shard's lock, in batch order
  /// and with the same outcome as inserting them one at a time: a
  /// candidate is stored if new; otherwise, when the existing entry was
  /// discovered at the same depth, `better(stored, candidate)` decides
  /// whether the candidate metadata canonically improves the stored one.
  /// results[i] receives candidate i's entry handle and whether it was
  /// newly inserted.
  template <typename Better>
  void insert_or_improve(const InsertBatch& batch, Better&& better,
                         InsertResult* results);

  /// Packed words of a stored state. Safe only while no insert can run
  /// (between levels / after the search).
  [[nodiscard]] const std::uint64_t* state(StateRef ref) const {
    return shards_[ref.shard].arena.data() + std::size_t{ref.index} * words_;
  }
  [[nodiscard]] const StateMeta& meta(StateRef ref) const {
    return shards_[ref.shard].meta[ref.index];
  }

  /// Total entries across shards. Exact only while no insert can run.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Resident bytes across all shards (vector capacities of the slot
  /// tables, hash arrays, packed-state arenas and metadata records).
  /// Safe only while no insert can run — the level-synchronized search
  /// reads it between levels, like state().
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Invokes fn(ref, words, meta) for every stored entry (single-threaded,
  /// after the search).
  void for_each(const std::function<void(StateRef, const std::uint64_t*,
                                         const StateMeta&)>& fn) const;

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::uint32_t> slots;  ///< entry index + 1; 0 = empty
    std::vector<std::uint64_t> hashes;
    std::vector<std::uint64_t> arena;  ///< entries * words packed states
    std::vector<StateMeta> meta;
    std::size_t count = 0;
    std::size_t max_probe = 0;
  };

  /// One candidate of insert_or_improve; the caller holds `shard.mu`.
  template <typename Better>
  InsertResult insert_locked(Shard& shard, std::uint32_t shard_index,
                             const std::uint64_t* words, std::uint64_t hash,
                             const StateMeta& meta, Better& better);
  void grow(Shard& shard);

  const StateCodec* codec_;
  std::size_t words_;
  std::uint32_t shard_shift_;  ///< top bits of the hash select the shard
  std::vector<Shard> shards_;
};

template <typename Better>
void VisitedStore::insert_or_improve(const InsertBatch& batch,
                                     Better&& better,
                                     InsertResult* results) {
  if (batch.empty()) return;
  const std::uint32_t shard_index = shard_of(batch.hash(0));
  Shard& shard = shards_[shard_index];
  const std::lock_guard<std::mutex> lock(shard.mu);
  // Request every candidate's home slot before probing the first, so the
  // batch's slot-table misses overlap instead of queueing one by one.
  const std::size_t mask = shard.slots.size() - 1;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    __builtin_prefetch(shard.slots.data() + (batch.hash(i) & mask));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    assert(shard_of(batch.hash(i)) == shard_index);
    results[i] = insert_locked(shard, shard_index, batch.words(i),
                               batch.hash(i), batch.meta(i), better);
  }
}

template <typename Better>
InsertResult VisitedStore::insert_locked(Shard& shard,
                                         std::uint32_t shard_index,
                                         const std::uint64_t* words,
                                         std::uint64_t hash,
                                         const StateMeta& meta,
                                         Better& better) {
  if ((shard.count + 1) * 10 > shard.slots.size() * 7) grow(shard);
  const std::size_t mask = shard.slots.size() - 1;
  std::size_t pos = hash & mask;
  std::size_t probe = 1;
  while (shard.slots[pos] != 0) {
    const std::uint32_t entry = shard.slots[pos] - 1;
    if (shard.hashes[entry] == hash &&
        codec_->equal(words,
                      shard.arena.data() + std::size_t{entry} * words_)) {
      // Canonical-parent improvement among same-depth discoverers.
      StateMeta& stored = shard.meta[entry];
      if (stored.depth == meta.depth && better(stored, meta)) stored = meta;
      return {{shard_index, entry}, false};
    }
    pos = (pos + 1) & mask;
    ++probe;
  }
  shard.max_probe = std::max(shard.max_probe, probe);

  const auto entry = static_cast<std::uint32_t>(shard.count);
  shard.slots[pos] = entry + 1;
  shard.hashes.push_back(hash);
  shard.arena.insert(shard.arena.end(), words, words + words_);
  shard.meta.push_back(meta);
  ++shard.count;
  return {{shard_index, entry}, true};
}

}  // namespace camad::mc
