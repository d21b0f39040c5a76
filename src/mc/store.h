// Sharded open-addressing visited-state store for the parallel BFS.
//
// States hash-partition across shards. Each shard owns a mutex, a slot
// table and one record array:
//   * a slot is one 64-bit word: the entry index + 1 in the low half
//     (0 = empty) and the low 32 bits of the entry's hash in the high
//     half. Linear probing starts at hash & mask, so a probe rejects an
//     entry whose hash differs without leaving the slot's cache line, and
//     grow() rehashes from the slots alone;
//   * a record is the entry's packed state words followed by two
//     metadata words: the parent's StateRef (shard << 32 | index), then
//     the discovering transition (low half) and the BFS depth (high
//     half). Records are contiguous, in insertion order.
// The canonical-parent comparison also needs the stored parent's
// position in its level's frontier copy. Only entries of the newest depth
// can still be compared, so each shard keeps those positions for its
// newest depth only, in a side array it clears when a deeper candidate
// arrives.
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
//     comparison read only that shard's slots and records plus
//     caller-supplied immutable buffers (the level's frontier copy).
//   * Within a shard, candidate depths never decrease (the BFS inserts
//     level by level), which is what lets a shard keep frontier positions
//     for its newest depth only.
//   * Shards are cache-line aligned, so workers holding the locks of
//     neighbouring shards do not write to one line.
//   * Cross-shard reads (`state()`, `meta()`, the end-of-run passes) are
//     only performed between levels / after the search joins, when no
//     writer is active — workers never dereference another shard's
//     records while they may grow.
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
/// the frontier buffer of its level: the store keeps it only while its
/// entry is of the shard's newest depth, for the comparison it hands to
/// `better`, and meta() does not return it. Trace reconstruction uses
/// `parent`.
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
  /// Resident footprint (slot tables + records + newest-depth positions).
  std::size_t bytes = 0;
  /// Entry count per shard, shard order — the occupancy histogram the
  /// memory-accounting gauges publish.
  std::vector<std::size_t> shard_entries;
  /// Candidates that found their state stored at their own depth, at a
  /// smaller depth, and same-depth ones that replaced the stored parent.
  std::size_t same_depth_rediscoveries = 0;
  std::size_t older_rediscoveries = 0;
  std::size_t parent_replacements = 0;
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
  /// A shard's candidate depths must not decrease from batch to batch.
  /// results[i] receives candidate i's entry handle and whether it was
  /// newly inserted.
  template <typename Better>
  void insert_or_improve(const InsertBatch& batch, Better&& better,
                         InsertResult* results);

  /// Packed words of a stored state. Safe only while no insert can run
  /// (between levels / after the search).
  [[nodiscard]] const std::uint64_t* state(StateRef ref) const {
    return record(shards_[ref.shard], ref.index);
  }
  /// Parent, transition and depth of a stored state (parent_pos unset).
  /// Same safety rule as state().
  [[nodiscard]] StateMeta meta(StateRef ref) const {
    return unpack(record(shards_[ref.shard], ref.index) + words_);
  }

  /// Total entries across shards. Exact only while no insert can run.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Resident bytes across all shards (vector capacities of the slot
  /// tables, records and newest-depth positions). Safe only while no
  /// insert can run — the level-synchronized search reads it between
  /// levels, like state().
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Invokes fn(ref, words, meta) for every stored entry (single-threaded,
  /// after the search).
  void for_each(const std::function<void(StateRef, const std::uint64_t*,
                                         const StateMeta&)>& fn) const;

 private:
  struct alignas(64) Shard {
    std::mutex mu;
    std::vector<std::uint64_t> slots;    ///< hash low half << 32 | entry + 1
    std::vector<std::uint64_t> records;  ///< count records of stride_ words
    /// parent_pos of entries [newest_begin, count), all at newest_depth.
    std::vector<std::uint32_t> newest_parent_pos;
    std::size_t newest_begin = 0;
    std::uint32_t newest_depth = 0;
    std::size_t count = 0;
    std::size_t max_probe = 0;
    std::size_t same_depth = 0;
    std::size_t older = 0;
    std::size_t replaced = 0;
  };

  [[nodiscard]] const std::uint64_t* record(const Shard& shard,
                                            std::size_t entry) const {
    return shard.records.data() + entry * stride_;
  }
  static void pack(const StateMeta& meta, std::uint64_t* out) {
    out[0] = std::uint64_t{meta.parent.shard} << 32 | meta.parent.index;
    out[1] = std::uint64_t{meta.depth} << 32 | meta.via.value();
  }
  static StateMeta unpack(const std::uint64_t* in) {
    StateMeta meta;
    meta.parent = {static_cast<std::uint32_t>(in[0] >> 32),
                   static_cast<std::uint32_t>(in[0])};
    meta.via = petri::TransitionId(static_cast<std::uint32_t>(in[1]));
    meta.depth = static_cast<std::uint32_t>(in[1] >> 32);
    return meta;
  }

  /// One candidate of insert_or_improve; the caller holds `shard.mu`.
  template <typename Better>
  InsertResult insert_locked(Shard& shard, std::uint32_t shard_index,
                             const std::uint64_t* words, std::uint64_t hash,
                             const StateMeta& meta, Better& better);
  void grow(Shard& shard);

  const StateCodec* codec_;
  std::size_t words_;
  std::size_t stride_;  ///< words per record: packed state + 2 metadata
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
  if (meta.depth != shard.newest_depth) {
    assert(meta.depth > shard.newest_depth);
    shard.newest_depth = meta.depth;
    shard.newest_begin = shard.count;
    shard.newest_parent_pos.clear();
  }
  if ((shard.count + 1) * 10 > shard.slots.size() * 7) grow(shard);
  const std::size_t mask = shard.slots.size() - 1;
  const std::uint64_t tag = hash << 32;
  std::size_t pos = hash & mask;
  std::size_t probe = 1;
  for (std::uint64_t slot = shard.slots[pos]; slot != 0;
       slot = shard.slots[pos]) {
    const auto entry = static_cast<std::uint32_t>(slot - 1);
    std::uint64_t* rec = shard.records.data() + std::size_t{entry} * stride_;
    if ((slot ^ tag) >> 32 == 0 && codec_->equal(words, rec)) {
      StateMeta stored = unpack(rec + words_);
      if (stored.depth != meta.depth) {
        ++shard.older;
      } else {
        // Canonical-parent improvement among same-depth discoverers.
        ++shard.same_depth;
        std::uint32_t& stored_pos =
            shard.newest_parent_pos[entry - shard.newest_begin];
        stored.parent_pos = stored_pos;
        if (better(stored, meta)) {
          pack(meta, rec + words_);
          stored_pos = meta.parent_pos;
          ++shard.replaced;
        }
      }
      return {{shard_index, entry}, false};
    }
    pos = (pos + 1) & mask;
    ++probe;
  }
  shard.max_probe = std::max(shard.max_probe, probe);

  const auto entry = static_cast<std::uint32_t>(shard.count);
  shard.slots[pos] = tag | (std::uint64_t{entry} + 1);
  const std::size_t at = shard.records.size();
  shard.records.resize(at + stride_);
  std::copy(words, words + words_, shard.records.data() + at);
  pack(meta, shard.records.data() + at + words_);
  shard.newest_parent_pos.push_back(meta.parent_pos);
  ++shard.count;
  return {{shard_index, entry}, true};
}

}  // namespace camad::mc
