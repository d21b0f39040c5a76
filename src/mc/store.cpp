#include "mc/store.h"

#include <algorithm>

namespace camad::mc {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

/// Slots per shard at construction. Small, so a search of a few dozen
/// states does not zero kilobytes per shard; a table doubles as it fills.
constexpr std::size_t kInitialSlots = 64;

}  // namespace

VisitedStore::VisitedStore(const StateCodec& codec, std::size_t shard_count)
    : codec_(&codec),
      words_(codec.words()),
      stride_(codec.words() + 2),
      shards_(round_up_pow2(std::max<std::size_t>(1, shard_count))) {
  std::size_t log2 = 0;
  while ((std::size_t{1} << log2) < shards_.size()) ++log2;
  shard_shift_ = static_cast<std::uint32_t>(64 - log2);
  for (Shard& shard : shards_) {
    shard.slots.assign(kInitialSlots, 0);
  }
}

void VisitedStore::grow(Shard& shard) {
  const std::size_t new_size = shard.slots.size() * 2;
  // A slot keeps 32 hash bits, enough to place it in up to 2^32 slots.
  assert(new_size <= (std::size_t{1} << 32));
  std::vector<std::uint64_t> slots(new_size, 0);
  const std::size_t mask = new_size - 1;
  for (const std::uint64_t slot : shard.slots) {
    if (slot == 0) continue;
    std::size_t pos = (slot >> 32) & mask;
    while (slots[pos] != 0) pos = (pos + 1) & mask;
    slots[pos] = slot;
  }
  shard.slots = std::move(slots);
}

std::size_t VisitedStore::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) n += shard.count;
  return n;
}

StoreStats VisitedStore::stats() const {
  StoreStats out;
  out.shard_count = shards_.size();
  out.shard_entries.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    out.max_shard_entries = std::max(out.max_shard_entries, shard.count);
    out.max_probe_length = std::max(out.max_probe_length, shard.max_probe);
    out.shard_entries.push_back(shard.count);
    out.same_depth_rediscoveries += shard.same_depth;
    out.older_rediscoveries += shard.older;
    out.parent_replacements += shard.replaced;
  }
  out.bytes = memory_bytes();
  return out;
}

std::size_t VisitedStore::memory_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) {
    bytes += shard.slots.capacity() * sizeof(std::uint64_t);
    bytes += shard.records.capacity() * sizeof(std::uint64_t);
    bytes += shard.newest_parent_pos.capacity() * sizeof(std::uint32_t);
  }
  return bytes;
}

void VisitedStore::for_each(
    const std::function<void(StateRef, const std::uint64_t*,
                             const StateMeta&)>& fn) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t e = 0; e < shard.count; ++e) {
      const std::uint64_t* words = record(shard, e);
      fn({static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(e)},
         words, unpack(words + words_));
    }
  }
}

}  // namespace camad::mc
