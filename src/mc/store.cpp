#include "mc/store.h"

#include <algorithm>

namespace camad::mc {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p *= 2;
  return p;
}

}  // namespace

VisitedStore::VisitedStore(const StateCodec& codec, std::size_t shard_count)
    : codec_(&codec),
      words_(codec.words()),
      shards_(round_up_pow2(std::max<std::size_t>(1, shard_count))) {
  std::size_t log2 = 0;
  while ((std::size_t{1} << log2) < shards_.size()) ++log2;
  shard_shift_ = static_cast<std::uint32_t>(64 - log2);
  for (Shard& shard : shards_) {
    shard.slots.assign(1024, 0);
  }
}

void VisitedStore::grow(Shard& shard) {
  const std::size_t new_size = shard.slots.size() * 2;
  std::vector<std::uint32_t> slots(new_size, 0);
  const std::size_t mask = new_size - 1;
  for (std::size_t entry = 0; entry < shard.count; ++entry) {
    std::size_t pos = shard.hashes[entry] & mask;
    while (slots[pos] != 0) pos = (pos + 1) & mask;
    slots[pos] = static_cast<std::uint32_t>(entry + 1);
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
  }
  out.bytes = memory_bytes();
  return out;
}

std::size_t VisitedStore::memory_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& shard : shards_) {
    bytes += shard.slots.capacity() * sizeof(std::uint32_t);
    bytes += shard.hashes.capacity() * sizeof(std::uint64_t);
    bytes += shard.arena.capacity() * sizeof(std::uint64_t);
    bytes += shard.meta.capacity() * sizeof(StateMeta);
  }
  return bytes;
}

void VisitedStore::for_each(
    const std::function<void(StateRef, const std::uint64_t*,
                             const StateMeta&)>& fn) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    for (std::size_t e = 0; e < shard.count; ++e) {
      fn({static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(e)},
         shard.arena.data() + e * words_, shard.meta[e]);
    }
  }
}

}  // namespace camad::mc
