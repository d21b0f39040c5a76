#include "serve/store.h"

#include <sstream>
#include <utility>

#include "synth/design_hash.h"
#include "util/strings.h"

namespace camad::serve {

namespace {

std::string hash_id(std::uint64_t hash) {
  static const char* kHex = "0123456789abcdef";
  std::string id = "d";
  for (int shift = 60; shift >= 0; shift -= 4) {
    id.push_back(kHex[(hash >> shift) & 0xf]);
  }
  return id;
}

/// Renders the verdict-relevant option subset as the verify-cache key.
std::string verify_key(const mc::McOptions& options) {
  std::ostringstream key;
  key << "ms=" << options.max_states << ";tb=" << options.token_bound
      << ";g=" << (options.use_guards ? 1 : 0)
      << ";cc=" << (options.compute_concurrency ? 1 : 0)
      << ";tr=" << (options.collect_traces ? 1 : 0);
  return key.str();
}

}  // namespace

StoredDesign::StoredDesign(std::string id, std::uint64_t hash,
                           dcf::System system)
    : id_(std::move(id)),
      hash_(hash),
      system_(std::move(system)),
      analysis_(system_) {}

std::shared_ptr<const mc::McResult> StoredDesign::verify(
    const mc::McOptions& options, bool* cache_hit) const {
  const std::string key = verify_key(options);
  std::shared_ptr<VerifyEntry> entry;
  {
    std::lock_guard<std::mutex> lock(verify_mu_);
    auto it = verify_entries_.find(key);
    if (it == verify_entries_.end()) {
      it = verify_entries_.emplace(key, std::make_shared<VerifyEntry>())
               .first;
    }
    entry = it->second;
  }
  // Single flight: concurrent misses on the same key queue here and all
  // but the first find the result already stored.
  std::lock_guard<std::mutex> flight(entry->mu);
  if (entry->result != nullptr) {
    if (cache_hit != nullptr) *cache_hit = true;
    std::lock_guard<std::mutex> lock(verify_mu_);
    ++verify_hits_;
    return entry->result;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  auto result =
      std::make_shared<mc::McResult>(mc::model_check(system_, options));
  const bool budget_cut =
      !result->complete && starts_with(result->cutoff_reason, "budget");
  if (!budget_cut) entry->result = result;
  std::lock_guard<std::mutex> lock(verify_mu_);
  ++verify_misses_;
  return result;
}

void StoredDesign::verify_counters(std::uint64_t* hits,
                                   std::uint64_t* misses) const {
  std::lock_guard<std::mutex> lock(verify_mu_);
  if (hits != nullptr) *hits = verify_hits_;
  if (misses != nullptr) *misses = verify_misses_;
}

std::shared_ptr<const StoredDesign> DesignStore::put(dcf::System system,
                                                     bool* reused) {
  const std::uint64_t hash = synth::design_hash(system);
  std::string id = hash_id(hash);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.uploads;
  auto it = by_id_.find(id);
  if (it != by_id_.end()) {
    ++stats_.dedup_hits;
    if (reused != nullptr) *reused = true;
    return it->second;
  }
  if (reused != nullptr) *reused = false;
  auto stored =
      std::make_shared<const StoredDesign>(id, hash, std::move(system));
  by_id_.emplace(std::move(id), stored);
  return stored;
}

std::shared_ptr<const StoredDesign> DesignStore::get(
    std::string_view id) const {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.lookups;
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    ++stats_.lookup_misses;
    return nullptr;
  }
  return it->second;
}

std::vector<std::shared_ptr<const StoredDesign>> DesignStore::snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const StoredDesign>> out;
  out.reserve(by_id_.size());
  for (const auto& [id, design] : by_id_) out.push_back(design);
  return out;
}

DesignStore::Stats DesignStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.entries = by_id_.size();
  return out;
}

}  // namespace camad::serve
