// Hash-consed store of uploaded designs plus the shared cross-request
// cache tier.
//
// A design uploaded to camadd is an immutable value: it is parsed once,
// canonically hashed with synth::design_hash, and stored under the id
// "d<16-hex-digits>". Re-uploading the same design (byte-different
// source included — the hash is structural) returns the existing entry,
// so every request that names a design id shares one dcf::System, one
// semantics::AnalysisCache (thread-safe reads by design — pinned by
// tests/serve_test.cpp's concurrent hammering) and one memoized verify
// tier. That sharing is the service's whole performance story: the
// second `verify` of a 228k-state net is a map lookup, and `transform`
// requests seed their pass pipelines from analyses some earlier request
// already paid for.
//
// Verify memoization is single-flight: concurrent misses on the same
// (design, options) key serialize behind a per-key mutex so an
// expensive state-space exploration runs once, not once per waiting
// client. Results cut off by a *request* budget are returned but never
// cached (they reflect that request's deadline, not the key); complete
// and max-states-cutoff results are deterministic for the key and are.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dcf/system.h"
#include "mc/checker.h"
#include "semantics/analysis.h"

namespace camad::serve {

/// One immutable stored design and its shared caches.
class StoredDesign {
 public:
  explicit StoredDesign(std::string id, std::uint64_t hash,
                        dcf::System system);
  StoredDesign(const StoredDesign&) = delete;
  StoredDesign& operator=(const StoredDesign&) = delete;

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] const dcf::System& system() const { return system_; }
  /// Shared analysis tier; all accessors are const and internally
  /// synchronized, so any number of request workers may read it.
  [[nodiscard]] const semantics::AnalysisCache& analysis() const {
    return analysis_;
  }

  /// Memoized guard-aware model check. The cache key is the verdict-
  /// relevant option subset (max_states, token_bound, use_guards,
  /// compute_concurrency, collect_traces) — threads and shards are
  /// excluded because mc results are thread-count invariant. Sets
  /// `*cache_hit` when a stored result was returned. A result stopped
  /// by `options.budget` is returned but not stored.
  [[nodiscard]] std::shared_ptr<const mc::McResult> verify(
      const mc::McOptions& options, bool* cache_hit) const;

  /// Hit/miss counts of the verify tier (lifetime of this entry).
  void verify_counters(std::uint64_t* hits, std::uint64_t* misses) const;

 private:
  struct VerifyEntry {
    std::mutex mu;
    std::shared_ptr<const mc::McResult> result;
  };

  std::string id_;
  std::uint64_t hash_ = 0;
  dcf::System system_;
  semantics::AnalysisCache analysis_;
  mutable std::mutex verify_mu_;
  mutable std::map<std::string, std::shared_ptr<VerifyEntry>, std::less<>>
      verify_entries_;
  mutable std::uint64_t verify_hits_ = 0;
  mutable std::uint64_t verify_misses_ = 0;
};

/// Thread-safe id -> StoredDesign map keyed by structural hash.
class DesignStore {
 public:
  struct Stats {
    std::uint64_t uploads = 0;      ///< put() calls
    std::uint64_t dedup_hits = 0;   ///< puts that found an existing hash
    std::uint64_t lookups = 0;      ///< get() calls
    std::uint64_t lookup_misses = 0;
    std::uint64_t entries = 0;      ///< resident designs
  };

  /// Stores (or re-finds) a design; `*reused` reports hash-consing.
  std::shared_ptr<const StoredDesign> put(dcf::System system, bool* reused);

  /// Looks an id up; nullptr when absent.
  [[nodiscard]] std::shared_ptr<const StoredDesign> get(
      std::string_view id) const;

  [[nodiscard]] Stats stats() const;

  /// All resident designs (stable shared_ptr copies, id order) — the
  /// stats endpoint aggregates per-design cache counters from this.
  [[nodiscard]] std::vector<std::shared_ptr<const StoredDesign>> snapshot()
      const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<const StoredDesign>, std::less<>>
      by_id_;
  mutable Stats stats_;
};

}  // namespace camad::serve
