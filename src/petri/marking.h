// Markings: token assignments M : S → ℕ (Def 3.1 rule 1).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "petri/net.h"
#include "util/bitset.h"

namespace camad::petri {

class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t place_count) : tokens_(place_count, 0) {}

  /// The net's initial marking M0.
  static Marking initial(const Net& net);

  [[nodiscard]] std::uint32_t tokens(PlaceId p) const {
    return tokens_[p.index()];
  }
  void set_tokens(PlaceId p, std::uint32_t n) { tokens_[p.index()] = n; }
  void add_token(PlaceId p) { ++tokens_[p.index()]; }
  /// Removes one token; caller must guarantee tokens(p) >= 1.
  void remove_token(PlaceId p) { --tokens_[p.index()]; }

  [[nodiscard]] std::size_t place_count() const { return tokens_.size(); }
  /// Total token count; 0 means execution has terminated (Def 3.1 rule 6).
  [[nodiscard]] std::uint64_t total() const;
  /// True iff no place holds more than one token.
  [[nodiscard]] bool is_safe() const;
  /// Places currently holding >= 1 token.
  [[nodiscard]] std::vector<PlaceId> marked_places() const;
  /// Writes the marked-place support into `out` (bit i set iff place i is
  /// marked). Allocation-free when `out` already spans place_count() bits;
  /// resizes it otherwise.
  void marked_into(DynamicBitset& out) const;

  friend bool operator==(const Marking&, const Marking&) = default;

  [[nodiscard]] std::size_t hash() const;

 private:
  std::vector<std::uint32_t> tokens_;
};

struct MarkingHash {
  std::size_t operator()(const Marking& m) const { return m.hash(); }
};

}  // namespace camad::petri
