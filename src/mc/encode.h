// Packed-state encoding for the explicit-state model checker.
//
// A search state is a control-net marking plus (optionally) one 2-bit
// guard-commitment cell per tracked condition group (see mc/guards.h).
// Token counts pack into fixed-width bit fields sized for the largest
// count exploration can ever store: the bound cutoff stops expansion of
// any marking exceeding `token_bound`, and a firing adds at most one
// token per place (the largest post-arc weight for non-ordinary nets),
// so counts never exceed max(token_bound + max arc gain, max initial
// tokens). Field widths are rounded up
// to a power of two so no field straddles a 64-bit word boundary and
// every access is two shifts and a mask.
//
// With zero commitment cells the encoding is a bijection on markings —
// the configuration in which mc must reproduce petri::explore exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "petri/marking.h"
#include "petri/net.h"

namespace camad::mc {

/// Guard-commitment cell values (2 bits each).
inline constexpr std::uint8_t kUnknown = 0;   ///< condition not committed
inline constexpr std::uint8_t kCondTrue = 1;  ///< base condition sampled true
inline constexpr std::uint8_t kCondFalse = 2; ///< base condition sampled false

class StateCodec {
 public:
  StateCodec(const petri::Net& net, std::uint32_t token_bound,
             std::size_t commitment_count);

  /// 64-bit words per packed state (>= 1).
  [[nodiscard]] std::size_t words() const { return words_; }
  [[nodiscard]] std::size_t place_count() const { return place_count_; }
  [[nodiscard]] std::size_t commitment_count() const {
    return commitment_count_;
  }
  /// Largest token count a field can hold.
  [[nodiscard]] std::uint32_t capacity() const { return cap_; }

  /// Packs the net's initial marking with all commitments kUnknown.
  void encode_initial(const petri::Net& net, std::uint64_t* out) const;

  [[nodiscard]] std::uint32_t tokens(const std::uint64_t* w,
                                     std::size_t place) const {
    const std::size_t bit = place * bits_per_place_;
    return static_cast<std::uint32_t>((w[bit >> 6] >> (bit & 63)) &
                                      place_mask_);
  }
  void set_tokens(std::uint64_t* w, std::size_t place,
                  std::uint64_t value) const {
    const std::size_t bit = place * bits_per_place_;
    w[bit >> 6] = (w[bit >> 6] & ~(place_mask_ << (bit & 63))) |
                  (value << (bit & 63));
  }
  void add_token(std::uint64_t* w, std::size_t place) const {
    const std::size_t bit = place * bits_per_place_;
    w[bit >> 6] += std::uint64_t{1} << (bit & 63);
  }
  /// Caller must guarantee tokens(w, place) >= 1.
  void remove_token(std::uint64_t* w, std::size_t place) const {
    const std::size_t bit = place * bits_per_place_;
    w[bit >> 6] -= std::uint64_t{1} << (bit & 63);
  }

  [[nodiscard]] std::uint8_t commitment(const std::uint64_t* w,
                                        std::size_t cell) const {
    const std::size_t bit = commit_base_ + cell * 2;
    return static_cast<std::uint8_t>((w[bit >> 6] >> (bit & 63)) & 3U);
  }
  void set_commitment(std::uint64_t* w, std::size_t cell,
                      std::uint64_t value) const {
    const std::size_t bit = commit_base_ + cell * 2;
    w[bit >> 6] =
        (w[bit >> 6] & ~(std::uint64_t{3} << (bit & 63))) | (value << (bit & 63));
  }

  /// Decodes the marking part.
  [[nodiscard]] petri::Marking marking(const std::uint64_t* w) const;

  /// Calls fn(place, tokens) for every place holding a token, in
  /// ascending place order, skipping empty fields a word at a time.
  template <typename Fn>
  void for_each_marked(const std::uint64_t* w, Fn&& fn) const {
    const std::size_t per_word = 64 >> place_shift_;
    for (std::size_t word = 0; word < marking_mask_.size(); ++word) {
      std::uint64_t rest = w[word] & marking_mask_[word];
      while (rest != 0) {
        const std::size_t field =
            static_cast<std::size_t>(std::countr_zero(rest)) >> place_shift_;
        const std::size_t shift = field << place_shift_;
        fn(word * per_word + field,
           static_cast<std::uint32_t>((rest >> shift) & place_mask_));
        rest &= ~(place_mask_ << shift);
      }
    }
  }
  /// Words of a place bitset (bit i = place i), the layout of
  /// GuardModel::latch_support.
  [[nodiscard]] std::size_t marked_words() const {
    return (place_count_ + 63) / 64;
  }

  /// 64-bit mix hash over the packed words.
  [[nodiscard]] std::uint64_t hash(const std::uint64_t* w) const;
  /// Hash of the marking projection (commitment bits masked out) — used
  /// to count distinct markings among states.
  [[nodiscard]] std::uint64_t marking_hash(const std::uint64_t* w) const;
  /// True iff the marking projections of `a` and `b` coincide.
  [[nodiscard]] bool same_marking(const std::uint64_t* a,
                                  const std::uint64_t* b) const;

  [[nodiscard]] bool equal(const std::uint64_t* a,
                           const std::uint64_t* b) const {
    for (std::size_t i = 0; i < words_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  /// Lexicographic word-sequence comparison (canonical state order).
  [[nodiscard]] int compare(const std::uint64_t* a,
                            const std::uint64_t* b) const {
    for (std::size_t i = 0; i < words_; ++i) {
      if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
    }
    return 0;
  }

 private:
  std::size_t place_count_ = 0;
  std::size_t commitment_count_ = 0;
  std::size_t bits_per_place_ = 1;
  std::size_t place_shift_ = 0;  ///< log2(bits_per_place_)
  std::uint64_t place_mask_ = 1;
  std::uint32_t cap_ = 1;
  std::size_t commit_base_ = 0;  ///< bit offset of the first commitment cell
  std::size_t words_ = 1;
  /// Per-word mask selecting marking bits only (commitments zeroed).
  std::vector<std::uint64_t> marking_mask_;
};

}  // namespace camad::mc
