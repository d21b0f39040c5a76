// Dynamic bitset tuned for dense relation algebra.
//
// Used as the row type for transitive closures and concurrency relations
// over control states, where |S| is known at run time and whole-row
// AND/OR/ANDNOT operations dominate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace camad {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t size, bool value = false)
      : size_(size),
        words_((size + kBits - 1) / kBits, value ? ~Word{0} : Word{0}) {
    trim();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void set(std::size_t i) { words_[i / kBits] |= Word{1} << (i % kBits); }
  void reset(std::size_t i) { words_[i / kBits] &= ~(Word{1} << (i % kBits)); }
  void assign(std::size_t i, bool value) { value ? set(i) : reset(i); }
  [[nodiscard]] bool test(std::size_t i) const {
    return (words_[i / kBits] >> (i % kBits)) & 1U;
  }

  void reset_all() { words_.assign(words_.size(), Word{0}); }
  void set_all() {
    words_.assign(words_.size(), ~Word{0});
    trim();
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const;
  /// True iff any bit is set.
  [[nodiscard]] bool any() const;
  /// True iff no bit is set.
  [[nodiscard]] bool none() const { return !any(); }

  /// Index of the first set bit at or after `from`, or `size()` if none.
  [[nodiscard]] std::size_t find_next(std::size_t from) const;
  [[nodiscard]] std::size_t find_first() const { return find_next(0); }

  /// In-place bitwise operators; operands must have equal size.
  DynamicBitset& operator|=(const DynamicBitset& rhs);
  DynamicBitset& operator&=(const DynamicBitset& rhs);
  /// *this &= ~rhs.
  DynamicBitset& and_not(const DynamicBitset& rhs);

  /// True iff this and rhs share at least one set bit.
  [[nodiscard]] bool intersects(const DynamicBitset& rhs) const;

  friend bool operator==(const DynamicBitset&, const DynamicBitset&) = default;

  /// Calls `fn(i)` for every set bit index i in ascending order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      Word word = words_[w];
      while (word != 0) {
        const auto bit = static_cast<std::size_t>(__builtin_ctzll(word));
        fn(w * kBits + bit);
        word &= word - 1;
      }
    }
  }

  /// Hash over the word representation (size-sensitive).
  [[nodiscard]] std::size_t hash() const;

 private:
  using Word = std::uint64_t;
  static constexpr std::size_t kBits = 64;

  /// Clears bits beyond `size_` in the last word so equality/count stay exact.
  void trim();

  std::size_t size_ = 0;
  std::vector<Word> words_;
};

/// Hasher for using DynamicBitset as an unordered-container key (e.g. the
/// simulator's marked-set → configuration-plan cache).
struct DynamicBitsetHash {
  std::size_t operator()(const DynamicBitset& b) const { return b.hash(); }
};

}  // namespace camad
