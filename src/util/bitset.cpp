#include "util/bitset.h"

#include <bit>
#include <cassert>

namespace camad {

void DynamicBitset::trim() {
  const std::size_t tail = size_ % kBits;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

std::size_t DynamicBitset::count() const {
  std::size_t n = 0;
  for (Word w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

bool DynamicBitset::any() const {
  for (Word w : words_) {
    if (w != 0) return true;
  }
  return false;
}

std::size_t DynamicBitset::find_next(std::size_t from) const {
  if (from >= size_) return size_;
  std::size_t w = from / kBits;
  Word word = words_[w] & (~Word{0} << (from % kBits));
  while (true) {
    if (word != 0) {
      const std::size_t bit =
          w * kBits + static_cast<std::size_t>(std::countr_zero(word));
      return bit < size_ ? bit : size_;
    }
    if (++w == words_.size()) return size_;
    word = words_[w];
  }
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& rhs) {
  assert(size_ == rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= rhs.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& rhs) {
  assert(size_ == rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= rhs.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::and_not(const DynamicBitset& rhs) {
  assert(size_ == rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~rhs.words_[i];
  return *this;
}

bool DynamicBitset::intersects(const DynamicBitset& rhs) const {
  assert(size_ == rhs.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & rhs.words_[i]) != 0) return true;
  }
  return false;
}

std::size_t DynamicBitset::hash() const {
  // FNV-1a over the words; adequate for reachability marking sets.
  std::size_t h = 1469598103934665603ULL;
  for (Word w : words_) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ULL;
  }
  h ^= size_;
  return h;
}

}  // namespace camad
