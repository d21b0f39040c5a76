#include "mc/encode.h"

#include <algorithm>

namespace camad::mc {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

StateCodec::StateCodec(const petri::Net& net, std::uint32_t token_bound,
                       std::size_t commitment_count)
    : place_count_(net.place_count()), commitment_count_(commitment_count) {
  std::uint32_t max_initial = 0;
  for (petri::PlaceId p : net.places()) {
    max_initial = std::max(max_initial, net.initial_tokens(p));
  }
  // Expansion is cut off above token_bound and a firing adds at most
  // `gain` tokens per place (1 for ordinary nets, the largest post-arc
  // weight otherwise), so token_bound + gain (or a larger initial count)
  // is the largest value ever stored.
  std::uint32_t max_gain = 1;
  if (!net.is_ordinary()) {
    for (petri::TransitionId t : net.transitions()) {
      const std::vector<petri::PlaceId>& post = net.post(t);
      for (std::size_t i = 0; i < post.size(); ++i) {
        std::uint32_t w = 1;
        for (std::size_t j = i + 1; j < post.size(); ++j) {
          if (post[j] == post[i]) ++w;
        }
        max_gain = std::max(max_gain, w);
      }
    }
  }
  cap_ = std::max(token_bound + max_gain, max_initial);
  std::size_t bits = 1;
  while ((std::uint64_t{1} << bits) - 1 < cap_) ++bits;
  // Round up to a power of two so fields never straddle a word.
  std::size_t rounded = 1;
  while (rounded < bits) rounded *= 2;
  bits_per_place_ = rounded;
  while ((std::size_t{1} << place_shift_) < bits_per_place_) ++place_shift_;
  place_mask_ = (bits_per_place_ == 64)
                    ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << bits_per_place_) - 1;

  // Commitment cells start on an even bit so a 2-bit cell cannot straddle.
  const std::size_t place_bits = place_count_ * bits_per_place_;
  commit_base_ = (place_bits + 1) & ~std::size_t{1};
  const std::size_t total_bits = commit_base_ + commitment_count_ * 2;
  words_ = std::max<std::size_t>(1, (total_bits + 63) / 64);

  marking_mask_.assign(words_, 0);
  for (std::size_t bit = 0; bit < place_bits; ++bit) {
    marking_mask_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

void StateCodec::encode_initial(const petri::Net& net,
                                std::uint64_t* out) const {
  std::fill(out, out + words_, 0);
  for (petri::PlaceId p : net.places()) {
    if (net.initial_tokens(p) != 0) {
      set_tokens(out, p.index(), net.initial_tokens(p));
    }
  }
}

petri::Marking StateCodec::marking(const std::uint64_t* w) const {
  petri::Marking m(place_count_);
  for (std::size_t i = 0; i < place_count_; ++i) {
    const std::uint32_t n = tokens(w, i);
    if (n != 0) {
      m.set_tokens(petri::PlaceId(static_cast<petri::PlaceId::underlying_type>(i)),
                   n);
    }
  }
  return m;
}

std::uint64_t StateCodec::hash(const std::uint64_t* w) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < words_; ++i) {
    h = mix64(h ^ mix64(w[i] + 0x9e3779b97f4a7c15ULL * (i + 1)));
  }
  return h;
}

std::uint64_t StateCodec::marking_hash(const std::uint64_t* w) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < words_; ++i) {
    const std::uint64_t masked = w[i] & marking_mask_[i];
    h = mix64(h ^ mix64(masked + 0x9e3779b97f4a7c15ULL * (i + 1)));
  }
  return h;
}

bool StateCodec::same_marking(const std::uint64_t* a,
                              const std::uint64_t* b) const {
  for (std::size_t i = 0; i < words_; ++i) {
    if ((a[i] & marking_mask_[i]) != (b[i] & marking_mask_[i])) return false;
  }
  return true;
}

}  // namespace camad::mc
