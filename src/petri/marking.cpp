#include "petri/marking.h"

namespace camad::petri {

Marking Marking::initial(const Net& net) {
  Marking m(net.place_count());
  for (PlaceId p : net.places()) m.set_tokens(p, net.initial_tokens(p));
  return m;
}

std::uint64_t Marking::total() const {
  std::uint64_t sum = 0;
  for (std::uint32_t t : tokens_) sum += t;
  return sum;
}

bool Marking::is_safe() const {
  for (std::uint32_t t : tokens_) {
    if (t > 1) return false;
  }
  return true;
}

std::vector<PlaceId> Marking::marked_places() const {
  std::vector<PlaceId> out;
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] > 0) {
      out.emplace_back(static_cast<PlaceId::underlying_type>(i));
    }
  }
  return out;
}

void Marking::marked_into(DynamicBitset& out) const {
  if (out.size() != tokens_.size()) {
    out = DynamicBitset(tokens_.size());
  } else {
    out.reset_all();
  }
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i] > 0) out.set(i);
  }
}

std::size_t Marking::hash() const {
  std::size_t h = 1469598103934665603ULL;
  for (std::uint32_t t : tokens_) {
    h ^= t;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace camad::petri
