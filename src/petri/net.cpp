#include "petri/net.h"

#include <algorithm>

#include "util/error.h"

namespace camad::petri {

PlaceId Net::add_place(std::string name) {
  const PlaceId id(static_cast<PlaceId::underlying_type>(places_.size()));
  Place place;
  place.name = name.empty() ? "S" + std::to_string(id.value()) : std::move(name);
  places_.push_back(std::move(place));
  return id;
}

TransitionId Net::add_transition(std::string name) {
  const TransitionId id(
      static_cast<TransitionId::underlying_type>(transitions_.size()));
  Transition transition;
  transition.name =
      name.empty() ? "T" + std::to_string(id.value()) : std::move(name);
  transitions_.push_back(std::move(transition));
  return id;
}

void Net::connect(PlaceId from, TransitionId to, std::uint32_t weight) {
  if (from.index() >= places_.size() || to.index() >= transitions_.size()) {
    throw ModelError("Net::connect: id out of range");
  }
  if (weight == 0) throw ModelError("Net::connect: zero arc weight");
  auto& pre = transitions_[to.index()].pre;
  if (std::find(pre.begin(), pre.end(), from) != pre.end()) {
    throw ModelError("Net::connect: duplicate arc " + name(from) + " -> " +
                     name(to));
  }
  for (std::uint32_t k = 0; k < weight; ++k) {
    pre.push_back(from);
    places_[from.index()].post.push_back(to);
  }
  if (weight > 1) ordinary_ = false;
}

void Net::connect(TransitionId from, PlaceId to, std::uint32_t weight) {
  if (from.index() >= transitions_.size() || to.index() >= places_.size()) {
    throw ModelError("Net::connect: id out of range");
  }
  if (weight == 0) throw ModelError("Net::connect: zero arc weight");
  auto& post = transitions_[from.index()].post;
  if (std::find(post.begin(), post.end(), to) != post.end()) {
    throw ModelError("Net::connect: duplicate arc " + name(from) + " -> " +
                     name(to));
  }
  for (std::uint32_t k = 0; k < weight; ++k) {
    post.push_back(to);
    places_[to.index()].pre.push_back(from);
  }
  if (weight > 1) ordinary_ = false;
}

std::uint32_t Net::arc_weight(PlaceId from, TransitionId to) const {
  const auto& pre = transitions_[to.index()].pre;
  return static_cast<std::uint32_t>(std::count(pre.begin(), pre.end(), from));
}

std::uint32_t Net::arc_weight(TransitionId from, PlaceId to) const {
  const auto& post = transitions_[from.index()].post;
  return static_cast<std::uint32_t>(std::count(post.begin(), post.end(), to));
}

void Net::set_initial_tokens(PlaceId place, std::uint32_t tokens) {
  places_[place.index()].initial_tokens = tokens;
}

std::vector<TransitionId> Net::consumers(PlaceId p) const {
  return distinct(places_[p.index()].post);
}

std::vector<PlaceId> Net::places() const {
  std::vector<PlaceId> out;
  out.reserve(places_.size());
  for (std::size_t i = 0; i < places_.size(); ++i) {
    out.emplace_back(static_cast<PlaceId::underlying_type>(i));
  }
  return out;
}

std::vector<TransitionId> Net::transitions() const {
  std::vector<TransitionId> out;
  out.reserve(transitions_.size());
  for (std::size_t i = 0; i < transitions_.size(); ++i) {
    out.emplace_back(static_cast<TransitionId::underlying_type>(i));
  }
  return out;
}

}  // namespace camad::petri
