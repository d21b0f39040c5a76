// Marked Petri net structure: places (S-elements), transitions (T-elements),
// and the flow relation F ⊆ (S×T) ∪ (T×S), as in Def 2.2 of the paper.
//
// The net here is purely structural plus an initial marking; guarded
// execution and the data-path coupling live in dcf::ControlNet.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "util/ids.h"

namespace camad::petri {

struct PlaceTag;
struct TransitionTag;
using PlaceId = StrongId<PlaceTag>;
using TransitionId = StrongId<TransitionTag>;

class Net {
 public:
  PlaceId add_place(std::string name = {});
  TransitionId add_transition(std::string name = {});

  /// Flow arcs. Repeating a connect call for the same (from, to) pair is
  /// rejected; a weight > 1 (P/T-net arc inscription, as in imported PNML
  /// nets) stores the arc as `weight` multiset entries in the pre/post
  /// vectors, so firing consumes/produces `weight` tokens per entry-free
  /// loop and the incidence matrix accumulates the weighted effect.
  void connect(PlaceId from, TransitionId to, std::uint32_t weight = 1);
  void connect(TransitionId from, PlaceId to, std::uint32_t weight = 1);

  /// Multiplicity of the arc (0 = absent, 1 = ordinary, >1 = weighted).
  [[nodiscard]] std::uint32_t arc_weight(PlaceId from, TransitionId to) const;
  [[nodiscard]] std::uint32_t arc_weight(TransitionId from, PlaceId to) const;

  /// True while every arc has weight 1 — the common case every
  /// self-generated net satisfies; enabling checks take a fast path.
  [[nodiscard]] bool is_ordinary() const { return ordinary_; }

  void set_initial_tokens(PlaceId place, std::uint32_t tokens);

  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t transition_count() const {
    return transitions_.size();
  }

  [[nodiscard]] const std::string& name(PlaceId p) const {
    return places_[p.index()].name;
  }
  [[nodiscard]] const std::string& name(TransitionId t) const {
    return transitions_[t.index()].name;
  }
  void rename(PlaceId p, std::string name) {
    places_[p.index()].name = std::move(name);
  }
  void rename(TransitionId t, std::string name) {
    transitions_[t.index()].name = std::move(name);
  }

  /// Pre-set of a transition: places with an arc into it.
  [[nodiscard]] const std::vector<PlaceId>& pre(TransitionId t) const {
    return transitions_[t.index()].pre;
  }
  /// Post-set of a transition: places it feeds.
  [[nodiscard]] const std::vector<PlaceId>& post(TransitionId t) const {
    return transitions_[t.index()].post;
  }
  /// Transitions consuming from a place.
  [[nodiscard]] const std::vector<TransitionId>& post(PlaceId p) const {
    return places_[p.index()].post;
  }
  /// Transitions feeding a place.
  [[nodiscard]] const std::vector<TransitionId>& pre(PlaceId p) const {
    return places_[p.index()].pre;
  }
  /// Transitions consuming from a place, each once: the competitors of
  /// Def 3.2 rule 3 (post(p) repeats a weighted arc's consumer).
  [[nodiscard]] std::vector<TransitionId> consumers(PlaceId p) const;

  [[nodiscard]] std::uint32_t initial_tokens(PlaceId p) const {
    return places_[p.index()].initial_tokens;
  }

  /// All place / transition ids, for range-style iteration.
  [[nodiscard]] std::vector<PlaceId> places() const;
  [[nodiscard]] std::vector<TransitionId> transitions() const;

 private:
  struct Place {
    std::string name;
    std::uint32_t initial_tokens = 0;
    std::vector<TransitionId> pre;
    std::vector<TransitionId> post;
  };
  struct Transition {
    std::string name;
    std::vector<PlaceId> pre;
    std::vector<PlaceId> post;
  };

  std::vector<Place> places_;
  std::vector<Transition> transitions_;
  bool ordinary_ = true;
};

/// The far ends of a pre or post list, each once, in first-occurrence
/// order: the list repeats a weight-w arc's end w times. Pair each with
/// Net::arc_weight to copy an arc.
template <typename Id>
[[nodiscard]] std::vector<Id> distinct(const std::vector<Id>& ends) {
  std::vector<Id> out;
  for (const Id id : ends) {
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

}  // namespace camad::petri
