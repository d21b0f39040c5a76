// The environment: predefined value streams per input vertex.
//
// Def 3.5's discussion fixes the contract: "a sequence of such values is
// implicitly predefined for each input vertex" and the environment
// "supplies a value of the appropriate type" whenever an input event
// occurs. One stream value is consumed per cycle in which at least one
// arc from the input vertex's output port is active; reading the same
// vertex in two different control steps yields successive values.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dcf/system.h"
#include "dcf/value.h"
#include "util/rng.h"

namespace camad::sim {

class Environment {
 public:
  /// Assigns the stream for an input vertex (replacing any previous one).
  void set_stream(dcf::VertexId input_vertex, std::vector<std::int64_t> values);

  /// Current head value, or ⊥ when the stream is exhausted / unset.
  [[nodiscard]] dcf::Value current(dcf::VertexId input_vertex) const;
  /// Advances the stream by one value.
  void consume(dcf::VertexId input_vertex);
  /// True iff any current() call returned ⊥ due to exhaustion.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// Rewinds all streams to their beginnings (for re-simulation).
  void rewind();

  /// A fresh environment with `length` uniform values in [lo, hi] for
  /// every kInput vertex of the system; deterministic in `seed`.
  static Environment random_for(const dcf::System& system, std::uint64_t seed,
                                std::size_t length, std::int64_t lo = 0,
                                std::int64_t hi = 99);

 private:
  struct Stream {
    std::vector<std::int64_t> values;
    std::size_t position = 0;
  };
  std::unordered_map<dcf::VertexId, Stream> streams_;
  mutable bool exhausted_ = false;
};

}  // namespace camad::sim
