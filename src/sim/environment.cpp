#include "sim/environment.h"

namespace camad::sim {

void Environment::set_stream(dcf::VertexId input_vertex,
                             std::vector<std::int64_t> values) {
  streams_[input_vertex] = Stream{std::move(values), 0};
}

dcf::Value Environment::current(dcf::VertexId input_vertex) const {
  const auto it = streams_.find(input_vertex);
  if (it == streams_.end() ||
      it->second.position >= it->second.values.size()) {
    exhausted_ = true;
    return dcf::Value::undef();
  }
  return dcf::Value(it->second.values[it->second.position]);
}

void Environment::consume(dcf::VertexId input_vertex) {
  const auto it = streams_.find(input_vertex);
  if (it != streams_.end() &&
      it->second.position < it->second.values.size()) {
    ++it->second.position;
  }
}

void Environment::rewind() {
  for (auto& [vertex, stream] : streams_) stream.position = 0;
  exhausted_ = false;
}

Environment Environment::random_for(const dcf::System& system,
                                    std::uint64_t seed, std::size_t length,
                                    std::int64_t lo, std::int64_t hi) {
  Environment env;
  for (dcf::VertexId v : system.datapath().vertices()) {
    if (system.datapath().kind(v) != dcf::VertexKind::kInput) continue;
    // Seed per channel *name* so two systems whose data paths differ
    // structurally (e.g. after a vertex merger renumbered ids) still see
    // identical streams on identically named inputs.
    const std::uint64_t channel_hash =
        std::hash<std::string>{}(system.datapath().name(v));
    Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ channel_hash);
    std::vector<std::int64_t> values(length);
    for (auto& value : values) value = rng.range(lo, hi);
    env.set_stream(v, std::move(values));
  }
  return env;
}

}  // namespace camad::sim
