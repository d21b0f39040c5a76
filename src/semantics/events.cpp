#include "semantics/events.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>

#include "petri/order.h"
#include "semantics/analysis.h"
#include "util/error.h"

namespace camad::semantics {

std::vector<dcf::Value> EventStructure::channel_values(
    const std::string& channel) const {
  std::vector<dcf::Value> out;
  for (const Event& e : events_) {
    if (e.channel == channel) out.push_back(e.value);
  }
  return out;
}

std::vector<std::string> EventStructure::channels() const {
  std::vector<std::string> out;
  for (const Event& e : events_) {
    if (std::find(out.begin(), out.end(), e.channel) == out.end()) {
      out.push_back(e.channel);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

EventStructure EventStructure::extract(const dcf::System& system,
                                       const sim::Trace& trace) {
  const AnalysisCache cache(system);
  return extract(system, trace, cache);
}

EventStructure EventStructure::extract(const dcf::System& system,
                                       const sim::Trace& trace,
                                       const AnalysisCache& cache) {
  if (!cache.bound_to(system)) {
    throw Error(
        "EventStructure::extract: analysis cache bound to a different "
        "system");
  }
  EventStructure s;
  const dcf::DataPath& dp = system.datapath();
  std::unordered_map<std::string, std::size_t> occurrence;

  for (const sim::ExternalEvent& raw : trace.events()) {
    const dcf::VertexId src = dp.arc_source_vertex(raw.arc);
    const dcf::VertexId dst = dp.arc_target_vertex(raw.arc);
    const dcf::VertexId ext =
        dp.kind(src) != dcf::VertexKind::kInternal ? src : dst;
    const std::string channel = dp.name(ext);
    s.events_.push_back(Event{channel, occurrence[channel]++, raw.value,
                              raw.cycle, raw.state});
  }

  // ⇒ refined by reachability: the structural F⁺ is cycle-blind — a
  // loop's back edge relates concurrent branch states of the body both
  // ways — so events of co-markable states would pick up a ≺ pair from
  // accidental cycle timing. Such events are in the paper's "casual"
  // relation: free to occur in either order, no constraint.
  const petri::OrderRelations& order = cache.order();
  auto causal = [&](petri::PlaceId a, petri::PlaceId b) {
    return order.before(a, b) && !cache.co_marked(a, b);
  };
  for (std::size_t i = 0; i < s.events_.size(); ++i) {
    for (std::size_t j = i + 1; j < s.events_.size(); ++j) {
      const Event& a = s.events_[i];
      const Event& b = s.events_[j];
      if (a.cycle < b.cycle && causal(a.state, b.state)) {
        s.precedent_.insert({i, j});
      } else if (b.cycle < a.cycle && causal(b.state, a.state)) {
        s.precedent_.insert({j, i});
      }
      if (a.cycle == b.cycle && a.state == b.state) {
        s.concurrent_.insert({i, j});
      }
    }
  }
  return s;
}

namespace {

using Key = std::pair<std::string, std::size_t>;  // (channel, occurrence)

std::set<std::pair<Key, Key>> keyed_relation(
    const std::vector<Event>& events,
    const std::set<std::pair<std::size_t, std::size_t>>& relation) {
  std::set<std::pair<Key, Key>> out;
  for (const auto& [i, j] : relation) {
    out.insert({{events[i].channel, events[i].occurrence},
                {events[j].channel, events[j].occurrence}});
  }
  return out;
}

}  // namespace

bool EventStructure::equivalent(const EventStructure& other,
                                std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };

  const auto mine = channels();
  const auto theirs = other.channels();
  if (mine != theirs) return fail("channel sets differ");

  for (const std::string& channel : mine) {
    const auto a = channel_values(channel);
    const auto b = other.channel_values(channel);
    if (a.size() != b.size()) {
      return fail("channel '" + channel + "' event counts differ: " +
                  std::to_string(a.size()) + " vs " + std::to_string(b.size()));
    }
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k] != b[k]) {
        std::ostringstream os;
        os << "channel '" << channel << "' event " << k << " differs: " << a[k]
           << " vs " << b[k];
        return fail(os.str());
      }
    }
  }

  if (keyed_relation(events_, precedent_) !=
      keyed_relation(other.events_, other.precedent_)) {
    return fail("precedent relations differ");
  }
  if (keyed_relation(events_, concurrent_) !=
      keyed_relation(other.events_, other.concurrent_)) {
    return fail("concurrent relations differ");
  }
  return true;
}

std::string EventStructure::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << i << ": " << e.channel << '[' << e.occurrence << "]=" << e.value
       << " @" << e.cycle << '\n';
  }
  os << "precedent pairs: " << precedent_.size()
     << ", concurrent pairs: " << concurrent_.size() << '\n';
  return os.str();
}

}  // namespace camad::semantics
