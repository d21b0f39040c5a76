// Execution traces and the external events recorded along them (Def 3.4).
//
// A run's meaning is its external event structure (Defs 3.3-3.6), and
// Def 4.1 compares nothing else: the flat event list is the observable
// every run records. Per-cycle records (marked states, fired
// transitions, registers) are a debugging view that a run keeps only
// when SimOptions::record_cycles asks for it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "dcf/value.h"
#include "petri/net.h"

namespace camad::sim {

/// An observed external event (A_i, w), labelled with the control state
/// whose token caused it and the cycle at which it occurred.
struct ExternalEvent {
  dcf::ArcId arc;
  dcf::Value value;
  std::uint64_t cycle = 0;
  petri::PlaceId state;  ///< controlling state (marked owner of the arc)

  friend bool operator==(const ExternalEvent&, const ExternalEvent&) = default;
};

/// One simulator cycle as a debugging view: which states held tokens and
/// what fired. The cycle's external events live in Trace::events().
struct CycleRecord {
  std::uint64_t cycle = 0;
  std::vector<petri::PlaceId> marked;
  std::vector<petri::TransitionId> fired;
  /// Register state per kReg output port at the *end* of the cycle
  /// (after latching).
  std::vector<dcf::Value> registers;

  friend bool operator==(const CycleRecord&, const CycleRecord&) = default;
};

class Trace {
 public:
  /// One record per executed cycle, numbered from 0, when the run asked
  /// for per-cycle records; empty otherwise.
  std::vector<CycleRecord> cycles;

  /// All external events in occurrence order (cycle-major, then recording
  /// order within a cycle): the Def 3.4 observable of the run.
  [[nodiscard]] const std::vector<ExternalEvent>& events() const {
    return events_;
  }

  /// Appends the next event in occurrence order (the engines' writer).
  void add_event(const ExternalEvent& event) { events_.push_back(event); }

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }

  /// Human-readable dump, one line per cycle record with that cycle's
  /// events, for debugging and examples. Empty without per-cycle records.
  [[nodiscard]] std::string to_string(const dcf::System& system) const;

 private:
  std::vector<ExternalEvent> events_;
};

}  // namespace camad::sim
