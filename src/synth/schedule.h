// Scheduling bound analysis: ASAP / ALAP / resource-constrained list
// scheduling over the dependence DAG of each linear control segment.
//
// Each segment (transform::find_linear_segments) is ordered by the rule
// parallelize realizes, transform::ordering_edges: Def 4.3 dependence
// plus Def 3.2 rule-1 overlap.
//
// These are *analyses*, not transformations: they predict the schedule
// length the transformation engine can reach —
//   * ASAP depth       = lower bound with unlimited hardware (what
//                        `parallelize` achieves when nothing conflicts);
//   * list schedule    = length under a resource budget (k units per
//                        operation class), predicting the cycle cost of
//                        merging down to that budget before the mergers
//                        are actually applied;
//   * ALAP + slack     = which states can move without stretching the
//                        schedule (merge candidates with zero cost).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dcf/system.h"
#include "transform/parallelize.h"

namespace camad::synth {

/// FU budget per operation code; absent codes are unlimited.
using ResourceBudget = std::map<dcf::OpCode, std::size_t>;

struct SegmentSchedule {
  std::vector<petri::PlaceId> states;
  std::vector<std::size_t> asap;   ///< earliest step per state
  std::vector<std::size_t> alap;   ///< latest step (within asap length)
  std::vector<std::size_t> slack;  ///< alap - asap
  std::size_t serial_length = 0;   ///< = states.size()
  std::size_t asap_length = 0;     ///< critical path of the DAG
  std::size_t list_length = 0;     ///< under the resource budget
};

struct ScheduleAnalysis {
  std::vector<SegmentSchedule> segments;
  /// Sums over segments (states outside segments count 1 step each are
  /// not included — segment-relative comparison only).
  std::size_t serial_total = 0;
  std::size_t asap_total = 0;
  std::size_t list_total = 0;

  [[nodiscard]] std::string to_string(const dcf::System& system) const;
};

struct ScheduleOptions {
  ResourceBudget budget;  ///< empty = unlimited
};

/// Analyzes every linear segment of the system.
ScheduleAnalysis analyze_schedules(const dcf::System& system,
                                   const ScheduleOptions& options = {});

}  // namespace camad::synth
