#include "synth/schedule.h"

#include <algorithm>
#include <sstream>

#include "util/bitset.h"
#include "util/strings.h"

namespace camad::synth {
namespace {

using dcf::OpCode;
using dcf::VertexId;
using petri::PlaceId;

/// Functional-unit demand of one state: op code -> number of distinct
/// combinatorial units it activates.
std::map<OpCode, std::size_t> demand_of(const dcf::System& system,
                                        PlaceId state) {
  std::map<OpCode, std::size_t> demand;
  const dcf::DataPath& dp = system.datapath();
  for (VertexId v : system.associated_vertices(state)) {
    if (dp.kind(v) != dcf::VertexKind::kInternal) continue;
    if (dp.is_sequential_vertex(v)) continue;
    for (dcf::PortId o : dp.output_ports(v)) {
      const OpCode code = dp.operation(o).code;
      if (code != OpCode::kConst) ++demand[code];
      break;  // count the unit once, by its first output's class
    }
  }
  return demand;
}

}  // namespace

ScheduleAnalysis analyze_schedules(const dcf::System& system,
                                   const ScheduleOptions& options) {
  const semantics::DependenceRelation dep(system);
  ScheduleAnalysis analysis;

  for (const transform::LinearSegment& segment :
       transform::find_linear_segments(system)) {
    const std::size_t m = segment.states.size();
    SegmentSchedule sched;
    sched.states = segment.states;
    sched.serial_length = m;

    // Ordering DAG over segment-local indices.
    std::vector<std::vector<std::size_t>> preds(m);
    std::vector<std::vector<std::size_t>> succs(m);
    const std::vector<DynamicBitset> edge =
        transform::ordering_edges(system, dep, segment.states);
    for (std::size_t i = 0; i < m; ++i) {
      edge[i].for_each([&](std::size_t j) {
        preds[j].push_back(i);
        succs[i].push_back(j);
      });
    }

    // ASAP (indices are topologically ordered).
    sched.asap.assign(m, 0);
    for (std::size_t j = 0; j < m; ++j) {
      for (std::size_t i : preds[j]) {
        sched.asap[j] = std::max(sched.asap[j], sched.asap[i] + 1);
      }
    }
    sched.asap_length = 0;
    for (std::size_t v : sched.asap) {
      sched.asap_length = std::max(sched.asap_length, v + 1);
    }

    // ALAP within the ASAP length.
    sched.alap.assign(m, sched.asap_length - 1);
    for (std::size_t i = m; i-- > 0;) {
      for (std::size_t j : succs[i]) {
        sched.alap[i] = std::min(sched.alap[i], sched.alap[j] - 1);
      }
    }
    sched.slack.assign(m, 0);
    for (std::size_t i = 0; i < m; ++i) {
      sched.slack[i] = sched.alap[i] - sched.asap[i];
    }

    // Resource-constrained list schedule: ready states (all preds done)
    // packed per step while the budget holds; priority = lower ALAP
    // (critical states first).
    std::vector<std::size_t> scheduled_step(m, static_cast<std::size_t>(-1));
    std::size_t done = 0;
    std::size_t step = 0;
    std::vector<std::map<OpCode, std::size_t>> demands(m);
    for (std::size_t i = 0; i < m; ++i) {
      demands[i] = demand_of(system, segment.states[i]);
    }
    while (done < m) {
      std::vector<std::size_t> ready;
      for (std::size_t i = 0; i < m; ++i) {
        if (scheduled_step[i] != static_cast<std::size_t>(-1)) continue;
        const bool ok = std::all_of(
            preds[i].begin(), preds[i].end(), [&](std::size_t p) {
              return scheduled_step[p] != static_cast<std::size_t>(-1) &&
                     scheduled_step[p] < step;
            });
        if (ok) ready.push_back(i);
      }
      std::sort(ready.begin(), ready.end(), [&](std::size_t a, std::size_t b) {
        return sched.alap[a] < sched.alap[b];
      });
      std::map<OpCode, std::size_t> used;
      bool placed_any = false;
      for (std::size_t i : ready) {
        bool fits = true;
        for (const auto& [code, count] : demands[i]) {
          const auto limit = options.budget.find(code);
          if (limit != options.budget.end() &&
              used[code] + count > limit->second) {
            fits = false;
            break;
          }
        }
        if (!fits) continue;
        for (const auto& [code, count] : demands[i]) used[code] += count;
        scheduled_step[i] = step;
        ++done;
        placed_any = true;
      }
      if (!placed_any && !ready.empty()) {
        // A single state exceeds the budget outright; give it its own
        // step regardless (the budget is per-step, sharing over time).
        scheduled_step[ready.front()] = step;
        ++done;
      }
      ++step;
    }
    sched.list_length = step;

    analysis.serial_total += sched.serial_length;
    analysis.asap_total += sched.asap_length;
    analysis.list_total += sched.list_length;
    analysis.segments.push_back(std::move(sched));
  }
  return analysis;
}

std::string ScheduleAnalysis::to_string(const dcf::System& system) const {
  std::ostringstream os;
  os << segments.size() << " segment(s): serial " << serial_total
     << " steps, ASAP " << asap_total << ", list " << list_total << '\n';
  for (const SegmentSchedule& sched : segments) {
    os << "  [";
    for (std::size_t i = 0; i < sched.states.size(); ++i) {
      if (i != 0) os << ' ';
      os << system.control().net().name(sched.states[i]) << '@'
         << sched.asap[i] << "..'" << sched.alap[i];
    }
    os << "] serial=" << sched.serial_length
       << " asap=" << sched.asap_length << " list=" << sched.list_length
       << '\n';
  }
  return os.str();
}

}  // namespace camad::synth
