// Pareto frontier of explored design points.
//
// The optimizer's deliverable (Sec 5's design-space exploration) is not
// one design but the set of non-dominated (area, execution-time) points,
// each carrying the serial master it measures, the schedule that was
// measured, and the transform chain that produced it. ParetoFrontier
// maintains that set under dominance insertion and scores it with the
// standard 2-D staircase hypervolume.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dcf/system.h"
#include "transform/provenance.h"

namespace camad::synth {

struct Metrics {
  double area = 0;
  double mean_cycles = 0;
  double cycle_time = 0;
  double time_ns = 0;
};

struct FrontierPoint {
  dcf::System master;     ///< serial master behind the schedule
  dcf::System scheduled;  ///< derived parallel schedule (what was measured)
  Metrics metrics;
  transform::Provenance provenance;  ///< transform chain from the seed
  std::uint64_t design_hash = 0;     ///< canonical hash of `master`
};

/// Non-dominated set over (area, time_ns), kept in area-ascending
/// (equivalently time-descending) canonical order. Comparisons are exact:
/// metrics come from deterministic measurement, so there is no epsilon to
/// tune and insertion order cannot perturb the surviving set's bytes.
class ParetoFrontier {
 public:
  /// Rejects `point` if an existing point weakly dominates it (both
  /// coordinates <=, covering exact duplicates); otherwise evicts every
  /// point it dominates and inserts. Returns true iff inserted.
  bool insert(FrontierPoint point);

  [[nodiscard]] const std::vector<FrontierPoint>& points() const {
    return points_;
  }
  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// True iff some frontier point weakly dominates (area, time_ns).
  [[nodiscard]] bool dominates(double area, double time_ns) const;

  /// The point whose master hashes to `design_hash`, or null. The Pareto
  /// search inserts a point on its metrics and sets its master and
  /// schedule once its generation has decided that the point stays; the
  /// metrics must not change.
  [[nodiscard]] FrontierPoint* find(std::uint64_t design_hash);

  /// Area of the region the frontier dominates inside
  /// [0, ref_area] x [0, ref_time_ns] (2-D staircase sweep). Points at or
  /// beyond the reference in a coordinate contribute only their clamped
  /// part; the result is never negative.
  [[nodiscard]] double hypervolume(double ref_area, double ref_time_ns) const;

 private:
  std::vector<FrontierPoint> points_;
};

}  // namespace camad::synth
