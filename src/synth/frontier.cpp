#include "synth/frontier.h"

#include <algorithm>

namespace camad::synth {

namespace {

bool weakly_dominates(const Metrics& p, double area, double time_ns) {
  return p.area <= area && p.time_ns <= time_ns;
}

}  // namespace

bool ParetoFrontier::insert(FrontierPoint point) {
  for (const FrontierPoint& existing : points_) {
    if (weakly_dominates(existing.metrics, point.metrics.area,
                         point.metrics.time_ns)) {
      return false;
    }
  }
  points_.erase(
      std::remove_if(points_.begin(), points_.end(),
                     [&](const FrontierPoint& existing) {
                       return weakly_dominates(point.metrics,
                                               existing.metrics.area,
                                               existing.metrics.time_ns);
                     }),
      points_.end());
  const auto at = std::lower_bound(
      points_.begin(), points_.end(), point,
      [](const FrontierPoint& a, const FrontierPoint& b) {
        return a.metrics.area < b.metrics.area;
      });
  points_.insert(at, std::move(point));
  return true;
}

bool ParetoFrontier::dominates(double area, double time_ns) const {
  for (const FrontierPoint& p : points_) {
    if (weakly_dominates(p.metrics, area, time_ns)) return true;
  }
  return false;
}

FrontierPoint* ParetoFrontier::find(std::uint64_t design_hash) {
  for (FrontierPoint& p : points_) {
    if (p.design_hash == design_hash) return &p;
  }
  return nullptr;
}

double ParetoFrontier::hypervolume(double ref_area,
                                   double ref_time_ns) const {
  // points_ is area-ascending, hence time strictly descending: sweep
  // left to right, each point contributing the rectangle between its
  // time and the previous (clamped) time level.
  double volume = 0;
  double level = ref_time_ns;
  for (const FrontierPoint& p : points_) {
    if (p.metrics.area >= ref_area) continue;
    if (p.metrics.time_ns >= level) continue;
    volume += (ref_area - p.metrics.area) * (level - p.metrics.time_ns);
    level = p.metrics.time_ns;
  }
  return volume;
}

}  // namespace camad::synth
