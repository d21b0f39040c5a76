#include "sim/trace.h"

#include <sstream>

namespace camad::sim {

std::string Trace::to_string(const dcf::System& system) const {
  const auto& net = system.control().net();
  const auto& dp = system.datapath();
  std::ostringstream os;
  auto event = events_.begin();
  for (const CycleRecord& record : cycles) {
    os << "cycle " << record.cycle << ": marked={";
    for (std::size_t i = 0; i < record.marked.size(); ++i) {
      if (i != 0) os << ',';
      os << net.name(record.marked[i]);
    }
    os << "} fired={";
    for (std::size_t i = 0; i < record.fired.size(); ++i) {
      if (i != 0) os << ',';
      os << net.name(record.fired[i]);
    }
    os << '}';
    for (; event != events_.end() && event->cycle == record.cycle; ++event) {
      const dcf::VertexId src = dp.arc_source_vertex(event->arc);
      const dcf::VertexId dst = dp.arc_target_vertex(event->arc);
      const dcf::VertexId ext =
          dp.kind(src) != dcf::VertexKind::kInternal ? src : dst;
      os << ' ' << dp.name(ext) << '=' << event->value;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace camad::sim
