#include "petri/export.h"

#include <sstream>

namespace camad::petri {

namespace {

std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace

std::string to_pnml(const Net& net, std::string_view net_id) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  os << "<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/pnml\">\n";
  os << "  <net id=\"" << xml_escape(std::string(net_id))
     << "\" type=\"http://www.pnml.org/version-2009/grammar/ptnet\">\n";
  os << "    <page id=\"page0\">\n";
  for (PlaceId p : net.places()) {
    os << "      <place id=\"p" << p.value() << "\">\n";
    os << "        <name><text>" << xml_escape(net.name(p))
       << "</text></name>\n";
    if (net.initial_tokens(p) > 0) {
      os << "        <initialMarking><text>" << net.initial_tokens(p)
         << "</text></initialMarking>\n";
    }
    os << "      </place>\n";
  }
  for (TransitionId t : net.transitions()) {
    os << "      <transition id=\"t" << t.value() << "\">\n";
    os << "        <name><text>" << xml_escape(net.name(t))
       << "</text></name>\n";
    os << "      </transition>\n";
  }
  // Weighted arcs are stored as duplicate multiset entries; collapse each
  // (source, target) pair to one <arc> carrying an <inscription> so the
  // output is a well-formed P/T net (the importer accepts both spellings).
  std::size_t arc = 0;
  const auto emit_arc = [&](const std::string& source,
                            const std::string& target, std::uint32_t weight) {
    os << "      <arc id=\"a" << arc++ << "\" source=\"" << source
       << "\" target=\"" << target << "\"";
    if (weight > 1) {
      os << ">\n        <inscription><text>" << weight
         << "</text></inscription>\n      </arc>\n";
    } else {
      os << "/>\n";
    }
  };
  for (TransitionId t : net.transitions()) {
    const std::string tn = "t" + std::to_string(t.value());
    for (PlaceId p : distinct(net.pre(t))) {
      emit_arc("p" + std::to_string(p.value()), tn, net.arc_weight(p, t));
    }
    for (PlaceId p : distinct(net.post(t))) {
      emit_arc(tn, "p" + std::to_string(p.value()), net.arc_weight(t, p));
    }
  }
  os << "    </page>\n  </net>\n</pnml>\n";
  return os.str();
}

}  // namespace camad::petri
