// PNML export of Petri nets.
#pragma once

#include <string>
#include <string_view>

#include "petri/net.h"

namespace camad::petri {

/// PNML (ISO/IEC 15909-2 Place/Transition net) XML for interoperability
/// with standard Petri-net tools; carries names and the initial marking.
std::string to_pnml(const Net& net, std::string_view net_id = "camad");

}  // namespace camad::petri
