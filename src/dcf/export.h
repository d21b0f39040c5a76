// Graphviz export of complete systems: data path clustered per vertex,
// control net places/transitions, and dashed control edges S --> arc.
#pragma once

#include <string>

#include "dcf/system.h"

namespace camad::dcf {

/// DOT rendering of the whole Γ, control mapping included.
std::string system_to_dot(const System& system);

}  // namespace camad::dcf
