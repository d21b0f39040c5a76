// The four workloads. Each fills `report` for config.trace == false with
// the end-to-end figures, and for config.trace == true with the
// per-layer metrics of one traced pass.
#pragma once

#include "common.h"

namespace perfbench {

void run_synth(const Config& config, Report& report);
void run_verify(const Config& config, Report& report);
void run_sim(const Config& config, Report& report);
void run_serve(const Config& config, Report& report);

}  // namespace perfbench
