#include "synth/synthesis.h"

#include <sstream>

#include "semantics/equivalence.h"
#include "synth/fold.h"
#include "synth/netlist.h"
#include "synth/parser.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace camad::synth {

SynthesisResult synthesize(std::string_view source,
                           const SynthesisOptions& options) {
  SynthesisResult result;
  result.program = parse_program(source);
  fold_constants(result.program);
  result.serial = compile(result.program, &result.compile_stats);

  dcf::require_properly_designed(result.serial, options.check);

  result.optimization =
      optimize(result.serial, options.library, options.optimizer);
  result.optimized = result.optimization.best;

  dcf::require_properly_designed(result.optimized, options.check);
  if (options.verify_result) {
    semantics::DifferentialOptions diff;
    diff.environments = 4;
    diff.value_lo = options.optimizer.measure.value_lo;
    diff.value_hi = options.optimizer.measure.value_hi;
    diff.sim.max_cycles = options.optimizer.measure.max_cycles;
    const semantics::EquivalenceVerdict verdict =
        semantics::differential_equivalence(result.serial, result.optimized,
                                            diff);
    if (!verdict.holds) {
      throw TransformError("synthesis verification failed: " + verdict.why);
    }
  }

  result.netlist = emit_netlist(result.optimized, options.library);

  Table table({"design point", "area", "cycles", "cycle ns", "time ns",
               "objective"});
  for (const OptimizerStep& step : result.optimization.steps) {
    table.add_row({step.description, format_double(step.metrics.area, 0),
                   format_double(step.metrics.mean_cycles, 1),
                   format_double(step.metrics.cycle_time, 1),
                   format_double(step.metrics.time_ns, 0),
                   format_double(step.objective, 4)});
  }
  std::ostringstream os;
  os << "synthesis of '" << result.program.name << "': "
     << result.compile_stats.states << " states, "
     << result.compile_stats.functional_units << " functional units, "
     << result.compile_stats.registers << " registers\n"
     << table.to_string();
  result.report = os.str();
  return result;
}

}  // namespace camad::synth
