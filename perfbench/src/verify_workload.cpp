// verify: the `camadc verify` path on four nets, from file bytes to
// verdicts — petri::from_pnml, gen::lift_control_net, then
// AnalysisCache::model_check at the CPU count. The visited store grows
// from 59k to 1.7M states across the nets. The seed only orders them.
#include <algorithm>
#include <sstream>

#include "fold.h"
#include "gen/lift.h"
#include "mc/checker.h"
#include "obs/trace.h"
#include "petri/pnml.h"
#include "runs.h"
#include "semantics/analysis.h"

namespace perfbench {
namespace {

using namespace camad;

struct Expected {
  bool safe = true;
  bool bounded = true;
  bool deadlock = false;
  bool terminates = true;
  std::size_t dead = 0;
  std::size_t markings = 0;
};

struct Net {
  std::string name;  ///< file stem
  std::string path;  ///< relative to the repository root
  std::string text;
  Expected expected;
};

/// Verdicts of designs/pnml/<name>.pnml from designs/pnml/expected.tsv.
Expected corpus_expectation(const std::string& tsv, const std::string& name) {
  std::istringstream in(tsv);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string instance, safe, bounded, deadlock, terminates;
    Expected e;
    if (!(fields >> instance >> safe >> bounded >> deadlock >> terminates >>
          e.dead >> e.markings) ||
        instance != name) {
      continue;
    }
    e.safe = safe == "yes";
    e.bounded = bounded == "yes";
    e.deadlock = deadlock == "yes";
    e.terminates = terminates == "yes";
    return e;
  }
  throw std::runtime_error("no expected verdicts for " + name);
}

std::vector<Net> load_nets(const Config& config) {
  const std::string tsv = read_file(config.root + "/designs/pnml/expected.tsv");
  std::vector<Net> nets;
  const auto corpus = [&](const std::string& name) {
    nets.push_back({name, "designs/pnml/" + name + ".pnml", {},
                    corpus_expectation(tsv, name)});
  };
  if (!config.smoke) {
    // The bench nets' counts are the ones CI pins; both are safe
    // series-parallel nets that terminate.
    nets.push_back({"nest2x4", "designs/bench/nest2x4.pnml", {},
                    Expected{true, true, false, true, 0, 1715364}});
    nets.push_back({"fork9x4", "designs/bench/fork9x4.pnml", {},
                    Expected{true, true, false, true, 0, 262147}});
    corpus("Philosophers-PT-14");
  }
  corpus("Referendum-PT-10");
  for (Net& net : nets) net.text = read_file(config.root + "/" + net.path);
  return nets;
}

mc::McOptions mc_options(const Config& config) {
  mc::McOptions options;
  options.threads = config.threads;
  options.max_states = 4000000;  // above the largest net, as CI sets it
  return options;
}

struct Checked {
  mc::McResult result;
  double seconds = 0;     ///< bytes to verdicts
  double check_s = 0;     ///< the model_check call alone
  double check_cpu_s = 0;  ///< process CPU time during it
};

/// Bytes to verdicts for one net, each stage inside a span (a no-op
/// unless a trace session is active).
Checked check_net(const Net& net, const mc::McOptions& options) {
  const Clock::time_point t0 = Clock::now();
  petri::PnmlImport imported = [&] {
    const obs::ObsSpan span("petri.from_pnml");
    return petri::from_pnml(net.text);
  }();
  const dcf::System system = [&] {
    const obs::ObsSpan span("gen.lift_control_net");
    return gen::lift_control_net(
        imported.net, gen::LiftOptions{},
        imported.net_id.empty() ? net.name : imported.net_id);
  }();
  const semantics::AnalysisCache cache(system, {}, options);
  Checked out;
  const Clock::time_point check0 = Clock::now();
  const double cpu0 = process_cpu_s();
  {
    const obs::ObsSpan span("mc.model_check");
    out.result = cache.model_check();
  }
  out.check_cpu_s = process_cpu_s() - cpu0;
  out.check_s = seconds_since(check0);
  out.seconds = seconds_since(t0);
  return out;
}

/// Compares a result with the pinned verdicts; true when they agree.
bool agrees(const Net& net, const mc::McResult& r, Report& report) {
  const Expected& e = net.expected;
  if (r.complete && r.safe == e.safe && r.bounded == e.bounded &&
      r.deadlock == e.deadlock && r.can_terminate == e.terminates &&
      r.dead_transitions.size() == e.dead && r.marking_count == e.markings) {
    return true;
  }
  std::ostringstream os;
  os << net.name << ": got complete=" << r.complete << " safe=" << r.safe
     << " bounded=" << r.bounded << " deadlock=" << r.deadlock
     << " terminates=" << r.can_terminate
     << " dead=" << r.dead_transitions.size()
     << " markings=" << r.marking_count << ", expected markings="
     << e.markings;
  report.mismatch(os.str());
  return false;
}

}  // namespace

void run_verify(const Config& config, Report& report) {
  const mc::McOptions options = mc_options(config);
  std::vector<Net> nets;
  // Set-up: the file reads, then one check of the smallest net so the
  // worker threads' allocator arenas exist before anything is timed.
  std::vector<double> setup_cpu;
  sample_setup(config.smoke ? 1 : 5, [&] {
    nets = load_nets(config);
    (void)check_net(nets.back(), options);
  }, setup_cpu);
  report.setup_s = median(setup_cpu);
  const std::vector<std::size_t> order = seeded_order(nets.size(), config.seed);

  const auto pass = [&] {
    for (const std::size_t i : order) {
      ++report.attempted;
      const Checked c = check_net(nets[i], options);
      if (!c.result.complete) ++report.failed;  // cut off by max_states
      agrees(nets[i], c.result, report);
    }
  };

  if (!config.trace) {
    report.passes = timed_passes(config.seconds, pass);
    report.peak_rss_mb = peak_rss_mb();
    std::vector<double> walls;
    for (const Cost& c : report.passes) walls.push_back(c.wall_s);
    report.figure("verify_s", median(walls), "s");
    return;
  }

  const Clock::time_point t0 = Clock::now();
  pass();
  const double untraced_s = seconds_since(t0);

  Fold fold;
  double traced_s = 0;
  double cpu_s = 0;
  double check_s = 0;
  double states = 0;
  std::size_t largest = 0;
  auto& m = report.layers;
  for (const std::size_t i : order) {
    const Net& net = nets[i];
    obs::TraceSession session;
    session.activate();
    Checked c;
    {
      const obs::ObsSpan root("bench.verify");
      c = check_net(net, options);
    }
    session.deactivate();
    cpu_s += c.check_cpu_s;
    check_s += c.check_s;
    traced_s += c.seconds;
    agrees(net, c.result, report);

    const Fold net_fold = fold_session(session, {"mc.states"});
    fold.merge(net_fold);
    const mc::McResult& r = c.result;
    m["mc.search_s." + net.name] = net_fold.self_s("mc.search");
    states += static_cast<double>(r.state_count);
    m["mc.max_frontier"] = std::max(
        m["mc.max_frontier"], static_cast<double>(r.stats.max_frontier));
    m["mc.max_probe_length"] =
        std::max(m["mc.max_probe_length"],
                 static_cast<double>(r.stats.max_probe_length));
    if (r.state_count >= largest) {
      // Store growth shows on the largest net.
      largest = r.state_count;
      m["mc.bytes_per_state"] = static_cast<double>(r.stats.store_bytes) /
                                static_cast<double>(r.state_count);
      double ratio = 0;
      std::size_t samples = 0;
      for (const auto& [key, series] : net_fold.counters) {
        if (series.size() > samples) {
          samples = series.size();
          ratio = tail_rate_ratio(series);
        }
      }
      m["mc.tail_rate_ratio"] = ratio;
    }
  }
  m["obs.trace_overhead"] = traced_s / untraced_s - 1;
  m["mc.search_s"] = fold.self_s("mc.search");
  m["mc.states_per_s"] = m["mc.search_s"] > 0 ? states / m["mc.search_s"] : 0;
  m["mc.cpu_util"] =
      check_s > 0 ? cpu_s / (check_s * static_cast<double>(config.threads))
                  : 0;
  m["petri.pnml_parse_s"] = fold.total_s("petri.from_pnml");
  m["gen.lift_s"] = fold.total_s("gen.lift_control_net");
  add_shares(report, layer_self_s(fold));
}

}  // namespace perfbench
