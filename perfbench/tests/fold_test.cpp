// Tests of the span folder on a hand-built trace (nested spans on two
// threads and a counter track) and on a live TraceSession export.
// Prints every failed check and exits nonzero if there was one.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "fold.h"
#include "obs/trace.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::cerr << __FILE__ << ':' << __LINE__ << ": CHECK failed: " #cond \
                << '\n';                                                 \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

// Times are microseconds. Thread 0: bench.synth [0,100] > pareto [10,90]
// > pareto.generation [20,80] > sim.run [30,60] > sim.compile_plan
// [35,45]. Thread 1: pareto.expand [12,32] > transform.parallelize
// [14,18], then an mc.states counter track growing 1 -> 51 -> 101 at
// 1 s, 2 s and 4 s. Arguments hold quotes and braces the scanner must
// skip.
const char* const kTrace = R"({"traceEvents":[
{"ph":"M","ts":0,"pid":0,"tid":0,"name":"thread_name","args":{"name":"main"}},
{"ph":"B","ts":0,"pid":0,"tid":0,"cat":"camad","name":"bench.synth"},
{"ph":"B","ts":10,"pid":0,"tid":0,"cat":"camad","name":"pareto","args":{"note":"a \"quoted\" } ] brace"}},
{"ph":"B","ts":20.0,"pid":0,"tid":0,"cat":"camad","name":"pareto.generation"},
{"ph":"B","ts":30,"pid":0,"tid":0,"cat":"camad","name":"sim.run"},
{"ph":"B","ts":35,"pid":0,"tid":0,"cat":"camad","name":"sim.compile_plan"},
{"ph":"i","ts":40,"pid":0,"tid":0,"cat":"camad","name":"optimize.accept","s":"t"},
{"ph":"E","ts":45,"pid":0,"tid":0},
{"ph":"E","ts":60,"pid":0,"tid":0},
{"ph":"E","ts":80,"pid":0,"tid":0},
{"ph":"E","ts":90,"pid":0,"tid":0},
{"ph":"E","ts":100,"pid":0,"tid":0},
{"ph":"M","ts":0,"pid":0,"tid":1,"name":"thread_name","args":{"name":"worker-0"}},
{"ph":"B","ts":12,"pid":0,"tid":1,"cat":"camad","name":"pareto.expand","args":{"job":3}},
{"ph":"B","ts":14,"pid":0,"tid":1,"cat":"camad","name":"transform.parallelize"},
{"ph":"E","ts":18,"pid":0,"tid":1},
{"ph":"E","ts":32,"pid":0,"tid":1},
{"ph":"C","ts":1000000,"pid":0,"tid":1,"name":"mc.states","args":{"value":1}},
{"ph":"C","ts":2000000,"pid":0,"tid":1,"name":"mc.frontier","args":{"value":7}},
{"ph":"C","ts":2000000,"pid":0,"tid":1,"name":"mc.states","args":{"value":51}},
{"ph":"C","ts":4000000,"pid":0,"tid":1,"name":"mc.states","args":{"value":1.01e2}}
],"displayTimeUnit":"ms"}
)";

void check_hand_built(const perfbench::Fold& fold) {
  CHECK(near(fold.self_s("bench.synth"), 20e-6));
  CHECK(near(fold.total_s("bench.synth"), 100e-6));
  CHECK(near(fold.self_s("pareto"), 20e-6));
  CHECK(near(fold.self_s("pareto.generation"), 30e-6));
  CHECK(near(fold.self_s("sim.run"), 20e-6));
  CHECK(near(fold.total_s("sim.run"), 30e-6));
  CHECK(near(fold.self_s("sim.compile_plan"), 10e-6));
  CHECK(near(fold.self_s("pareto.expand"), 16e-6));
  CHECK(near(fold.self_s("transform.parallelize"), 4e-6));
  CHECK(fold.count("sim.run") == 1);
  CHECK(fold.count("optimize.accept") == 0);  // instants are not spans
  CHECK(fold.count_prefix("sim.") == 2);
  CHECK(near(fold.self_prefix_s("pareto"), 66e-6));
  // Depth-0 time outside the benchmark's own root spans: thread 1's
  // pareto.expand only.
  CHECK(near(fold.program_top_s(), 20e-6));

  const auto layers = perfbench::layer_self_s(fold);
  CHECK(near(layers.at("synth"), 66e-6));
  CHECK(near(layers.at("sim"), 30e-6));
  CHECK(near(layers.at("transform"), 4e-6));
  CHECK(near(layers.at("unattributed"), 20e-6));
  double sum = 0;
  for (const auto& [layer, s] : layers) sum += s;
  CHECK(near(sum, 120e-6));  // self times partition thread time

  CHECK(fold.counters.size() == 1);  // only the kept track
  const auto& samples = fold.counters.at({"mc.states", 1});
  CHECK(samples.size() == 3);
  // 50 states in the first second, 50 in the next two: half the rate.
  CHECK(near(perfbench::tail_rate_ratio(samples), 0.5));
}

perfbench::Fold fold_in_chunks(const std::string& text, std::size_t chunk) {
  perfbench::SpanFolder folder({"mc.states"});
  for (std::size_t at = 0; at < text.size(); at += chunk) {
    folder.feed(std::string_view(text).substr(at, chunk));
  }
  return folder.finish();
}

void test_hand_built() {
  const std::string text = kTrace;
  // Chunk boundaries must not matter: whole, one byte, and odd sizes.
  for (const std::size_t chunk : {text.size(), std::size_t{1},
                                  std::size_t{7}, std::size_t{64}}) {
    check_hand_built(fold_in_chunks(text, chunk));
  }
}

void test_merge() {
  perfbench::Fold a = fold_in_chunks(kTrace, 5);
  a.merge(fold_in_chunks(kTrace, 9));
  CHECK(near(a.self_s("sim.run"), 40e-6));
  CHECK(a.count("pareto") == 2);
  CHECK(a.counters.at({"mc.states", 1}).size() == 6);
}

void test_malformed() {
  const auto throws = [](const std::string& text) {
    try {
      fold_in_chunks(text, 3);
    } catch (const std::runtime_error&) {
      return true;
    }
    return false;
  };
  // An end without a begin, an unclosed span, and a truncated document.
  CHECK(throws(R"({"traceEvents":[{"ph":"E","ts":1,"pid":0,"tid":0}]})"));
  CHECK(throws(
      R"({"traceEvents":[{"ph":"B","ts":1,"pid":0,"tid":0,"name":"x"}]})"));
  CHECK(throws(std::string(kTrace).substr(0, 200)));
}

void test_tail_ratio_edges() {
  using perfbench::CounterSample;
  CHECK(perfbench::tail_rate_ratio({}) == 0);
  CHECK(perfbench::tail_rate_ratio({{0, 1}, {1, 2}}) == 0);
  CHECK(perfbench::tail_rate_ratio({{0, 5}, {1, 5}, {2, 5}}) == 0);
  // Constant rate: ratio 1.
  CHECK(near(perfbench::tail_rate_ratio({{0, 0}, {1, 10}, {2, 20}}), 1.0));
}

void test_live_session() {
  camad::obs::TraceSession session;
  session.activate();
  {
    const camad::obs::ObsSpan outer("bench.test");
    {
      const camad::obs::ObsSpan inner("sim.run");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::thread worker([] {
      const camad::obs::ObsSpan span("mc.search");
      camad::obs::TraceSession::active()->counter("mc.states", 3);
    });
    worker.join();
  }
  session.deactivate();
  const perfbench::Fold fold =
      perfbench::fold_session(session, {"mc.states"});
  CHECK(fold.count("bench.test") == 1);
  CHECK(fold.count("sim.run") == 1);
  CHECK(fold.count("mc.search") == 1);
  CHECK(fold.self_s("sim.run") >= 0.002);
  CHECK(fold.total_s("bench.test") >= fold.total_s("sim.run"));
  CHECK(std::abs(fold.self_s("bench.test") + fold.total_s("sim.run") -
                 fold.total_s("bench.test")) < 1e-6);
  CHECK(fold.counters.size() == 1);
}

}  // namespace

int main() {
  test_hand_built();
  test_merge();
  test_malformed();
  test_tail_ratio_edges();
  test_live_session();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "fold_test: all checks passed\n";
  return 0;
}
