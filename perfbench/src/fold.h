// Span folding for the traced benchmark run.
//
// Reads the chrome trace-event document obs::TraceSession::write_json
// produces and computes, per thread, each span's self time: its duration
// minus the part its children on the same thread cover. Self times are
// summed by span name across threads (pool workers included), and the
// samples of chosen counter tracks are kept in order.
//
// The folder is streaming: it consumes the document as it is written, so
// a trace is held once (in the session) and never as text. That matters
// for the optimizer's traces, which reach hundreds of megabytes.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace camad::obs {
class TraceSession;
}

namespace perfbench {

struct SpanTotals {
  double self_s = 0;   ///< duration not covered by same-thread children
  double total_s = 0;  ///< inclusive duration
  double top_s = 0;    ///< inclusive duration of occurrences at depth 0
  std::uint64_t count = 0;
};

struct CounterSample {
  double ts_s = 0;
  double value = 0;
};

struct Fold {
  std::map<std::string, SpanTotals, std::less<>> spans;
  /// Kept counter tracks by (name, thread id), samples in recording order.
  std::map<std::pair<std::string, std::uint32_t>, std::vector<CounterSample>>
      counters;

  [[nodiscard]] double self_s(std::string_view name) const;
  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::uint64_t count(std::string_view name) const;
  /// Summed self time / occurrence count of every span whose name starts
  /// with `prefix`.
  [[nodiscard]] double self_prefix_s(std::string_view prefix) const;
  [[nodiscard]] std::uint64_t count_prefix(std::string_view prefix) const;
  /// Summed depth-0 duration of every span not named "bench.*" — the time
  /// threads spent inside the program's own instrumented calls.
  [[nodiscard]] double program_top_s() const;
  void merge(const Fold& other);
};

class SpanFolder {
 public:
  /// `kept_counters` names the counter tracks whose samples are kept.
  explicit SpanFolder(std::set<std::string, std::less<>> kept_counters = {});

  /// Consumes the next piece of the document.
  void feed(std::string_view chunk);
  /// Ends the document; throws std::runtime_error when it was malformed
  /// or its spans did not balance per thread.
  Fold finish();

 private:
  struct Frame {
    std::size_t name = 0;
    double start_us = 0;
    double child_us = 0;
  };
  struct Event {
    char phase = 0;
    double ts_us = 0;
    std::uint32_t tid = 0;
    std::string name;
    double value = 0;
  };

  void put(char c);
  void end_scalar();
  void on_value(std::string_view text, bool is_string);
  void on_event();
  void fail(const std::string& why);

  std::set<std::string, std::less<>> kept_;
  // Scanner state.
  std::string kinds_;  ///< open containers, '{' or '[' each
  bool in_string_ = false;
  bool in_scalar_ = false;
  bool escape_ = false;
  bool after_colon_ = false;
  std::string token_;
  std::vector<std::string> keys_;  ///< last key per object depth
  // Event under construction and per-thread span stacks.
  Event event_;
  std::unordered_map<std::uint32_t, std::vector<Frame>> stacks_;
  std::unordered_map<std::string, std::size_t> ids_;
  std::vector<std::string> names_;
  std::vector<SpanTotals> totals_us_;
  Fold fold_;
  std::string error_;
};

/// Folds the session's export without materializing it.
Fold fold_session(const camad::obs::TraceSession& session,
                  std::set<std::string, std::less<>> kept_counters = {});

/// The layers a span name maps to.
inline constexpr std::string_view kLayers[] = {
    "synth", "dcf", "semantics", "transform", "sim",
    "mc",    "petri", "gen",     "serve"};

/// Layer of a span: one of kLayers, "unattributed" for the benchmark's
/// own root spans ("bench.*"), "other" for anything unknown.
std::string_view layer_of(std::string_view span);

/// Self time summed per layer_of() value.
std::map<std::string, double, std::less<>> layer_self_s(const Fold& fold);

/// For a growing counter (mc.states): the rate over the second half of
/// its growth divided by the rate over the first half, interpolating the
/// half-way time linearly between samples. 0 when undefined.
double tail_rate_ratio(const std::vector<CounterSample>& samples);

}  // namespace perfbench
