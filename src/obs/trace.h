// Chrome-trace-event recording for the performance-critical engines.
//
// A TraceSession collects duration spans (ph B/E), instant events (ph i)
// and counter samples (ph C) into per-thread buffers and serializes them
// as a chrome://tracing- / Perfetto-loadable JSON document
// ({"traceEvents": [...]}). One session can be *activated* as the
// process-wide recorder; instrumentation sites all over the library
// (sim::Simulator, semantics::AnalysisCache, transform::PassPipeline,
// synth::optimize, gen's oracle battery) funnel into whatever session is
// active.
//
// Overhead contract: with no active session an instrumentation site
// costs one relaxed-ish atomic load and performs no allocation — the
// ObsSpan constructors take string_views and only materialize strings
// after the session check. bench/bench_obs.cpp holds the sim engine to
// that contract (disabled tracing within ~2% of the uninstrumented
// throughput).
//
// Threading: any thread may record into an active session. Each thread
// gets its own buffer (created on first use, owned by the session so it
// outlives short-lived pool workers); appends take only that buffer's
// mutex. Export may run concurrently with recording and sees a
// consistent prefix. Activation/deactivation is not synchronized against
// in-flight spans — keep the session alive until every recording thread
// has joined (the CLI pattern: activate, run, join, deactivate, write).
//
// Determinism: TraceOptions::deterministic replaces wall-clock
// timestamps with per-thread logical ticks and uses registration-order
// thread ids, so two identical executions serialize byte-identically —
// the `--trace-deterministic` CLI mode tests golden-compare against.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace camad::obs {

class TraceSession;

namespace detail {
/// The process-wide active session (nullptr = tracing disabled). Relaxed
/// loads are fine for the fast-path check; activation publishes with
/// release so a freshly constructed session is visible to recorders.
extern std::atomic<TraceSession*> g_active_session;
}  // namespace detail

struct TraceOptions {
  /// Logical per-thread clocks + registration-order thread ids instead
  /// of wall time, for byte-identical traces of identical executions.
  bool deterministic = false;
};

class TraceSession {
 public:
  explicit TraceSession(TraceOptions options = {});
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Publishes this session as the process-wide recorder. Only one
  /// session is active at a time; activating another replaces it.
  void activate();
  /// Un-publishes (no-op if another session took over meanwhile).
  void deactivate();
  [[nodiscard]] static TraceSession* active() {
    return detail::g_active_session.load(std::memory_order_acquire);
  }

  /// Opens a duration span on the calling thread's track.
  void begin(std::string name);
  /// As begin(), with a pre-rendered JSON object ("{...}") of arguments.
  void begin(std::string name, std::string args_json);
  /// Closes the innermost open span on the calling thread's track.
  void end();
  /// Thread-scoped instant event, optionally with a JSON args object.
  void instant(std::string name, std::string args_json = {});
  /// Counter-track sample.
  void counter(std::string name, double value);
  /// Names the calling thread's track ("sim-worker-3") via a metadata
  /// event.
  void name_thread(std::string name);

  [[nodiscard]] const TraceOptions& options() const { return options_; }
  /// Total recorded events across all threads (metadata excluded).
  [[nodiscard]] std::size_t event_count() const;

  /// Serializes {"traceEvents": [...]} — loadable by chrome://tracing
  /// and Perfetto. Open spans are closed at their thread's last
  /// timestamp so the document is always well-formed.
  void write_json(std::ostream& out) const;

 private:
  struct Event {
    char phase;         ///< 'B', 'E', 'i', 'C'
    std::uint64_t ts;   ///< ns since session start, or logical tick
    std::string name;   ///< empty for 'E'
    std::string args;   ///< pre-rendered JSON object, possibly empty
    double value = 0;   ///< 'C' only
  };
  struct ThreadBuffer {
    std::mutex mu;
    std::uint32_t tid = 0;
    std::string thread_name;
    std::vector<Event> events;
    std::size_t open_spans = 0;
    std::uint64_t logical = 0;
  };

  ThreadBuffer& local_buffer();
  std::uint64_t timestamp(ThreadBuffer& buffer);
  void append(Event event);

  TraceOptions options_;
  std::uint64_t id_;  ///< process-unique, keys the thread-local lookup
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;  ///< guards buffers_
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// True iff a session is currently active. Call sites that must build a
/// dynamic name or args string guard on this (or on active()) so the
/// disabled path allocates nothing.
[[nodiscard]] inline bool tracing_enabled() {
  return TraceSession::active() != nullptr;
}

/// RAII duration span against the active session (no-op when none).
/// Captures the session at construction so the matching end() goes to
/// the same recorder even if activation changes mid-span.
class ObsSpan {
 public:
  explicit ObsSpan(std::string_view name) : session_(TraceSession::active()) {
    if (session_ != nullptr) session_->begin(std::string(name));
  }
  /// Concatenated name ("pass." + name); assembled only when recording.
  ObsSpan(std::string_view prefix, std::string_view suffix)
      : session_(TraceSession::active()) {
    if (session_ != nullptr) {
      std::string name;
      name.reserve(prefix.size() + suffix.size());
      name.append(prefix);
      name.append(suffix);
      session_->begin(std::move(name));
    }
  }
  /// Span with arguments; `args_fn` renders the JSON args object and is
  /// invoked only when a session is active.
  template <typename Fn>
  ObsSpan(std::string_view name, Fn&& args_fn)
    requires std::is_invocable_r_v<std::string, Fn>
      : session_(TraceSession::active()) {
    if (session_ != nullptr) {
      session_->begin(std::string(name), std::forward<Fn>(args_fn)());
    }
  }
  ~ObsSpan() {
    if (session_ != nullptr) session_->end();
  }

  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  TraceSession* session_;
};

}  // namespace camad::obs
