#include "obs/trace.h"

#include <algorithm>

#include "util/json.h"

namespace camad::obs {

namespace detail {
std::atomic<TraceSession*> g_active_session{nullptr};
}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_session_ids{0};

/// Thread-local cache of "my buffer inside session X". The session id —
/// not the pointer — keys the cache, so a new session reusing a dead
/// session's address never resurrects a stale buffer.
struct TlsSlot {
  std::uint64_t session_id = 0;
  void* buffer = nullptr;
};
thread_local TlsSlot tls_slot;

}  // namespace

TraceSession::TraceSession(TraceOptions options)
    : options_(options),
      id_(g_session_ids.fetch_add(1, std::memory_order_relaxed) + 1),
      start_(std::chrono::steady_clock::now()) {}

TraceSession::~TraceSession() { deactivate(); }

void TraceSession::activate() {
  detail::g_active_session.store(this, std::memory_order_release);
}

void TraceSession::deactivate() {
  TraceSession* expected = this;
  detail::g_active_session.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel);
}

TraceSession::ThreadBuffer& TraceSession::local_buffer() {
  if (tls_slot.session_id == id_ && tls_slot.buffer != nullptr) {
    return *static_cast<ThreadBuffer*>(tls_slot.buffer);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer* buffer = buffers_.back().get();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
  tls_slot = {id_, buffer};
  return *buffer;
}

std::uint64_t TraceSession::timestamp(ThreadBuffer& buffer) {
  if (options_.deterministic) return buffer.logical++;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void TraceSession::begin(std::string name) {
  begin(std::move(name), std::string());
}

void TraceSession::begin(std::string name, std::string args_json) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      {'B', timestamp(buffer), std::move(name), std::move(args_json)});
  ++buffer.open_spans;
}

void TraceSession::end() {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.open_spans == 0) return;  // unmatched end: drop, stay valid
  --buffer.open_spans;
  buffer.events.push_back({'E', timestamp(buffer), {}, {}});
}

void TraceSession::instant(std::string name, std::string args_json) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      {'i', timestamp(buffer), std::move(name), std::move(args_json)});
}

void TraceSession::counter(std::string name, double value) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.push_back(
      {'C', timestamp(buffer), std::move(name), {}, value});
}

void TraceSession::name_thread(std::string name) {
  ThreadBuffer& buffer = local_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.thread_name = std::move(name);
}

std::size_t TraceSession::event_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    count += buffer->events.size();
  }
  return count;
}

void TraceSession::write_json(std::ostream& out) const {
  const std::lock_guard<std::mutex> lock(mu_);
  JsonWriter writer(out);
  writer.begin_object().key("traceEvents").begin_array();
  // Microsecond resolution with fractional digits keeps nanosecond
  // ordering while matching the trace-event format's µs convention.
  const auto emit_ts = [&](std::uint64_t ts) {
    if (options_.deterministic) {
      writer.kv("ts", ts);
    } else {
      writer.key("ts").raw(json_number(static_cast<double>(ts) / 1000.0));
    }
  };
  // Buffers are registration-ordered; tids are their indices, so the
  // serialization order is deterministic.
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (!buffer->thread_name.empty()) {
      writer.begin_object()
          .kv("ph", "M")
          .kv("ts", 0)
          .kv("pid", 0)
          .kv("tid", buffer->tid)
          .kv("name", "thread_name")
          .key("args")
          .begin_object()
          .kv("name", buffer->thread_name)
          .end_object()
          .end_object();
    }
    std::uint64_t last_ts = 0;
    for (const Event& event : buffer->events) {
      last_ts = std::max(last_ts, event.ts);
      writer.begin_object();
      writer.key("ph").value(std::string_view(&event.phase, 1));
      emit_ts(event.ts);
      writer.kv("pid", 0).kv("tid", buffer->tid);
      switch (event.phase) {
        case 'B':
          writer.kv("cat", "camad").kv("name", event.name);
          if (!event.args.empty()) writer.key("args").raw(event.args);
          break;
        case 'E':
          break;
        case 'i':
          writer.kv("cat", "camad").kv("name", event.name).kv("s", "t");
          if (!event.args.empty()) writer.key("args").raw(event.args);
          break;
        case 'C':
          writer.kv("name", event.name)
              .key("args")
              .begin_object()
              .key("value")
              .raw(json_number(event.value))
              .end_object();
          break;
        default:
          break;
      }
      writer.end_object();
    }
    // Close spans still open at export time so B/E stay balanced.
    for (std::size_t i = 0; i < buffer->open_spans; ++i) {
      writer.begin_object().kv("ph", "E");
      emit_ts(last_ts);
      writer.kv("pid", 0).kv("tid", buffer->tid).end_object();
    }
  }
  writer.end_array().kv("displayTimeUnit", "ms").end_object();
  out << '\n';
}

}  // namespace camad::obs
