#include "fold.h"

#include <algorithm>
#include <cstdlib>
#include <ostream>
#include <stdexcept>
#include <streambuf>

#include "obs/trace.h"

namespace perfbench {

double Fold::self_s(std::string_view name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_s;
}

double Fold::total_s(std::string_view name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.total_s;
}

std::uint64_t Fold::count(std::string_view name) const {
  const auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.count;
}

double Fold::self_prefix_s(std::string_view prefix) const {
  double sum = 0;
  for (auto it = spans.lower_bound(prefix);
       it != spans.end() && it->first.starts_with(prefix); ++it) {
    sum += it->second.self_s;
  }
  return sum;
}

std::uint64_t Fold::count_prefix(std::string_view prefix) const {
  std::uint64_t sum = 0;
  for (auto it = spans.lower_bound(prefix);
       it != spans.end() && it->first.starts_with(prefix); ++it) {
    sum += it->second.count;
  }
  return sum;
}

double Fold::program_top_s() const {
  double sum = 0;
  for (const auto& [name, totals] : spans) {
    if (!name.starts_with("bench.")) sum += totals.top_s;
  }
  return sum;
}

void Fold::merge(const Fold& other) {
  for (const auto& [name, totals] : other.spans) {
    SpanTotals& mine = spans[name];
    mine.self_s += totals.self_s;
    mine.total_s += totals.total_s;
    mine.top_s += totals.top_s;
    mine.count += totals.count;
  }
  for (const auto& [key, samples] : other.counters) {
    std::vector<CounterSample>& mine = counters[key];
    mine.insert(mine.end(), samples.begin(), samples.end());
  }
}

SpanFolder::SpanFolder(std::set<std::string, std::less<>> kept_counters)
    : kept_(std::move(kept_counters)) {}

void SpanFolder::feed(std::string_view chunk) {
  for (const char c : chunk) put(c);
}

void SpanFolder::fail(const std::string& why) {
  if (error_.empty()) error_ = why;
}

// A scanner for exactly the JSON shape write_json emits: strings, numbers
// and literals inside nested objects and arrays. `kinds_` holds the open
// containers; an event object is the one at "{[{" (root object,
// traceEvents array, event).
void SpanFolder::put(char c) {
  if (!error_.empty()) return;
  if (in_string_) {
    if (escape_) {
      escape_ = false;
      token_ += c == 'n' ? '\n' : c == 't' ? '\t' : c;
    } else if (c == '\\') {
      escape_ = true;
    } else if (c == '"') {
      in_string_ = false;
      const bool is_key = !kinds_.empty() && kinds_.back() == '{' &&
                          !after_colon_;
      if (is_key) {
        keys_[kinds_.size()] = token_;
      } else {
        on_value(token_, true);
      }
      token_.clear();
    } else {
      token_ += c;
    }
    return;
  }
  switch (c) {
    case '"':
      end_scalar();
      in_string_ = true;
      token_.clear();
      return;
    case '{':
    case '[':
      end_scalar();
      kinds_ += c;
      if (keys_.size() <= kinds_.size()) keys_.resize(kinds_.size() + 1);
      keys_[kinds_.size()].clear();
      if (kinds_ == "{[{") event_ = Event{};
      after_colon_ = false;
      return;
    case '}':
    case ']':
      end_scalar();
      if (kinds_.empty() || kinds_.back() != (c == '}' ? '{' : '[')) {
        fail("trace: mismatched bracket");
        return;
      }
      if (kinds_ == "{[{") on_event();
      kinds_.pop_back();
      after_colon_ = false;
      return;
    case ':':
      end_scalar();
      after_colon_ = true;
      return;
    case ',':
      end_scalar();
      after_colon_ = false;
      return;
    case ' ':
    case '\n':
    case '\r':
    case '\t':
      end_scalar();
      return;
    default:
      in_scalar_ = true;
      token_ += c;
      return;
  }
}

void SpanFolder::end_scalar() {
  if (!in_scalar_) return;
  in_scalar_ = false;
  on_value(token_, false);
  token_.clear();
}

void SpanFolder::on_value(std::string_view text, bool is_string) {
  const auto number = [&] { return std::strtod(std::string(text).c_str(),
                                               nullptr); };
  if (kinds_ == "{[{") {
    const std::string& key = keys_[3];
    if (key == "ph" && is_string && !text.empty()) {
      event_.phase = text[0];
    } else if (key == "ts") {
      event_.ts_us = number();
    } else if (key == "tid") {
      event_.tid = static_cast<std::uint32_t>(number());
    } else if (key == "name" && is_string) {
      event_.name = text;
    }
  } else if (kinds_ == "{[{{" && keys_[3] == "args" && keys_[4] == "value") {
    event_.value = number();
  }
}

void SpanFolder::on_event() {
  switch (event_.phase) {
    case 'B': {
      auto [it, inserted] = ids_.try_emplace(event_.name, names_.size());
      if (inserted) {
        names_.push_back(event_.name);
        totals_us_.emplace_back();
      }
      stacks_[event_.tid].push_back(Frame{it->second, event_.ts_us, 0});
      return;
    }
    case 'E': {
      std::vector<Frame>& stack = stacks_[event_.tid];
      if (stack.empty()) {
        fail("trace: span end without a begin on thread " +
             std::to_string(event_.tid));
        return;
      }
      const Frame frame = stack.back();
      stack.pop_back();
      const double duration = std::max(0.0, event_.ts_us - frame.start_us);
      SpanTotals& totals = totals_us_[frame.name];
      totals.self_s += std::max(0.0, duration - frame.child_us);
      totals.total_s += duration;
      ++totals.count;
      if (stack.empty()) {
        totals.top_s += duration;
      } else {
        stack.back().child_us += duration;
      }
      return;
    }
    case 'C':
      if (kept_.contains(event_.name)) {
        fold_.counters[{event_.name, event_.tid}].push_back(
            CounterSample{event_.ts_us * 1e-6, event_.value});
      }
      return;
    default:
      return;
  }
}

Fold SpanFolder::finish() {
  end_scalar();
  if (error_.empty() && (!kinds_.empty() || in_string_)) {
    fail("trace: document ended inside a value");
  }
  for (const auto& [tid, stack] : stacks_) {
    if (!stack.empty()) {
      fail("trace: " + std::to_string(stack.size()) +
           " unclosed span(s) on thread " + std::to_string(tid));
    }
  }
  if (!error_.empty()) throw std::runtime_error(error_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const SpanTotals& us = totals_us_[i];
    fold_.spans[names_[i]] = SpanTotals{us.self_s * 1e-6, us.total_s * 1e-6,
                                        us.top_s * 1e-6, us.count};
  }
  return std::move(fold_);
}

namespace {

/// Output buffer that hands every filled block to a SpanFolder.
class FoldBuf final : public std::streambuf {
 public:
  explicit FoldBuf(SpanFolder& folder) : folder_(folder) {
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

 protected:
  int_type overflow(int_type ch) override {
    drain();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void drain() {
    folder_.feed(std::string_view(pbase(),
                                  static_cast<std::size_t>(pptr() - pbase())));
    setp(buffer_, buffer_ + sizeof(buffer_));
  }

  SpanFolder& folder_;
  char buffer_[1 << 16];
};

}  // namespace

Fold fold_session(const camad::obs::TraceSession& session,
                  std::set<std::string, std::less<>> kept_counters) {
  SpanFolder folder(std::move(kept_counters));
  FoldBuf buffer(folder);
  std::ostream out(&buffer);
  session.write_json(out);
  out.flush();
  return folder.finish();
}

std::string_view layer_of(std::string_view span) {
  if (span.starts_with("bench.")) return "unattributed";
  if (span.starts_with("pareto") || span.starts_with("optimize") ||
      span.starts_with("synth.")) {
    return "synth";
  }
  static constexpr std::pair<std::string_view, std::string_view> kPrefixes[] =
      {{"dcf.", "dcf"},         {"analysis.", "semantics"},
       {"semantics.", "semantics"}, {"transform.", "transform"},
       {"pass.", "transform"},  {"sim.", "sim"},
       {"mc.", "mc"},           {"petri.", "petri"},
       {"gen.", "gen"},         {"oracle.", "gen"},
       {"serve.", "serve"}};
  for (const auto& [prefix, layer] : kPrefixes) {
    if (span.starts_with(prefix)) return layer;
  }
  return "other";
}

std::map<std::string, double, std::less<>> layer_self_s(const Fold& fold) {
  std::map<std::string, double, std::less<>> out;
  for (const auto& [name, totals] : fold.spans) {
    out[std::string(layer_of(name))] += totals.self_s;
  }
  return out;
}

double tail_rate_ratio(const std::vector<CounterSample>& samples) {
  if (samples.size() < 3) return 0;
  const CounterSample& first = samples.front();
  const CounterSample& last = samples.back();
  if (last.value <= first.value || last.ts_s <= first.ts_s) return 0;
  const double half = first.value + (last.value - first.value) / 2;
  double t_half = last.ts_s;
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const CounterSample& a = samples[i - 1];
    const CounterSample& b = samples[i];
    if (b.value >= half) {
      t_half = b.value > a.value ? a.ts_s + (half - a.value) /
                                                (b.value - a.value) *
                                                (b.ts_s - a.ts_s)
                                 : b.ts_s;
      break;
    }
  }
  if (t_half <= first.ts_s || t_half >= last.ts_s) return 0;
  const double first_rate = (half - first.value) / (t_half - first.ts_s);
  const double second_rate = (last.value - half) / (last.ts_s - t_half);
  return second_rate / first_rate;
}

}  // namespace perfbench
