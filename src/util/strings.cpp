#include "util/strings.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace camad {

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

std::string format_double(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  std::string s(buffer);
  if (s.find('.') != std::string::npos) {
    while (s.back() == '0') s.pop_back();
    if (s.back() == '.') s.pop_back();
  }
  return s;
}

namespace {

/// Runs a strtoX-style `parse` over all of `text`; true only when it
/// consumed every character without a range error. `text` must start
/// with a digit, or with '-' then a digit when `allow_sign`.
template <typename Parse>
bool parse_whole(std::string_view text, bool allow_sign, Parse&& parse) {
  std::string_view digits = text;
  if (allow_sign && !digits.empty() && digits.front() == '-') {
    digits.remove_prefix(1);
  }
  if (digits.empty() ||
      !std::isdigit(static_cast<unsigned char>(digits.front()))) {
    return false;
  }
  const std::string copy(text);  // strto* need a terminator
  char* end = nullptr;
  errno = 0;
  parse(copy.c_str(), &end);
  return errno == 0 && end == copy.c_str() + copy.size();
}

}  // namespace

bool parse_u64(std::string_view text, std::uint64_t& out) {
  unsigned long long value = 0;
  if (!parse_whole(text, false, [&](const char* s, char** end) {
        value = std::strtoull(s, end, 10);
      })) {
    return false;
  }
  out = value;
  return true;
}

bool parse_i64(std::string_view text, std::int64_t& out) {
  long long value = 0;
  if (!parse_whole(text, true, [&](const char* s, char** end) {
        value = std::strtoll(s, end, 10);
      })) {
    return false;
  }
  out = value;
  return true;
}

bool parse_double(std::string_view text, double& out) {
  double value = 0;
  if (!parse_whole(text, true, [&](const char* s, char** end) {
        value = std::strtod(s, end);
      }) ||
      !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace camad
