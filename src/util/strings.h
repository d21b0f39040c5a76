// Small string helpers shared across modules (GCC 12 lacks std::format).
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace camad {

/// Joins the elements of `items` (streamed with operator<<) with `sep`.
template <typename Range>
std::string join(const Range& items, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first) os << sep;
    first = false;
    os << item;
  }
  return os.str();
}

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// True iff `text` starts with `prefix`.
inline bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

/// Formats a double with `digits` significant decimals, trimming zeros.
std::string format_double(double value, int digits = 3);

/// Strict number parsers for command-line values: `text` must be exactly
/// one decimal number, in range, with no surrounding space. On failure
/// they return false and leave `out` unchanged (std::sto* would throw
/// instead, or accept "12abc" as 12). parse_u64 takes no sign;
/// parse_double accepts finite values only.
bool parse_u64(std::string_view text, std::uint64_t& out);
bool parse_i64(std::string_view text, std::int64_t& out);
bool parse_double(std::string_view text, double& out);

}  // namespace camad
