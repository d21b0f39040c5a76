#include "petri/invariants.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "util/error.h"

namespace camad::petri {
namespace {

using Row = std::vector<std::int64_t>;
using Matrix = std::vector<Row>;

std::int64_t gcd64(std::int64_t a, std::int64_t b) {
  return std::gcd(a < 0 ? -a : a, b < 0 ? -b : b);
}

/// Divides a row by the gcd of its entries. No-op for the zero row.
void reduce_row(Row& row) {
  std::int64_t g = 0;
  for (std::int64_t v : row) g = gcd64(g, v);
  if (g == 0) return;
  for (std::int64_t& v : row) v /= g;
}

}  // namespace

Matrix incidence_matrix(const Net& net) {
  Matrix c(net.place_count(), Row(net.transition_count(), 0));
  for (TransitionId t : net.transitions()) {
    for (PlaceId p : net.pre(t)) c[p.index()][t.index()] -= 1;
    for (PlaceId p : net.post(t)) c[p.index()][t.index()] += 1;
  }
  return c;
}

bool is_p_invariant(const Net& net, const Row& y) {
  if (y.size() != net.place_count()) return false;
  bool nonzero = false;
  for (std::int64_t v : y) nonzero |= (v != 0);
  if (!nonzero) return false;
  for (TransitionId t : net.transitions()) {
    std::int64_t sum = 0;
    for (PlaceId p : net.pre(t)) sum -= y[p.index()];
    for (PlaceId p : net.post(t)) sum += y[p.index()];
    if (sum != 0) return false;
  }
  return true;
}

Matrix semi_positive_p_invariants(const Net& net) {
  // Farkas' algorithm on [C | I]: eliminate transition columns by
  // nonnegative row combinations; surviving identity parts are the minimal
  // semi-positive P-invariants. Row count is capped to avoid the
  // exponential worst case (fork/join control nets stay tiny).
  constexpr std::size_t kMaxRows = 4096;
  const std::size_t ns = net.place_count();
  const std::size_t nt = net.transition_count();

  const Matrix c = incidence_matrix(net);
  Matrix d;
  d.reserve(ns);
  for (std::size_t p = 0; p < ns; ++p) {
    Row row(nt + ns, 0);
    for (std::size_t t = 0; t < nt; ++t) row[t] = c[p][t];
    row[nt + p] = 1;
    d.push_back(std::move(row));
  }

  for (std::size_t col = 0; col < nt; ++col) {
    Matrix next;
    // Keep rows already zero in this column.
    for (const Row& row : d) {
      if (row[col] == 0) next.push_back(row);
    }
    // Combine opposite-sign pairs.
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (d[i][col] <= 0) continue;
      for (std::size_t j = 0; j < d.size(); ++j) {
        if (d[j][col] >= 0) continue;
        Row combo(nt + ns);
        const std::int64_t a = -d[j][col];
        const std::int64_t b = d[i][col];
        for (std::size_t k = 0; k < nt + ns; ++k) {
          combo[k] = a * d[i][k] + b * d[j][k];
        }
        reduce_row(combo);
        if (std::find(next.begin(), next.end(), combo) == next.end()) {
          next.push_back(std::move(combo));
        }
        if (next.size() > kMaxRows) {
          throw Error("semi_positive_p_invariants: row explosion");
        }
      }
    }
    d = std::move(next);
  }

  Matrix invariants;
  for (const Row& row : d) {
    Row y(row.begin() + static_cast<std::ptrdiff_t>(nt), row.end());
    bool nonzero = false;
    bool nonneg = true;
    for (std::int64_t v : y) {
      nonzero |= (v != 0);
      nonneg &= (v >= 0);
    }
    if (nonzero && nonneg) invariants.push_back(std::move(y));
  }
  return invariants;
}

bool covered_by_safe_invariants(const Net& net) {
  // Terminating nets (transitions with an empty post-set, Def 3.1 rule 6)
  // conserve no weighted token sum, so the raw net has no semi-positive
  // P-invariants at all. Close the net with a write-only "idle" place
  // that every draining transition feeds: the closed net simulates the
  // original exactly (idle only accumulates), so its invariants bound the
  // original's reachable markings. Coverage is then required only for the
  // original places.
  Net closed = net;
  const PlaceId idle = closed.add_place("idle");
  bool any_drain = false;
  for (TransitionId t : closed.transitions()) {
    if (closed.post(t).empty()) {
      closed.connect(t, idle);
      any_drain = true;
    }
  }
  const Net& analysis_net = any_drain ? closed : net;

  const Matrix invariants = semi_positive_p_invariants(analysis_net);
  std::vector<bool> covered(net.place_count(), false);
  for (const Row& y : invariants) {
    // Initial weighted token sum (idle starts empty, contributes 0).
    std::int64_t sum = 0;
    for (PlaceId p : analysis_net.places()) {
      sum += y[p.index()] *
             static_cast<std::int64_t>(analysis_net.initial_tokens(p));
    }
    if (sum > 1) continue;  // invariant admits 2+ tokens on a unit place
    for (std::size_t p = 0; p < net.place_count(); ++p) {
      if (y[p] >= 1) covered[p] = true;
    }
  }
  return std::all_of(covered.begin(), covered.end(),
                     [](bool b) { return b; });
}

}  // namespace camad::petri
