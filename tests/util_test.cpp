#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/bitset.h"
#include "util/dot.h"
#include "util/error.h"
#include "util/ids.h"
#include "util/json.h"
#include "util/lru.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace camad {
namespace {

struct FooTag;
struct BarTag;
using FooId = StrongId<FooTag>;
using BarId = StrongId<BarTag>;

TEST(StrongId, DefaultIsInvalid) {
  FooId id;
  EXPECT_FALSE(id.valid());
  EXPECT_FALSE(static_cast<bool>(id));
  EXPECT_EQ(id, FooId::invalid());
}

TEST(StrongId, ValueRoundTrip) {
  FooId id(7);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 7u);
  EXPECT_EQ(id.index(), 7u);
}

TEST(StrongId, Ordering) {
  EXPECT_LT(FooId(1), FooId(2));
  EXPECT_EQ(FooId(3), FooId(3));
  EXPECT_NE(FooId(3), FooId(4));
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<FooId, BarId>);
}

TEST(StrongId, Hashable) {
  std::unordered_set<FooId> set;
  set.insert(FooId(1));
  set.insert(FooId(1));
  set.insert(FooId(2));
  EXPECT_EQ(set.size(), 2u);
}

TEST(StrongId, Streaming) {
  std::ostringstream os;
  os << FooId(5) << ' ' << FooId();
  EXPECT_EQ(os.str(), "5 <invalid>");
}

class BitsetSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitsetSizes, SetTestResetAcrossWordBoundaries) {
  const std::size_t n = GetParam();
  DynamicBitset bits(n);
  EXPECT_EQ(bits.size(), n);
  EXPECT_EQ(bits.count(), 0u);
  for (std::size_t i = 0; i < n; i += 3) bits.set(i);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(bits.test(i), i % 3 == 0) << i;
  }
  EXPECT_EQ(bits.count(), (n + 2) / 3);
  for (std::size_t i = 0; i < n; i += 3) bits.reset(i);
  EXPECT_TRUE(bits.none());
}

TEST_P(BitsetSizes, SetAllRespectsSize) {
  const std::size_t n = GetParam();
  DynamicBitset bits(n);
  bits.set_all();
  EXPECT_EQ(bits.count(), n);
  DynamicBitset full(n, true);
  EXPECT_EQ(bits, full);
}

TEST_P(BitsetSizes, FindNextScansCorrectly) {
  const std::size_t n = GetParam();
  if (n < 2) GTEST_SKIP();
  DynamicBitset bits(n);
  bits.set(1);
  bits.set(n - 1);
  EXPECT_EQ(bits.find_first(), 1u);
  EXPECT_EQ(bits.find_next(2), n - 1);
  EXPECT_EQ(bits.find_next(n - 1), n - 1);
  EXPECT_EQ(bits.find_next(n), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitsetSizes,
                         ::testing::Values(1, 5, 63, 64, 65, 128, 200));

std::vector<std::size_t> set_bits(const DynamicBitset& bits) {
  std::vector<std::size_t> out;
  bits.for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

TEST(Bitset, BitwiseOps) {
  DynamicBitset a(70), b(70);
  a.set(3);
  a.set(64);
  b.set(64);
  b.set(69);

  DynamicBitset and_result = a;
  and_result &= b;
  EXPECT_EQ(set_bits(and_result), (std::vector<std::size_t>{64}));

  DynamicBitset or_result = a;
  or_result |= b;
  EXPECT_EQ(set_bits(or_result), (std::vector<std::size_t>{3, 64, 69}));

  DynamicBitset diff = a;
  diff.and_not(b);
  EXPECT_EQ(set_bits(diff), (std::vector<std::size_t>{3}));
}

TEST(Bitset, IntersectsAndSubset) {
  DynamicBitset a(100), b(100), c(100);
  a.set(10);
  a.set(90);
  b.set(90);
  c.set(10);
  c.set(90);
  c.set(50);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(b.intersects(DynamicBitset(100)));
  // x ⊆ y iff x \ y is empty.
  const auto subset = [](DynamicBitset x, const DynamicBitset& y) {
    return x.and_not(y).none();
  };
  EXPECT_TRUE(subset(a, c));
  EXPECT_FALSE(subset(c, a));
  EXPECT_TRUE(subset(b, a));
}

TEST(Bitset, ForEachVisitsAscending) {
  DynamicBitset bits(130);
  bits.set(0);
  bits.set(64);
  bits.set(129);
  std::vector<std::size_t> seen;
  bits.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 64, 129}));
}

TEST(Bitset, HashDiffersForDifferentContent) {
  DynamicBitset a(64), b(64);
  a.set(5);
  EXPECT_NE(a.hash(), b.hash());
  b.set(5);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Strings, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(join(std::vector<int>{1, 2, 3}, ", "), "1, 2, 3");
  EXPECT_EQ(join(std::vector<int>{}, ", "), "");
}

TEST(Strings, FormatDouble) {
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(2.5), "2.5");
  EXPECT_EQ(format_double(2.136, 2), "2.14");
}

TEST(Strings, ParseNumbersStrictly) {
  std::uint64_t u = 0;
  EXPECT_TRUE(parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  for (const char* bad : {"", "abc", "12abc", "-1", "+1", " 1", "1 ",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, u)) << bad;
  }
  EXPECT_EQ(u, 18446744073709551615ULL);  // unchanged on failure

  std::int64_t i = 0;
  EXPECT_TRUE(parse_i64("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "-", "--1", "+1", "4x", "9223372036854775808"}) {
    EXPECT_FALSE(parse_i64(bad, i)) << bad;
  }

  double d = 0;
  EXPECT_TRUE(parse_double("0.25", d));
  EXPECT_EQ(d, 0.25);
  EXPECT_TRUE(parse_double("-1.5e2", d));
  EXPECT_EQ(d, -150.0);
  for (const char* bad : {"", "x", "1.5s", "nan", "inf", "1e999", " 1"}) {
    EXPECT_FALSE(parse_double(bad, d)) << bad;
  }
}

TEST(Table, RendersAlignedRows) {
  Table t({"design", "cycles"});
  t.add_row({"gcd", "42"});
  t.add_row({"diffeq", "7"});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("design | cycles"), std::string::npos);
  EXPECT_NE(out.find("gcd    |     42"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(Table({}), Error);
}

TEST(Dot, ProducesWellFormedGraph) {
  DotWriter dot("g");
  dot.add_node("a", {{"shape", "box"}});
  dot.begin_cluster("c1", "cluster one");
  dot.add_node("b");
  dot.end_cluster();
  dot.add_edge("a", "b", {{"label", "x\"y"}});
  const std::string out = dot.finish();
  EXPECT_NE(out.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(out.find("subgraph \"cluster_c1\""), std::string::npos);
  EXPECT_NE(out.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_NE(out.find("x\\\"y"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST(Dot, FinishTwiceThrows) {
  DotWriter dot("g");
  (void)dot.finish();
  EXPECT_THROW(dot.finish(), Error);
}

TEST(Dot, UnbalancedClusterThrows) {
  DotWriter dot("g");
  EXPECT_THROW(dot.end_cluster(), Error);
}

TEST(Lru, EvictsLeastRecentlyUsedAndCounts) {
  LruCache<int, std::string> cache(2);
  cache.insert(1, "one");
  cache.insert(2, "two");
  EXPECT_EQ(cache.find(9), nullptr);     // absent key: a miss
  ASSERT_NE(cache.find(1), nullptr);     // touch 1 → 2 becomes LRU
  cache.insert(3, "three");  // evicts 2 (LRU), not the just-touched 1
  EXPECT_EQ(cache.find(2), nullptr);
  ASSERT_NE(cache.find(1), nullptr);
  ASSERT_NE(cache.find(3), nullptr);
  EXPECT_EQ(*cache.find(3), "three");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
}

TEST(Lru, ZeroCapacityIsUnbounded) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 100; ++i) cache.insert(i, i * i);
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
  ASSERT_NE(cache.find(0), nullptr);
  EXPECT_EQ(*cache.find(99), 99 * 99);
}

TEST(Lru, ShrinkingCapacityEvictsImmediately) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 8; ++i) cache.insert(i, i);
  cache.find(0);  // make 0 most-recent
  cache.set_capacity(2);
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_NE(cache.find(0), nullptr);
  ASSERT_NE(cache.find(7), nullptr);
  EXPECT_EQ(cache.find(3), nullptr);
}

/// Reference for json_number: the shortest %.{d}g (d = 1..16) that reads
/// back exactly, else %.17g.
std::string json_number_by_search(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  for (int digits = 1; digits < 17; ++digits) {
    char probe[32];
    std::snprintf(probe, sizeof(probe), "%.*g", digits, value);
    double parsed = 0;
    std::sscanf(probe, "%lf", &parsed);
    if (parsed == value) return probe;
  }
  return buffer;
}

TEST(JsonNumber, PrintsShortestRoundTripInGFormat) {
  EXPECT_EQ(json_number(0.0), "0");
  EXPECT_EQ(json_number(-0.0), "-0");
  EXPECT_EQ(json_number(100.0), "1e+02");
  EXPECT_EQ(json_number(1e5), "1e+05");
  EXPECT_EQ(json_number(1234567.0), "1234567");
  EXPECT_EQ(json_number(12345678901234567.0), "12345678901234568");
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(json_number(5e-324), "5e-324");
  EXPECT_EQ(json_number(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
  // A power of two whose nearest 16-digit rounding does not read back.
  EXPECT_EQ(json_number(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");
}

TEST(JsonNumber, MatchesTheDigitSearchOnASeededSample) {
  Rng rng(20260);
  std::vector<double> sample;
  for (int e = -1074; e <= 1023; ++e) sample.push_back(std::ldexp(1.0, e));
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t bits = rng.next();
    double value = 0;
    std::memcpy(&value, &bits, sizeof(value));
    sample.push_back(value);
    const double scaled = rng.uniform() * 1e6;
    sample.push_back(scaled);
    sample.push_back(std::round(scaled * 1000) / 1000);
  }
  for (const double value : sample) {
    ASSERT_EQ(json_number(value), json_number_by_search(value))
        << std::hexfloat << value;
  }
}

TEST(JsonParse, ParsesNestedDocumentPreservingOrder) {
  const JsonValue doc = json_parse(
      R"({"b":1.5,"a":[true,null,"x\n"],"nested":{"k":-2e3}})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.object.size(), 3u);
  EXPECT_EQ(doc.object[0].first, "b");  // insertion order, not sorted
  EXPECT_EQ(doc.object[1].first, "a");
  const JsonValue* b = doc.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->is_number());
  EXPECT_EQ(b->number, 1.5);
  const JsonValue* a = doc.find("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_TRUE(a->array[0].boolean);
  EXPECT_EQ(a->array[2].string, "x\n");
  const JsonValue* k = doc.find("nested")->find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->number, -2000.0);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsWriterOutput) {
  std::ostringstream os;
  {
    JsonWriter writer(os);
    writer.begin_object();
    writer.kv("schema_version", std::uint64_t{2});
    writer.key("values").begin_array();
    writer.value(1.25).value(false).value("q\"uote");
    writer.end_array();
    writer.end_object();
  }
  const JsonValue doc = json_parse(os.str());
  EXPECT_EQ(doc.find("schema_version")->number, 2.0);
  const JsonValue& values = *doc.find("values");
  ASSERT_EQ(values.array.size(), 3u);
  EXPECT_EQ(values.array[2].string, "q\"uote");
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(json_parse("{\"a\":}"), Error);
  EXPECT_THROW(json_parse("[1, 2"), Error);
  EXPECT_THROW(json_parse("{} trailing"), Error);
  EXPECT_THROW(json_parse(""), Error);
}

}  // namespace
}  // namespace camad
