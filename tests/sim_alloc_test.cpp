// Heap allocations of a warm simulator run and of System copies, counted
// by a replacement global operator new. The replacement applies to the
// whole executable, which is why this test is a binary of its own.
//
// The pin: a default run (no per-cycle records) allocates O(events), not
// O(cycles). gcd with a = 1 and b = 10^9 subtracts one per loop
// iteration, so it runs to max_cycles with two external events.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <utility>

#include "dcf/system.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace camad::sim {
namespace {

constexpr std::uint64_t kCycles = 100000;

struct CountedRun {
  SimResult result;
  std::uint64_t allocations = 0;
};

/// Runs gcd(1, 10^9) for kCycles on a Simulator warmed by one identical
/// run, counting the allocations of the second run only.
CountedRun warm_gcd_run(const SimOptions& options) {
  const dcf::System sys = synth::compile_source(synth::gcd_source());
  Environment env;
  env.set_stream(sys.datapath().find_vertex("a"), {1});
  env.set_stream(sys.datapath().find_vertex("b"), {1000000000});
  Simulator simulator(sys);
  (void)simulator.run(env, options);
  env.rewind();
  CountedRun out;
  const std::uint64_t before = g_allocations.load();
  out.result = simulator.run(env, options);
  out.allocations = g_allocations.load() - before;
  return out;
}

TEST(SimAllocations, DefaultRunAllocatesPerEventNotPerCycle) {
  SimOptions options;
  options.max_cycles = kCycles;
  const CountedRun run = warm_gcd_run(options);
  EXPECT_EQ(run.result.cycles, kCycles);
  EXPECT_FALSE(run.result.terminated);
  EXPECT_TRUE(run.result.trace.cycles.empty());
  EXPECT_EQ(run.result.trace.event_count(), 2u);
  EXPECT_LE(run.allocations, 16u);
}

// The counter sees the engine's allocations: with per-cycle records on,
// every cycle allocates its record's vectors.
TEST(SimAllocations, RecordingRunAllocatesPerCycle) {
  SimOptions options;
  options.max_cycles = kCycles;
  options.record_cycles = true;
  const CountedRun run = warm_gcd_run(options);
  EXPECT_EQ(run.result.trace.cycles.size(), kCycles);
  EXPECT_GE(run.allocations, kCycles);
}

// A System holds its data path and control net as shared parts: an
// empty System allocates nothing, and a copy or a move only counts
// references.
TEST(SystemAllocations, EmptyCopiedAndMovedSystemsAllocateNothing) {
  const dcf::System sys = synth::compile_source(synth::gcd_source());
  const std::uint64_t before = g_allocations.load();
  const dcf::System empty;
  dcf::System copy = sys;
  const dcf::System moved = std::move(copy);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(&moved.datapath(), &sys.datapath());
  EXPECT_EQ(empty.datapath().vertex_count(), 0u);
}

}  // namespace
}  // namespace camad::sim
