// Heap allocations of a warm simulator run and of System copies, and
// the live heap of a Pareto search, counted by a replacement global
// operator new. The replacement applies to the whole executable, which
// is why this test is a binary of its own.
//
// The pin: a default run (no per-cycle records) allocates O(events), not
// O(cycles). gcd with a = 1 and b = 10^9 subtracts one per loop
// iteration, so it runs to max_cycles with two external events.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

#include "dcf/system.h"
#include "sim/simulator.h"
#include "synth/compile.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/optimizer.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
// Bytes allocated and not yet freed, and the most they reached since a
// test last reset the peak. Each block carries its size in a header of
// one max_align_t, so an unsized delete can subtract it.
std::atomic<std::size_t> g_live_bytes{0};
std::atomic<std::size_t> g_peak_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* block = std::malloc(kHeader + size);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  const std::size_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(*static_cast<std::size_t*>(block),
                         std::memory_order_relaxed);
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace camad::sim {
namespace {

constexpr std::uint64_t kCycles = 100000;
/// Bound on the live heap of ParetoHeap's search: six times what it
/// needs, a sixth of what a search holding whole generations needs.
constexpr std::size_t kMaxParetoLiveBytes = std::size_t{16} << 20;

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

// A Pareto generation holds each successor only while its job builds
// and measures it, then keeps what the frontier and the beam keep. So
// the live heap of a search is its in-flight jobs plus the frontier,
// beam and archive, whatever the generation's width. ewf's second
// generation builds 2,084 successor masters (about 37 KB of heap each)
// and measures 2,043 of them (about 12 KB per schedule): holding the
// whole generation until its reduction peaked at 100.8 MB, and holding
// only what stays peaks at about 2.5 MB.
TEST(ParetoHeap, PeakLiveHeapDoesNotGrowWithGenerationWidth) {
  const dcf::System serial = synth::compile_source(synth::ewf_source());
  const synth::ModuleLibrary lib = synth::ModuleLibrary::standard();
  synth::ParetoOptions options;
  options.measure.environments = 2;
  options.generations = 2;
  options.eval_threads = 1;
  options.verify_frontier = false;
  const std::size_t before = g_live_bytes.load();
  g_peak_live_bytes.store(before);
  const synth::ParetoResult result =
      synth::optimize_pareto(serial, lib, options);
  const std::size_t peak = g_peak_live_bytes.load() - before;
  EXPECT_EQ(result.generations_run, 2u);
  EXPECT_GT(result.candidates_evaluated, 2000u);
  EXPECT_LT(peak, kMaxParetoLiveBytes) << "peak live heap " << peak;
}

}  // namespace
}  // namespace camad::sim
