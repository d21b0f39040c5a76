// Differential sweep: the unguarded model checker must be bit-identical
// to the reference petri explorer on every verdict field and on the exact
// place-concurrency relation, across a large randomized slice of the
// generator's design space. Each shard covers kShardSize consecutive
// seeds; the instantiations together cover 1000 seeds, the PR's
// acceptance bar for the mc/petri equivalence. A second sweep pins the
// thread-count determinism guarantee on the same seeds' tail.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "dcf/system.h"
#include "gen/sysgen.h"
#include "mc/checker.h"
#include "petri/pnml.h"
#include "petri/reachability.h"

namespace camad {
namespace {

constexpr std::uint64_t kShardSize = 125;

class McDiffSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McDiffSweep, UnguardedMatchesExplorerBitForBit) {
  const std::uint64_t first = 1 + GetParam() * kShardSize;
  for (std::uint64_t seed = first; seed < first + kShardSize; ++seed) {
    const dcf::System sys = gen::random_system(seed);
    const petri::Net& net = sys.control().net();

    const petri::ReachabilityOptions ro;
    const petri::ConcurrencyRelation ref =
        petri::concurrent_places_bounded(net, ro);

    mc::McOptions opt;
    opt.max_states = ro.max_markings;
    opt.token_bound = ro.token_bound;
    const mc::McResult out = mc::model_check(net, opt);

    // Budget cutoffs need not align between the two engines (the mc
    // checks its budget only at level boundaries), so the bit-identity
    // contract applies to complete runs. Generated systems are tiny, so
    // an incomplete run here would itself be suspicious — count them.
    if (!ref.exploration.complete || !out.complete) {
      ASSERT_EQ(ref.exploration.complete, out.complete)
          << "seed " << seed << ": engines disagree about completeness";
      continue;
    }
    ASSERT_EQ(out.safe, ref.exploration.safe) << "seed " << seed;
    ASSERT_EQ(out.bounded, ref.exploration.bounded) << "seed " << seed;
    ASSERT_EQ(out.deadlock, ref.exploration.deadlock) << "seed " << seed;
    ASSERT_EQ(out.can_terminate, ref.exploration.can_terminate)
        << "seed " << seed;
    ASSERT_EQ(out.marking_count, ref.exploration.marking_count)
        << "seed " << seed;
    ASSERT_EQ(out.state_count, out.marking_count)
        << "seed " << seed << ": bare nets must not track commitment cells";
    ASSERT_EQ(out.concurrency, ref.concurrent) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, McDiffSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

class McDiffDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(McDiffDeterminism, VerdictsStableAcrossThreadCounts) {
  const std::uint64_t first = 1 + GetParam() * 25;
  for (std::uint64_t seed = first; seed < first + 25; ++seed) {
    const dcf::System sys = gen::random_system(seed);
    mc::McOptions opt;
    opt.threads = 1;
    const mc::McResult one = mc::model_check(sys, opt);
    for (const std::size_t threads : {2UL, 8UL}) {
      opt.threads = threads;
      ASSERT_TRUE(mc::same_verdicts(one, mc::model_check(sys, opt)))
          << "seed " << seed << " diverges at " << threads << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, McDiffDeterminism,
                         ::testing::Range<std::uint64_t>(0, 4));

// --- external corpus differential -------------------------------------------
//
// The generator sweeps above are still self-play: both engines explore
// nets this codebase built. The designs/pnml corpus brings in nets we
// did not construct (hand-transcribed standard model families, including
// weighted arcs the generator never emits); the same bit-identity and
// thread- and shard-count invariance contracts must hold there too.

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir(CAMAD_PNML_DIR);
  if (!std::filesystem::exists(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".pnml") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

petri::Net load_corpus_net(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return petri::from_pnml(os.str()).net;
}

TEST(McCorpusDiff, ImportedNetsMatchExplorerBitForBit) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 6u) << "corpus missing from " << CAMAD_PNML_DIR;
  for (const auto& path : files) {
    const std::string label = path.stem().string();
    const petri::Net net = load_corpus_net(path);

    petri::ReachabilityOptions ro;
    const petri::ConcurrencyRelation ref =
        petri::concurrent_places_bounded(net, ro);

    mc::McOptions opt;
    opt.max_states = ro.max_markings;
    opt.token_bound = ro.token_bound;
    const mc::McResult out = mc::model_check(net, opt);

    ASSERT_TRUE(ref.exploration.complete) << label;
    ASSERT_TRUE(out.complete) << label;
    ASSERT_EQ(out.safe, ref.exploration.safe) << label;
    ASSERT_EQ(out.bounded, ref.exploration.bounded) << label;
    ASSERT_EQ(out.deadlock, ref.exploration.deadlock) << label;
    ASSERT_EQ(out.can_terminate, ref.exploration.can_terminate) << label;
    ASSERT_EQ(out.marking_count, ref.exploration.marking_count) << label;
    ASSERT_EQ(out.state_count, out.marking_count) << label;
    ASSERT_EQ(out.concurrency, ref.concurrent) << label;
  }
}

TEST(McCorpusDiff, ImportedNetVerdictsStableAcrossThreadCounts) {
  for (const auto& path : corpus_files()) {
    const std::string label = path.stem().string();
    const petri::Net net = load_corpus_net(path);
    mc::McOptions opt;
    opt.threads = 1;
    const mc::McResult one = mc::model_check(net, opt);
    for (const std::size_t threads : {2UL, 8UL}) {
      opt.threads = threads;
      ASSERT_TRUE(mc::same_verdicts(one, mc::model_check(net, opt)))
          << label << " diverges at " << threads << " threads";
    }
    // One shard: every outbox fills and all workers share one lock. 256
    // shards: nearly every outbox is handed over at the end of a chunk.
    opt.threads = 3;
    for (const std::size_t shards : {1UL, 256UL}) {
      opt.shards = shards;
      ASSERT_TRUE(mc::same_verdicts(one, mc::model_check(net, opt)))
          << label << " diverges at 3 threads, " << shards << " shard(s)";
    }
  }
}

}  // namespace
}  // namespace camad
