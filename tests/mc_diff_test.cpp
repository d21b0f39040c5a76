// Differential sweep: the unguarded model checker must be bit-identical
// to the reference petri explorer on every verdict field and on the exact
// place-concurrency relation, across a large randomized slice of the
// generator's design space. Each shard covers kShardSize consecutive
// seeds; the instantiations together cover 1000 seeds, the PR's
// acceptance bar for the mc/petri equivalence. A second sweep pins the
// thread-count determinism guarantee on the same seeds' tail. The
// McPins tests hash every compared field of the results on generated
// systems, the PNML corpus, the bench nets and the BDL designs.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string_view>
#include <vector>

#include "dcf/system.h"
#include "gen/lift.h"
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
  const std::filesystem::path dir =
      std::filesystem::path(CAMAD_DESIGNS_DIR) / "pnml";
  if (!std::filesystem::exists(dir)) return files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".pnml") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

petri::Net load_corpus_net(const std::filesystem::path& path) {
  return petri::from_pnml(read_text(path)).net;
}

TEST(McCorpusDiff, ImportedNetsMatchExplorerBitForBit) {
  const auto files = corpus_files();
  ASSERT_GE(files.size(), 6u)
      << "corpus missing from " << CAMAD_DESIGNS_DIR << "/pnml";
  // The single-threaded reference explorer is most of this test's time,
  // so each net's reference runs on a thread of its own while the model
  // checker runs here: the test takes about as long as its slowest net.
  const petri::ReachabilityOptions ro;
  std::vector<std::future<petri::ConcurrencyRelation>> refs;
  for (const auto& path : files) {
    refs.push_back(std::async(std::launch::async, [path, ro] {
      return petri::concurrent_places_bounded(load_corpus_net(path), ro);
    }));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string label = files[i].stem().string();
    const petri::Net net = load_corpus_net(files[i]);

    mc::McOptions opt;
    opt.max_states = ro.max_markings;
    opt.token_bound = ro.token_bound;
    const mc::McResult out = mc::model_check(net, opt);
    const petri::ConcurrencyRelation ref = refs[i].get();

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

// --- pinned results ----------------------------------------------------------
//
// Every field mc::same_verdicts compares, hashed: verdicts, counts, depth,
// witnesses and their traces, the concurrency relation, dead transitions,
// and rule 3's conflicts with their markings and traces. The thread sweeps
// above only show that a result does not depend on the schedule; these
// pins show that it does not change when the store or the expansion is
// rewritten. Values were recorded before the record-array store and the
// bitset expansion; each input is checked at 1 and 3 threads.

void put_trace(std::ostream& os,
               const std::vector<petri::TransitionId>& trace) {
  os << '[';
  for (const petri::TransitionId t : trace) os << t.value() << ',';
  os << ']';
}

void put_marking(std::ostream& os, const std::optional<petri::Marking>& m) {
  if (!m) {
    os << '-';
    return;
  }
  os << '(';
  for (std::size_t p = 0; p < m->place_count(); ++p) {
    os << m->tokens(petri::PlaceId(
              static_cast<petri::PlaceId::underlying_type>(p)))
       << ',';
  }
  os << ')';
}

std::string canonical_text(const mc::McResult& r) {
  std::ostringstream os;
  os << "complete=" << r.complete << " cutoff=" << r.cutoff_reason
     << " safe=" << r.safe << " bounded=" << r.bounded
     << " deadlock=" << r.deadlock << " terminate=" << r.can_terminate
     << " states=" << r.state_count << " markings=" << r.marking_count
     << " depth=" << r.depth << " cells=" << r.tracked_cells << "\nunsafe=";
  put_marking(os, r.unsafe_witness);
  put_trace(os, r.unsafe_trace);
  os << "\ndeadlock=";
  put_marking(os, r.deadlock_witness);
  put_trace(os, r.deadlock_trace);
  os << "\nconcurrency=";
  for (const bool bit : r.concurrency) os << (bit ? '1' : '0');
  os << "\ndead=";
  put_trace(os, r.dead_transitions);
  for (const mc::McConflict& c : r.conflicts) {
    os << "\nconflict " << c.place.value() << ' ' << c.a.value() << ' '
       << c.b.value() << ' ' << c.unguarded << ' ';
    put_marking(os, c.marking);
    put_trace(os, c.trace);
  }
  os << "\ntruncated=" << r.conflicts_truncated << '\n';
  return os.str();
}

std::uint64_t fnv1a(std::string_view text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

/// Pin of one input's result at `threads`, over `model_check(system)`
/// with the given state cap.
std::uint64_t pin_of(const dcf::System& system, std::size_t threads,
                     std::size_t max_states) {
  mc::McOptions opt;
  opt.threads = threads;
  opt.max_states = max_states;
  return fnv1a(canonical_text(mc::model_check(system, opt)), kFnvBasis);
}

struct FilePin {
  const char* file;  ///< path under designs/
  std::uint64_t pin;
};

/// Checks each file's pin at 1 and 3 threads; PNML nets are lifted into
/// guard-aware systems, so rule 3 reports every reachable conflict.
void expect_file_pins(const std::vector<FilePin>& pins,
                      std::size_t max_states) {
  for (const FilePin& f : pins) {
    const std::filesystem::path path =
        std::filesystem::path(CAMAD_DESIGNS_DIR) / f.file;
    const dcf::System system =
        gen::parse_design_text(read_text(path), path.stem().string());
    for (const std::size_t threads : {1UL, 3UL}) {
      EXPECT_EQ(pin_of(system, threads, max_states), f.pin)
          << f.file << " at " << threads << " thread(s)";
    }
  }
}

constexpr std::size_t kPinnedStateCap = 30000;

TEST(McPins, GeneratedSystems) {
  // One pin per 50 seeds, over the seeds' texts in order.
  constexpr std::uint64_t kBlock[4] = {
      1427952420578277646ULL, 12769737756260332281ULL,
      4261265381511833587ULL, 7973808791089148832ULL};
  for (const std::size_t threads : {1UL, 3UL}) {
    for (std::uint64_t block = 0; block < 4; ++block) {
      std::uint64_t h = kFnvBasis;
      for (std::uint64_t seed = 1 + block * 50; seed <= 50 + block * 50;
           ++seed) {
        mc::McOptions opt;
        opt.threads = threads;
        const mc::McResult r = mc::model_check(gen::random_system(seed), opt);
        h = fnv1a(canonical_text(r), h);
      }
      EXPECT_EQ(h, kBlock[block])
          << "seeds " << 1 + block * 50 << "-" << 50 + block * 50 << " at "
          << threads << " thread(s)";
    }
  }
}

TEST(McPins, CorpusNets) {
  expect_file_pins(
      {{"pnml/Assembly-PT-04.pnml", 1968206781107954739ULL},
       {"pnml/CircularTrains-PT-08.pnml", 17639316206781443036ULL},
       {"pnml/Philosophers-LH-PT-04.pnml", 8952608655815144401ULL},
       {"pnml/Philosophers-PT-04.pnml", 16727265194251710018ULL},
       {"pnml/Philosophers-PT-10.pnml", 12093889379028792980ULL},
       {"pnml/Philosophers-PT-14.pnml", 6993180027304314600ULL},
       {"pnml/Referendum-PT-04.pnml", 10016500891688419364ULL},
       {"pnml/Referendum-PT-10.pnml", 15470850245255427275ULL}},
      kPinnedStateCap);
}

TEST(McPins, BenchNets) {
  expect_file_pins({{"bench/fork8x3.pnml", 8249048158915997140ULL},
                    {"bench/fork8x4.pnml", 13832204464304077917ULL},
                    {"bench/fork9x4.pnml", 9595557072264607050ULL},
                    {"bench/nest2x4.pnml", 2122105774317144312ULL}},
                   kPinnedStateCap);
}

TEST(McPins, Designs) {
  expect_file_pins({{"diffeq.bdl", 16172973659682111948ULL},
                    {"ewf.bdl", 8669464624901723997ULL},
                    {"fir8.bdl", 12268872435467905536ULL},
                    {"gcd.bdl", 8184680479418961634ULL},
                    {"parlab.bdl", 11799317389418888208ULL},
                    {"sumsq.bdl", 15610943269141082111ULL},
                    {"traffic.bdl", 3434871414699766192ULL}},
                   mc::McOptions{}.max_states);
}

}  // namespace
}  // namespace camad
