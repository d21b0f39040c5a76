// Metamorphic oracle battery over generated systems, plus corpus replay.
//
// The sharded suites together run the full battery (round-trip, checker,
// engine differential, random transformation chains, constant-fold and
// save/load equivalence) on 500 consecutive seeds at both generator
// levels — the PR's quantified-equivalence bar — while every seed in
// tests/corpus/seeds.txt replays a historical counterexample that once
// exposed a real soundness bug.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dcf/check.h"
#include "gen/oracle.h"
#include "gen/sysgen.h"
#include "semantics/equivalence.h"
#include "transform/passes.h"
#include "util/error.h"

namespace camad::gen {
namespace {

std::string render(const std::vector<OracleOutcome>& failures) {
  std::string out;
  for (const OracleOutcome& f : failures) {
    out += f.to_string();
    out += '\n';
    if (!f.artifact.empty()) {
      out += f.artifact;
      out += '\n';
    }
  }
  return out;
}

// --- the quantified battery ---------------------------------------------------

constexpr std::uint64_t kShardSize = 50;

class OracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSweep, BatteryHoldsOnBothLevels) {
  const std::uint64_t first = 1 + GetParam() * kShardSize;
  const std::vector<OracleOutcome> failures = run_seed_range(first, kShardSize);
  EXPECT_TRUE(failures.empty()) << render(failures);
}

INSTANTIATE_TEST_SUITE_P(Shards, OracleSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

// --- determinism --------------------------------------------------------------

TEST(Oracle, RunSeedIsDeterministic) {
  const OracleOutcome a = run_seed(5, OracleLevel::kProgram);
  const OracleOutcome b = run_seed(5, OracleLevel::kProgram);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.stage, b.stage);
  EXPECT_EQ(a.detail, b.detail);
  const OracleOutcome c = run_seed(5, OracleLevel::kSystem);
  const OracleOutcome d = run_seed(5, OracleLevel::kSystem);
  EXPECT_EQ(c.ok, d.ok);
  EXPECT_EQ(c.detail, d.detail);
}

TEST(Oracle, OutcomeFormatting) {
  OracleOutcome ok;
  ok.seed = 12;
  ok.level = OracleLevel::kSystem;
  EXPECT_EQ(ok.to_string(), "seed 12 [system] ok");
  EXPECT_EQ(ok.corpus_line(), "system 12");

  OracleOutcome bad;
  bad.seed = 7;
  bad.level = OracleLevel::kProgram;
  bad.ok = false;
  bad.stage = "engines";
  bad.detail = "channel 'o0' event 0 differs";
  EXPECT_NE(bad.to_string().find("seed 7"), std::string::npos);
  EXPECT_NE(bad.to_string().find("engines"), std::string::npos);
  EXPECT_EQ(bad.corpus_line(),
            "program 7  # engines: channel 'o0' event 0 differs");
}

// --- verified pipelines on generated systems ----------------------------------

TEST(Oracle, VerifyEachPipelineHoldsOnGeneratedSystems) {
  // The battery's simulation bounds: non-exhausting streams.
  semantics::DifferentialOptions diff;
  diff.environments = kOracleEnvironments;
  diff.stream_length = kOracleStreamLength;
  diff.sim.max_cycles = kOracleMaxCycles;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const dcf::System in = random_system(seed);
    transform::PassPipeline pipeline = transform::PassPipeline::from_spec(
        "parallelize,merge-all,regshare,cleanup");
    const dcf::System out = pipeline.run(in);
    EXPECT_TRUE(dcf::check_properly_designed(out).ok());
    const semantics::EquivalenceVerdict verdict =
        semantics::differential_equivalence(in, out, diff);
    EXPECT_TRUE(verdict.holds) << verdict.why;
  }
}

// --- corpus -------------------------------------------------------------------

TEST(Corpus, ParsesLevelsSeedsAndNotes) {
  const std::vector<CorpusEntry> entries = parse_corpus(
      "# header comment\n"
      "\n"
      "program 19  # regshare must-assignment\n"
      "system 73\n");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].level, OracleLevel::kProgram);
  EXPECT_EQ(entries[0].seed, 19u);
  EXPECT_EQ(entries[0].note, "regshare must-assignment");
  EXPECT_EQ(entries[1].level, OracleLevel::kSystem);
  EXPECT_EQ(entries[1].seed, 73u);
  EXPECT_TRUE(entries[1].note.empty());
}

TEST(Corpus, RejectsMalformedLines) {
  EXPECT_THROW(parse_corpus("program not-a-seed\n"), Error);
  EXPECT_THROW(parse_corpus("gate 5\n"), Error);
  EXPECT_THROW(parse_corpus("program\n"), Error);
}

TEST(Corpus, LoadMissingFileThrows) {
  EXPECT_THROW(load_corpus_file("/nonexistent/camad/corpus.txt"), Error);
}

// Replays every registered counterexample. Each corpus seed once failed
// an oracle stage before the corresponding fix; a red entry here means a
// regression in a transformation, the checker, or the oracle itself.
TEST(Corpus, RegisteredSeedsStayGreen) {
  const std::vector<CorpusEntry> entries = load_corpus_file(CAMAD_CORPUS_FILE);
  ASSERT_FALSE(entries.empty());
  for (const CorpusEntry& entry : entries) {
    const OracleOutcome outcome = run_seed(entry.seed, entry.level);
    EXPECT_TRUE(outcome.ok)
        << outcome.to_string() << "\n(corpus note: " << entry.note << ")\n"
        << outcome.artifact;
  }
}

}  // namespace
}  // namespace camad::gen
