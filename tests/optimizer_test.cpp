// Pareto design-space explorer tests: canonical design hash (renumbering
// invariance, structure sensitivity, merge-order canonicality, 500-seed
// collision sweep, golden values on the bench corpus and generated
// programs), ParetoFrontier dominance/hypervolume semantics,
// search quality (the frontier weakly dominates the greedy optimizer on
// every named design), per-point Def 4.1 verification, thread-count
// invariance of the frontier JSON over generated systems, and the
// provenance recording the transform pipelines grew alongside.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "dcf/builder.h"
#include "dcf/system.h"
#include "fixtures.h"
#include "gen/sysgen.h"
#include "semantics/analysis.h"
#include "semantics/equivalence.h"
#include "synth/compile.h"
#include "synth/design_hash.h"
#include "synth/designs.h"
#include "synth/library.h"
#include "synth/optimizer.h"
#include "transform/merge.h"
#include "transform/passes.h"
#include "workloads.h"

namespace camad::synth {
namespace {

// --- canonical design hash ---------------------------------------------------

// The two_lane fixture rebuilt with every declaration order reversed:
// identical structure and external names, but different vertex ids,
// place ids, and internal names. The hash must not see the difference.
dcf::System make_two_lane_renumbered() {
  dcf::SystemBuilder b;
  const auto mul = b.unit("product", dcf::OpCode::kMul);
  const auto add = b.unit("sum", dcf::OpCode::kAdd);
  const auto r4 = b.reg("d");
  const auto r3 = b.reg("c");
  const auto r2 = b.reg("b");
  const auto r1 = b.reg("a");
  const auto o2 = b.output("o2");
  const auto o1 = b.output("o1");
  const auto y = b.input("y");
  const auto x = b.input("x");

  const auto s4 = b.state("U4");
  const auto s3 = b.state("U3");
  const auto s2 = b.state("U2");
  const auto s1 = b.state("U1");
  const auto s0 = b.state("U0", /*initial=*/true);

  b.connect(x, r1, 0, {s0});
  b.connect(y, r2, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r3), {s1});
  b.arc(b.out(r2), b.in(mul, 0), {s2});
  b.arc(b.out(r2), b.in(mul, 1), {s2});
  b.arc(b.out(mul), b.in(r4), {s2});
  b.connect(r3, o1, 0, {s3});
  b.connect(r4, o2, 0, {s4});

  b.chain(s0, s1, "V0");
  b.chain(s1, s2, "V1");
  b.chain(s2, s3, "V2");
  b.chain(s3, s4, "V3");
  const auto t_end = b.transition("Vend");
  b.flow(s4, t_end);
  return b.build("two_lane_renumbered");
}

TEST(DesignHash, Deterministic) {
  EXPECT_EQ(design_hash(test::make_gcd()), design_hash(test::make_gcd()));
}

TEST(DesignHash, InvariantUnderRenumbering) {
  EXPECT_EQ(design_hash(test::make_two_lane()),
            design_hash(make_two_lane_renumbered()));
}

TEST(DesignHash, SensitiveToStructure) {
  const std::uint64_t two_lane = design_hash(test::make_two_lane());
  EXPECT_NE(two_lane, design_hash(test::make_gcd()));
  EXPECT_NE(two_lane, design_hash(test::make_doubler()));

  // Same shape, one operation changed: kMul -> kSub.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto y = b.input("y");
  const auto o1 = b.output("o1");
  const auto o2 = b.output("o2");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto r3 = b.reg("r3");
  const auto r4 = b.reg("r4");
  const auto add = b.unit("add", dcf::OpCode::kAdd);
  const auto mul = b.unit("mul", dcf::OpCode::kSub);
  const auto s0 = b.state("S0", true);
  const auto s1 = b.state("S1");
  const auto s2 = b.state("S2");
  const auto s3 = b.state("S3");
  const auto s4 = b.state("S4");
  b.connect(x, r1, 0, {s0});
  b.connect(y, r2, 0, {s0});
  b.arc(b.out(r1), b.in(add, 0), {s1});
  b.arc(b.out(r1), b.in(add, 1), {s1});
  b.arc(b.out(add), b.in(r3), {s1});
  b.arc(b.out(r2), b.in(mul, 0), {s2});
  b.arc(b.out(r2), b.in(mul, 1), {s2});
  b.arc(b.out(mul), b.in(r4), {s2});
  b.connect(r3, o1, 0, {s3});
  b.connect(r4, o2, 0, {s4});
  b.chain(s0, s1, "T0");
  b.chain(s1, s2, "T1");
  b.chain(s2, s3, "T2");
  b.chain(s3, s4, "T3");
  b.flow(s4, b.transition("Tend"));
  EXPECT_NE(two_lane, design_hash(b.build("two_lane_sub")));
}

TEST(DesignHash, MergeDirectionCanonical) {
  // Merging u into v and v into u produce structurally identical
  // systems that differ only in which internal name survived — the
  // dedup that makes the beam search not explore both.
  const dcf::System gcd = test::make_gcd();
  const auto pairs = transform::mergeable_pairs(gcd);
  ASSERT_FALSE(pairs.empty());
  const auto [vi, vj] = pairs.front();
  EXPECT_EQ(design_hash(transform::merge_vertices(gcd, vi, vj)),
            design_hash(transform::merge_vertices(gcd, vj, vi)));
}

// 500-seed generated sweep, sharded: hash-equal systems must be
// behaviorally equivalent under the Def 4.1 differential oracle, and the
// collision rate over the corpus is reported as a test property.
constexpr std::uint64_t kHashShardSize = 125;

class DesignHashSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesignHashSweep, HashEqualImpliesEquivalent) {
  const std::uint64_t first = 1 + GetParam() * kHashShardSize;
  std::map<std::uint64_t, dcf::System> seen;
  std::size_t collisions = 0;
  for (std::uint64_t seed = first; seed < first + kHashShardSize; ++seed) {
    const dcf::System sys = gen::random_system(seed);
    const std::uint64_t h = design_hash(sys);
    const auto [it, inserted] = seen.emplace(h, sys);
    if (inserted) continue;
    ++collisions;
    const semantics::EquivalenceVerdict verdict =
        semantics::differential_equivalence(it->second, sys);
    EXPECT_TRUE(verdict.holds)
        << "seed " << seed << " collides with an inequivalent system: "
        << verdict.why;
  }
  RecordProperty("hash_collisions", static_cast<int>(collisions));
  RecordProperty("corpus_size", static_cast<int>(kHashShardSize));
}

INSTANTIATE_TEST_SUITE_P(Shards, DesignHashSweep,
                         ::testing::Range<std::uint64_t>(0, 4));

// Golden design_hash values: (serial, merge_all, derive_schedule) per
// bench design, then (serial, derive_schedule) for 100 compiled random
// programs (seeds 1..100). The hash is the camadd design id and the
// frontier JSON's `hash` field, so a rewrite of the kernel must keep
// every value; these were recorded with the per-node-vector
// implementation the CSR one replaced. The scheduled forms also pin
// parallelize's output, rule-1 ordering included.
// guarded_branch's merge_all form is not pinned (merged = 0): merge_all
// on its ~1000 vertices takes over two minutes under the sanitizer
// build, past the per-test timeout.
struct HashPin {
  const char* design;
  std::uint64_t serial;
  std::uint64_t merged;
  std::uint64_t scheduled;
};

constexpr HashPin kCorpusHashPins[] = {
    {"gcd", 0xb24de333c00b6ac7ULL,
     0x35bca363bce009a8ULL, 0xb24de333c00b6ac7ULL},
    {"diffeq", 0x702b82859ef19a00ULL,
     0x5c802440bc082e29ULL, 0x8c4b8a2b13c8002eULL},
    {"ewf", 0xb7d974c876359823ULL,
     0xb6601ba8ffe078faULL, 0x464e5d5efdfa63c7ULL},
    {"fir8", 0x449d6fa2108b3a82ULL,
     0x23ff99e8a652792fULL, 0x82be293fce901e3aULL},
    {"traffic", 0xe44c0203cc2da0adULL,
     0x8ad442b181635638ULL, 0x9c83259b7f2348f3ULL},
    {"parlab", 0xa0f9670a83790572ULL,
     0xe1bad00ff302ef64ULL, 0xa0f9670a83790572ULL},
    {"guarded_branch", 0x81e15ab64b17eb7dULL, 0, 0x45041b9d2aa3e584ULL},
};

struct ProgramHashPin {
  std::uint64_t serial;
  std::uint64_t scheduled;
};

constexpr ProgramHashPin kRandomProgramHashPins[] = {
    {0xc16472f1c6911ac5ULL, 0xbc8714559cbc00e6ULL},
    {0xb6866c84687255bcULL, 0x64c8304ac5842970ULL},
    {0x054d30202ff867c9ULL, 0xc9b04899ee8c50aeULL},
    {0x7cb822d1c7b4ad7fULL, 0xc9834227db3db419ULL},
    {0x85f1e1c1801f0daeULL, 0x59b0cdb6c8732806ULL},
    {0x8b9a0b85ce72717dULL, 0x0aa0a4804aaaca2bULL},
    {0xfc560438550bc36cULL, 0x45b349435dfd97bbULL},
    {0xef6267992da174a8ULL, 0xd6638fa94c449eb9ULL},
    {0xed8081313297ec3aULL, 0x00416a0f3946eed2ULL},
    {0xac97e2aafc0f1cdcULL, 0xe893cef5b3ffb9f0ULL},
    {0x6eae05c51a0d23eeULL, 0x8861b0c28f31a335ULL},
    {0xd12bc233a43aa3b3ULL, 0xd5b0bb938e39557aULL},
    {0x0cf1090c928fc1fcULL, 0x14d1f70867e6c97fULL},
    {0x75661dd08f7ed82cULL, 0xc3fa7de302fecd39ULL},
    {0x034d820ed7fabb83ULL, 0xb675f87aa2a73060ULL},
    {0xc65993e9bb8ef0ccULL, 0x64a88f33465990f2ULL},
    {0x932d3804817784ffULL, 0x97ef21a53b8af015ULL},
    {0x5e3d2564fcf76f97ULL, 0x8365b3a7703542a0ULL},
    {0x095baa229c862b18ULL, 0x199363381f434b34ULL},
    {0xd19b06bc0122cf1dULL, 0x32ab6d7342338444ULL},
    {0x54bb9f3331235066ULL, 0x430437b5093c54f9ULL},
    {0xc1ba4aec868e16dcULL, 0x3ab8eec27b2ccb2fULL},
    {0x5e77235e865767fbULL, 0x85e6df2c5640c1a7ULL},
    {0x0f962aa7b2337924ULL, 0x5a9e1f2a66d2fe6aULL},
    {0x04257b1f6b8299ccULL, 0x465e66733c6d3e9bULL},
    {0x8ff9d6c0a944c20fULL, 0x2168e38be8458da4ULL},
    {0x9a4a5b6af93b0bd0ULL, 0x3ea6c1af9c854fe1ULL},
    {0x92d603de811932a0ULL, 0xfdb7b2666f50913cULL},
    {0xcc3b1c4c0d9413a4ULL, 0xfa1f8036071132d1ULL},
    {0xe2c098c0560e5285ULL, 0xa31c8492ae8beb3cULL},
    {0xdeee1e7574830d27ULL, 0xfda7f5488eaa48e7ULL},
    {0x5b43ff7adfd6230dULL, 0xdaeb745a3452005fULL},
    {0x2fb654294f8cbd39ULL, 0x1c401f9c3e59b811ULL},
    {0x6607a5879b285740ULL, 0x1e65d0099e3131e5ULL},
    {0x76d08d9fd1be606cULL, 0xfc14f5e022dd164aULL},
    {0xea2648a31bf32dbcULL, 0x69e84f42cd48e878ULL},
    {0xae9713c768cdb291ULL, 0xff460b35d2d3e321ULL},
    {0x03554f824d118e0eULL, 0xf8c5b13d9617d3ffULL},
    {0xbe165bf90c0ef808ULL, 0x7c2b024aef992ebaULL},
    {0x5259276c5177aaf7ULL, 0x988e35ad90d8c9c0ULL},
    {0xc43b4e216d61a2d0ULL, 0x927e90a752c72d52ULL},
    {0x53a1d3110df6fbdbULL, 0xa720d52f5a5422a6ULL},
    {0x693ea3c024261e49ULL, 0xf6e6c88eb77c50dcULL},
    {0x2a047e667ab07979ULL, 0x784bdd05c545f401ULL},
    {0xad0a2b098ce82e15ULL, 0xf305dadcabfef1b2ULL},
    {0x79ff17786ea141e8ULL, 0xd83b9c50a68bf4d8ULL},
    {0x44c7feab7fa426beULL, 0x6a5cec9f62dbf627ULL},
    {0x269f0b4de9cfb0aaULL, 0xfe7716cefc11e812ULL},
    {0xd621f6b91be60b99ULL, 0x3109fa14a4520babULL},
    {0xa0394408a29eb2eaULL, 0x622b13a7fc872c52ULL},
    {0x83b34942ba737393ULL, 0x5c341ce7dd77a196ULL},
    {0xc88827b8aa4268ecULL, 0xc94d68733d05d87dULL},
    {0x261de8bdceebc156ULL, 0x5f255dc4319ee060ULL},
    {0xe0dcea4ddfec7b78ULL, 0xa1096d3a8c03b231ULL},
    {0x46d3212c9442bf49ULL, 0x7936ff35fb11c036ULL},
    {0xdf9ccd84d90cb7d8ULL, 0xa18919fd489f39beULL},
    {0x32ec2af392f59273ULL, 0xf8a9f76d256276bdULL},
    {0x42d7facb9074ee95ULL, 0xae5c7f8c761eaa8bULL},
    {0x51effcfbf66db300ULL, 0xdc338909a6f9fa60ULL},
    {0x8314f2b78e0ba830ULL, 0xb7726fa545e6e3fbULL},
    {0x2a9f2b6b27be9194ULL, 0xd1b978c839948b8bULL},
    {0xb1288e722b37766aULL, 0x27ecc49c865bd161ULL},
    {0xa02ff250b393d8a3ULL, 0x58045e96ac6943bdULL},
    {0x9ce671b4eb322205ULL, 0x8e90ace9ca77ccffULL},
    {0x7e65a0727bd73ab6ULL, 0x94ff8c9463d24ac4ULL},
    {0x3f777796ce04726eULL, 0xc6cb8c619eb58213ULL},
    {0x1c131f8c23f4a7f8ULL, 0x63079e329deb94bcULL},
    {0x1fc14511a538a4f7ULL, 0x06cb0aeace455dacULL},
    {0x2a67a3195d464594ULL, 0xad8d6f30fdfca3cdULL},
    {0x0fddbfec26a7c5f9ULL, 0x1640071a3864295bULL},
    {0x6f66a3bd86293d9aULL, 0x37f48b55064f6467ULL},
    {0x5677660a4bdb7df6ULL, 0x24efb871e929c264ULL},
    {0x43ed65d7e0f6657cULL, 0x2e6980ffd6f719bcULL},
    {0x5c6a64cf93947ba7ULL, 0x623799d957a9b042ULL},
    {0xaec501c089aee547ULL, 0x119b53b8213b3feeULL},
    {0x9789a84402c5474aULL, 0xa3fe764cf179222fULL},
    {0xafe0ad8e00f2043fULL, 0xefb02aeb15206325ULL},
    {0x546b20082563b43dULL, 0x6726554955da959aULL},
    {0x7f90f7492c3c58f1ULL, 0x63e6a4de1e8fe8d2ULL},
    {0xd816df7f98779b06ULL, 0x44bb4556159fbd19ULL},
    {0xd21012f8428e1e98ULL, 0xcc711d2071a67e84ULL},
    {0xe785eac2dc9a5960ULL, 0x24bc8e316eb7d0e2ULL},
    {0x8713d937d34674e1ULL, 0xf297df1eac8cfcdfULL},
    {0x74044d8a62da5076ULL, 0x7c3728dd8238455eULL},
    {0x887b5de59e031afdULL, 0x1ba7b6fcee1e970dULL},
    {0xa0487d202a363e85ULL, 0x26aa23f9f77bb0beULL},
    {0xb1ce21374e249845ULL, 0xd08b8d06c92935ffULL},
    {0xd72aaafb51955048ULL, 0xf4e1fbe727b799a5ULL},
    {0xad829cbd663bd9e7ULL, 0x8deac6f72ee80a7aULL},
    {0x4f9567c5d691f6b6ULL, 0x4c622d406f43165fULL},
    {0x3238ee58b37f4863ULL, 0xa244a15e22099b9aULL},
    {0x9a41a424d4d405cfULL, 0xd537f87a1e4cf57cULL},
    {0x7765d1b1f9c34ae1ULL, 0x276462e0ba58bbc5ULL},
    {0xb5f13060a6c5c7ccULL, 0x2b65ad663ef4e59fULL},
    {0xa94430e547bacd66ULL, 0x4babbd162ea4f3b5ULL},
    {0xb7dc58f562b41e61ULL, 0xa05454da2621c8c2ULL},
    {0xf394f0bbc13b3d5aULL, 0xb1ae862eb8bd7298ULL},
    {0x3107ca74d63e3216ULL, 0x85a58e3fd6995d5cULL},
    {0x14e348902217529eULL, 0xd6b2e25ca4771c68ULL},
    {0x03a08c682ae679fdULL, 0x37a9da8551747cb1ULL},
};

TEST(DesignHashPins, BenchDesignsAndTheirMergedAndScheduledForms) {
  const std::vector<bench::BenchDesign> designs = bench::bench_designs();
  ASSERT_EQ(designs.size(), std::size(kCorpusHashPins));
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const bench::BenchDesign& d = designs[i];
    const HashPin& pin = kCorpusHashPins[i];
    SCOPED_TRACE(d.name);
    EXPECT_EQ(d.name, pin.design);
    EXPECT_EQ(design_hash(d.system), pin.serial);
    if (pin.merged != 0) {
      EXPECT_EQ(design_hash(transform::merge_all(d.system)), pin.merged);
    }
    EXPECT_EQ(design_hash(derive_schedule(d.system)), pin.scheduled);
  }
}

TEST(DesignHashPins, RandomProgramsAndTheirScheduledForms) {
  for (std::uint64_t seed = 1; seed <= std::size(kRandomProgramHashPins);
       ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ProgramHashPin& pin = kRandomProgramHashPins[seed - 1];
    const dcf::System sys = compile_source(bench::random_program(seed));
    EXPECT_EQ(design_hash(sys), pin.serial);
    EXPECT_EQ(design_hash(derive_schedule(sys)), pin.scheduled);
  }
}

// --- ParetoFrontier ----------------------------------------------------------

FrontierPoint point(double area, double time_ns) {
  FrontierPoint p;
  p.metrics.area = area;
  p.metrics.time_ns = time_ns;
  return p;
}

TEST(ParetoFrontier, DominanceInsertion) {
  ParetoFrontier f;
  EXPECT_TRUE(f.insert(point(2, 2)));
  EXPECT_FALSE(f.insert(point(3, 3)));  // dominated
  EXPECT_FALSE(f.insert(point(2, 2)));  // duplicate
  EXPECT_TRUE(f.insert(point(1, 3)));   // trades area for time
  EXPECT_TRUE(f.insert(point(3, 1)));   // trades time for area
  EXPECT_EQ(f.size(), 3u);
  EXPECT_TRUE(f.insert(point(1, 1)));   // dominates everything
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.points().front().metrics.area, 1);
}

TEST(ParetoFrontier, CanonicalOrderIsAreaAscending) {
  ParetoFrontier f;
  f.insert(point(3, 1));
  f.insert(point(1, 3));
  f.insert(point(2, 2));
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.points()[0].metrics.area, 1);
  EXPECT_EQ(f.points()[1].metrics.area, 2);
  EXPECT_EQ(f.points()[2].metrics.area, 3);
}

TEST(ParetoFrontier, Dominates) {
  ParetoFrontier f;
  f.insert(point(1, 3));
  f.insert(point(3, 1));
  EXPECT_TRUE(f.dominates(1, 3));    // weak: equality counts
  EXPECT_TRUE(f.dominates(2, 3.5));
  EXPECT_FALSE(f.dominates(2, 2));
  EXPECT_FALSE(f.dominates(0.5, 10));
}

TEST(ParetoFrontier, HypervolumeStaircase) {
  ParetoFrontier f;
  f.insert(point(1, 3));
  f.insert(point(2, 2));
  f.insert(point(3, 1));
  // (4-1)(4-3) + (4-2)(3-2) + (4-3)(2-1) = 3 + 2 + 1.
  EXPECT_DOUBLE_EQ(f.hypervolume(4, 4), 6.0);
  // Points at or beyond the reference contribute nothing.
  EXPECT_DOUBLE_EQ(f.hypervolume(1, 1), 0.0);
}

// --- the search --------------------------------------------------------------

TEST(OptimizePareto, FrontierOnFixtureIsVerifiedAndNonEmpty) {
  const dcf::System serial = test::make_two_lane();
  const ModuleLibrary lib = ModuleLibrary::standard();
  ParetoOptions options;
  options.measure.environments = 2;
  const ParetoResult result = optimize_pareto(serial, lib, options);
  ASSERT_FALSE(result.frontier.empty());
  EXPECT_EQ(result.verified_points, result.frontier.size());
  EXPECT_GT(result.hypervolume, 0.0);
  for (const FrontierPoint& p : result.frontier) {
    EXPECT_EQ(p.design_hash, design_hash(p.master));
  }
}

TEST(OptimizePareto, FrontierJsonCarriesProvenanceAndHypervolume) {
  const dcf::System serial = test::make_gcd();
  const ModuleLibrary lib = ModuleLibrary::standard();
  ParetoOptions options;
  options.measure.environments = 2;
  const ParetoResult result = optimize_pareto(serial, lib, options);
  const std::string json = frontier_to_json(result, serial.name());
  EXPECT_NE(json.find("\"design\":\"gcd\""), std::string::npos);
  EXPECT_NE(json.find("\"hypervolume\""), std::string::npos);
  EXPECT_NE(json.find("\"provenance\""), std::string::npos);
  EXPECT_NE(json.find("\"hash\""), std::string::npos);
}

// One ctest per named design: the frontier must weakly dominate the
// greedy optimizer's endpoint — the tentpole's quality contract.
class ParetoVsGreedy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParetoVsGreedy, FrontierWeaklyDominatesGreedy) {
  const auto designs = all_designs();
  ASSERT_LT(GetParam(), designs.size());
  const dcf::System serial =
      compile_source(std::string(designs[GetParam()].source));
  const ModuleLibrary lib = ModuleLibrary::standard();

  OptimizerOptions greedy_options;
  greedy_options.measure.environments = 2;
  const OptimizerResult greedy = optimize(serial, lib, greedy_options);

  ParetoOptions pareto_options;
  pareto_options.measure.environments = 2;
  pareto_options.verify_frontier = false;  // covered by the fixture test
  const ParetoResult result = optimize_pareto(serial, lib, pareto_options);

  ParetoFrontier frontier;
  for (const FrontierPoint& p : result.frontier) frontier.insert(p);
  EXPECT_TRUE(frontier.dominates(greedy.final.area, greedy.final.time_ns))
      << designs[GetParam()].name << ": greedy endpoint ("
      << greedy.final.area << ", " << greedy.final.time_ns
      << ") escapes the frontier";
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, ParetoVsGreedy,
                         ::testing::Range<std::size_t>(0, 6));

// Thread-count invariance: the frontier JSON must be byte-identical at
// 1/2/4/8 evaluation threads. 100 generated seeds in shards of 5, so each
// shard stays inside the ctest timeout under ASan/UBSan.
constexpr std::uint64_t kInvarianceShardSize = 5;

class ParetoThreadInvariance
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParetoThreadInvariance, FrontierJsonIsByteIdentical) {
  const ModuleLibrary lib = ModuleLibrary::standard();
  const std::uint64_t first = 1 + GetParam() * kInvarianceShardSize;
  for (std::uint64_t seed = first; seed < first + kInvarianceShardSize;
       ++seed) {
    const dcf::System sys = gen::random_system(seed);
    ParetoOptions options;
    options.measure.environments = 2;
    options.beam_width = 4;
    options.generations = 6;
    options.verify_frontier = false;
    std::string reference;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      options.eval_threads = threads;
      const ParetoResult result = optimize_pareto(sys, lib, options);
      const std::string json = frontier_to_json(result, sys.name());
      if (reference.empty()) {
        reference = json;
      } else {
        ASSERT_EQ(json, reference)
            << "seed " << seed << " diverges at " << threads << " threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ParetoThreadInvariance,
                         ::testing::Range<std::uint64_t>(0, 20));

// --- provenance recording ----------------------------------------------------

TEST(Provenance, PassPipelineRecordsChain) {
  transform::PassPipeline pipeline =
      transform::PassPipeline::from_spec("parallelize,merge-all,cleanup");
  const dcf::System out = pipeline.run(test::make_gcd());
  (void)out;
  ASSERT_EQ(pipeline.provenance().size(), 3u);
  EXPECT_EQ(pipeline.provenance()[0].pass, "parallelize");
  EXPECT_EQ(pipeline.provenance()[1].pass, "merge-all");
  EXPECT_EQ(pipeline.provenance()[2].pass, "cleanup");
  const std::string rendered =
      transform::provenance_to_string(pipeline.provenance());
  EXPECT_NE(rendered.find("parallelize"), std::string::npos);
  EXPECT_NE(rendered.find(" > "), std::string::npos);
}

TEST(Provenance, EmptyChainRendersSeed) {
  EXPECT_EQ(transform::provenance_to_string({}), "seed");
}

TEST(Provenance, PipelinePreservesIsIntersection) {
  // merge-all declares the control-net analyses preserved; cleanup
  // declares nothing — the pipeline's composed claim must be the
  // intersection (nothing).
  transform::PassPipeline both =
      transform::PassPipeline::from_spec("merge-all,cleanup");
  EXPECT_EQ(both.preserves().to_string(),
            semantics::PreservedAnalyses::none().to_string());
  transform::PassPipeline merge_only =
      transform::PassPipeline::from_spec("merge-all");
  EXPECT_EQ(merge_only.preserves().to_string(),
            transform::merge_preserved_analyses().to_string());
}

}  // namespace
}  // namespace camad::synth
