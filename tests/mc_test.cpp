// Unit tests for the parallel guard-aware model checker: packed-state
// codec, visited store, differential agreement with petri::explore,
// thread-count determinism, guard-commitment pruning, bounded cutoff,
// witness replay, the exact Def 3.2 check mode, and the AnalysisCache
// integration.
#include <gtest/gtest.h>

#include <array>
#include <string_view>
#include <vector>

#include "dcf/builder.h"
#include "dcf/check.h"
#include "fixtures.h"
#include "gen/sysgen.h"
#include "mc/checker.h"
#include "mc/encode.h"
#include "mc/guards.h"
#include "mc/store.h"
#include "petri/exec.h"
#include "petri/reachability.h"
#include "semantics/analysis.h"
#include "util/error.h"
#include "util/rng.h"

namespace camad {
namespace {

using test::make_doubler;
using test::make_gcd;
using test::make_two_lane;

petri::PlaceId find_place(const petri::Net& net, std::string_view name) {
  for (const petri::PlaceId p : net.places()) {
    if (net.name(p) == name) return p;
  }
  return petri::PlaceId();
}

petri::TransitionId find_transition(const petri::Net& net,
                                    std::string_view name) {
  for (const petri::TransitionId t : net.transitions()) {
    if (net.name(t) == name) return t;
  }
  return petri::TransitionId();
}

// A fork whose branches both flow into one join place: sj accumulates two
// tokens, so the net is unsafe. Mirrors designs/unsafe_fork.sys.
dcf::System make_unsafe_fork() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto r1 = b.reg("r1");
  const auto r2 = b.reg("r2");
  const auto y = b.output("y");
  const auto s0 = b.state("s0", /*initial=*/true);
  const auto sa = b.state("sa");
  const auto sb = b.state("sb");
  const auto sj = b.state("sj");
  const auto t_fork = b.transition("t_fork");
  b.flow(s0, t_fork);
  b.flow(t_fork, sa);
  b.flow(t_fork, sb);
  b.chain(sa, sj, "ta");
  b.chain(sb, sj, "tb");
  const auto t_done = b.transition("t_done");
  b.flow(sj, t_done);
  b.connect(x, r1, 0, {sa});
  b.connect(x, r2, 0, {sb});
  b.connect(r1, y, 0, {sj});
  return b.build("unsafe_fork");
}

// If/else diamond with complementary latched guards; both branches write
// the same register r, so the *structural* rule-1 check (which calls the
// never-co-marked branches parallel) reports a violation while the exact
// relation knows sa and sb never coexist. Mirrors
// designs/guarded_branch.sys.
dcf::System make_guarded_branch() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto ten = b.constant("ten", 10);
  const auto cmp = b.unit("cmp", dcf::OpCode::kLt);
  const auto neg = b.unit("neg", dcf::OpCode::kNot);
  const auto c_t = b.reg("c_t");
  const auto c_f = b.reg("c_f");
  const auto r = b.reg("r");
  const auto y = b.output("y");
  const auto s0 = b.state("s0", /*initial=*/true);
  const auto sa = b.state("sa");
  const auto sb = b.state("sb");
  const auto se = b.state("se");
  const auto t_true = b.chain(s0, sa, "t_true");
  const auto t_false = b.chain(s0, sb, "t_false");
  b.chain(sa, se, "ta");
  b.chain(sb, se, "tb");
  const auto t_done = b.transition("t_done");
  b.flow(se, t_done);
  b.connect(x, cmp, 0, {s0});
  b.connect(ten, cmp, 1, {s0});
  b.arc(b.out(cmp), b.in(neg), {s0});
  b.arc(b.out(cmp), b.in(c_t), {s0});
  b.arc(b.out(neg), b.in(c_f), {s0});
  b.guard(t_true, c_t);
  b.guard(t_false, c_f);
  b.connect(x, r, 0, {sa});
  b.connect(x, r, 0, {sb});
  b.connect(r, y, 0, {se});
  return b.build("guarded_branch");
}

// Two guarded choices in sequence with NO relatch in between: after the
// first branch commits the condition's polarity, the opposite branch of
// the second choice is disabled, so markings b2 / a3 (and transitions
// t2f / t3t) are reachable only in the unguarded relation.
dcf::System make_two_phase_guard() {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto ten = b.constant("ten", 10);
  const auto cmp = b.unit("cmp", dcf::OpCode::kLt);
  const auto neg = b.unit("neg", dcf::OpCode::kNot);
  const auto c_t = b.reg("c_t");
  const auto c_f = b.reg("c_f");
  const auto s0 = b.state("s0", /*initial=*/true);
  const auto a1 = b.state("a1");
  const auto b1 = b.state("b1");
  const auto a2 = b.state("a2");
  const auto b2 = b.state("b2");
  const auto a3 = b.state("a3");
  const auto b3 = b.state("b3");
  const auto t1t = b.chain(s0, a1, "t1t");
  const auto t1f = b.chain(s0, b1, "t1f");
  const auto t2t = b.chain(a1, a2, "t2t");
  const auto t2f = b.chain(a1, b2, "t2f");
  const auto t3t = b.chain(b1, a3, "t3t");
  const auto t3f = b.chain(b1, b3, "t3f");
  for (const auto s : {a2, b2, a3, b3}) {
    const auto t = b.transition();
    b.flow(s, t);
  }
  b.connect(x, cmp, 0, {s0});
  b.connect(ten, cmp, 1, {s0});
  b.arc(b.out(cmp), b.in(neg), {s0});
  b.arc(b.out(cmp), b.in(c_t), {s0});
  b.arc(b.out(neg), b.in(c_f), {s0});
  for (const auto t : {t1t, t2t, t3t}) b.guard(t, c_t);
  for (const auto t : {t1f, t2f, t3f}) b.guard(t, c_f);
  return b.build("two_phase_guard");
}

// --- codec ------------------------------------------------------------------

TEST(McCodec, RoundTripsTokensAndCommitments) {
  const dcf::System sys = make_gcd();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, /*token_bound=*/8, /*commitment_count=*/3);
  ASSERT_GE(codec.capacity(), 9U);

  Rng rng(42);
  std::vector<std::uint64_t> w(codec.words(), 0);
  std::vector<std::uint32_t> tokens(net.place_count());
  std::vector<std::uint8_t> cells(3);
  for (int round = 0; round < 100; ++round) {
    for (std::size_t p = 0; p < net.place_count(); ++p) {
      tokens[p] = static_cast<std::uint32_t>(rng.below(codec.capacity() + 1));
      codec.set_tokens(w.data(), p, tokens[p]);
    }
    for (std::size_t c = 0; c < 3; ++c) {
      cells[c] = static_cast<std::uint8_t>(rng.below(3));
      codec.set_commitment(w.data(), c, cells[c]);
    }
    for (std::size_t p = 0; p < net.place_count(); ++p) {
      EXPECT_EQ(codec.tokens(w.data(), p), tokens[p]);
    }
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(codec.commitment(w.data(), c), cells[c]);
    }
    const petri::Marking m = codec.marking(w.data());
    for (petri::PlaceId p : net.places()) {
      EXPECT_EQ(m.tokens(p), tokens[p.index()]);
    }
  }
}

TEST(McCodec, MarkingHashIgnoresCommitments) {
  const dcf::System sys = make_gcd();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, 8, 2);
  std::vector<std::uint64_t> a(codec.words(), 0);
  codec.encode_initial(net, a.data());
  std::vector<std::uint64_t> b = a;
  codec.set_commitment(b.data(), 1, mc::kCondFalse);
  EXPECT_FALSE(codec.equal(a.data(), b.data()));
  EXPECT_TRUE(codec.same_marking(a.data(), b.data()));
  EXPECT_EQ(codec.marking_hash(a.data()), codec.marking_hash(b.data()));
  EXPECT_NE(codec.hash(a.data()), codec.hash(b.data()));
}

TEST(McCodec, AddRemoveToken) {
  const dcf::System sys = make_doubler();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, 8, 0);
  std::vector<std::uint64_t> w(codec.words(), 0);
  codec.add_token(w.data(), 1);
  codec.add_token(w.data(), 1);
  EXPECT_EQ(codec.tokens(w.data(), 1), 2U);
  codec.remove_token(w.data(), 1);
  EXPECT_EQ(codec.tokens(w.data(), 1), 1U);
  EXPECT_EQ(codec.tokens(w.data(), 0), 0U);
}

// --- store ------------------------------------------------------------------

// Inserts one candidate through the batch entry point.
template <typename Better>
std::pair<mc::StateRef, bool> insert_one(mc::VisitedStore& store,
                                         const mc::StateCodec& codec,
                                         const std::uint64_t* w,
                                         const mc::StateMeta& meta,
                                         Better better) {
  mc::InsertBatch batch(codec.words());
  batch.push(w, codec.hash(w), meta);
  mc::InsertResult result;
  store.insert_or_improve(batch, better, &result);
  return {result.ref, result.inserted};
}

TEST(McStore, InsertDeduplicatesAndImproves) {
  const dcf::System sys = make_doubler();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, 8, 0);
  mc::VisitedStore store(codec, /*shard_count=*/4);

  std::vector<std::uint64_t> w(codec.words(), 0);
  codec.encode_initial(net, w.data());
  const auto never = [](const mc::StateMeta&, const mc::StateMeta&) {
    return false;
  };

  mc::StateMeta meta;
  meta.depth = 0;
  meta.via = petri::TransitionId(7);
  const auto [ref, inserted] = insert_one(store, codec, w.data(), meta, never);
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(ref.valid());
  EXPECT_EQ(store.size(), 1U);

  // Duplicate insert: same ref, not inserted, meta not replaced unless
  // `better` says so.
  mc::StateMeta other = meta;
  other.via = petri::TransitionId(3);
  const auto [ref2, inserted2] =
      insert_one(store, codec, w.data(), other, never);
  EXPECT_FALSE(inserted2);
  EXPECT_TRUE(ref2 == ref);
  EXPECT_EQ(store.meta(ref).via, petri::TransitionId(7));

  const auto always = [](const mc::StateMeta&, const mc::StateMeta&) {
    return true;
  };
  insert_one(store, codec, w.data(), other, always);
  EXPECT_EQ(store.meta(ref).via, petri::TransitionId(3));
  EXPECT_TRUE(codec.equal(store.state(ref), w.data()));
}

TEST(McStore, GrowsPastInitialCapacity) {
  const dcf::System sys = make_gcd();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, 100000, 0);
  mc::VisitedStore store(codec, 1);
  const auto never = [](const mc::StateMeta&, const mc::StateMeta&) {
    return false;
  };
  std::vector<std::uint64_t> w(codec.words(), 0);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    codec.set_tokens(w.data(), 0, i % 65536);
    codec.set_tokens(w.data(), 1, i / 65536);
    insert_one(store, codec, w.data(), {}, never);
  }
  EXPECT_EQ(store.size(), 5000U);
  std::size_t seen = 0;
  store.for_each([&](mc::StateRef, const std::uint64_t*,
                     const mc::StateMeta&) { ++seen; });
  EXPECT_EQ(seen, 5000U);
}

// One batch against the same candidates inserted one at a time: a
// duplicate of an earlier candidate of the batch, a same-depth
// improvement inside the batch and another across two batches, a
// different-depth duplicate that must not improve, and new states that
// cross the grow threshold mid-batch.
TEST(McStore, BatchInsertEqualsOneAtATime) {
  const dcf::System sys = make_gcd();
  const petri::Net& net = sys.control().net();
  const mc::StateCodec codec(net, 100000, 0);
  // Canonical order of this test: least discovering transition.
  const auto better = [](const mc::StateMeta& stored,
                         const mc::StateMeta& candidate) {
    return candidate.via.value() < stored.via.value();
  };
  struct Candidate {
    std::uint64_t state;
    std::uint32_t depth;
    std::uint32_t via;
  };
  const auto words_of = [&](std::uint64_t state) {
    std::vector<std::uint64_t> w(codec.words(), 0);
    codec.set_tokens(w.data(), 0, state);
    return w;
  };
  const auto meta_of = [](const Candidate& c) {
    mc::StateMeta meta;
    meta.depth = c.depth;
    meta.via = petri::TransitionId(c.via);
    return meta;
  };

  // A one-shard store's table starts at 64 slots and doubles past 70%
  // load, so it grows from 1,024 to 2,048 slots when its 717th entry
  // goes in. The first batches fill it to 700 entries at depth 1.
  std::vector<std::vector<Candidate>> batches;
  for (std::uint64_t first = 0; first < 700;
       first += mc::InsertBatch::kCapacity) {
    batches.emplace_back();
    for (std::uint64_t s = first;
         s < std::min<std::uint64_t>(700, first + mc::InsertBatch::kCapacity);
         ++s) {
      batches.back().push_back({s, 1, static_cast<std::uint32_t>(s % 7 + 1)});
    }
  }
  std::vector<Candidate> crossing = {
      {700, 2, 9},  // new
      {700, 2, 9},  // duplicate of the batch's first candidate: kept as is
      {700, 2, 4},  // same-depth improvement inside the batch
      {5, 2, 0},    // different-depth duplicate: must not improve
  };
  // New states 701, 702, ... fill the batch.
  std::uint64_t next = 701;
  while (crossing.size() < mc::InsertBatch::kCapacity) {
    crossing.push_back({next++, 2, 3});
  }
  const std::size_t crossing_batch = batches.size();
  batches.push_back(crossing);
  batches.push_back({{700, 2, 2},    // improvement across two batches
                     {701, 2, 5}});  // same depth, not better

  using Entries =
      std::vector<std::pair<std::vector<std::uint64_t>, mc::StateMeta>>;
  const auto entries_of = [&](const mc::VisitedStore& store) {
    Entries entries;
    store.for_each([&](mc::StateRef, const std::uint64_t* w,
                       const mc::StateMeta& meta) {
      entries.emplace_back(std::vector<std::uint64_t>(w, w + codec.words()),
                           meta);
    });
    return entries;
  };

  mc::VisitedStore batched(codec, 1);
  mc::VisitedStore serial(codec, 1);
  std::array<mc::InsertResult, mc::InsertBatch::kCapacity> results;
  mc::InsertBatch batch(codec.words());
  Entries entries;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batch.clear();
    for (const Candidate& c : batches[b]) {
      const std::vector<std::uint64_t> w = words_of(c.state);
      batch.push(w.data(), codec.hash(w.data()), meta_of(c));
    }
    const std::size_t before = batched.size();
    batched.insert_or_improve(batch, better, results.data());
    if (b == crossing_batch) {
      EXPECT_LT(before, 717U);
      EXPECT_GT(batched.size(), 717U);
    }
    for (std::size_t i = 0; i < batches[b].size(); ++i) {
      const Candidate& c = batches[b][i];
      const auto [ref, inserted] =
          insert_one(serial, codec, words_of(c.state).data(), meta_of(c),
                     better);
      EXPECT_TRUE(results[i].ref == ref) << "batch " << b << " candidate " << i;
      EXPECT_EQ(results[i].inserted, inserted)
          << "batch " << b << " candidate " << i;
    }
    // Same entries, in the same order, with the same metadata.
    entries = entries_of(batched);
    const Entries expected = entries_of(serial);
    ASSERT_EQ(entries.size(), expected.size()) << "batch " << b;
    for (std::size_t e = 0; e < entries.size(); ++e) {
      EXPECT_TRUE(codec.equal(entries[e].first.data(),
                              expected[e].first.data()))
          << "batch " << b << " entry " << e;
      EXPECT_EQ(entries[e].second.depth, expected[e].second.depth)
          << "batch " << b << " entry " << e;
      EXPECT_EQ(entries[e].second.via, expected[e].second.via)
          << "batch " << b << " entry " << e;
    }
  }
  EXPECT_EQ(batched.size(), next);

  // The outcomes themselves: 700 keeps its least same-depth discoverer,
  // 5 its depth-1 metadata and 701 its first discoverer.
  const auto stored_meta = [&](std::uint64_t state) {
    const std::vector<std::uint64_t> w = words_of(state);
    for (const auto& [words, meta] : entries) {
      if (codec.equal(words.data(), w.data())) return meta;
    }
    ADD_FAILURE() << "state " << state << " not stored";
    return mc::StateMeta{};
  };
  EXPECT_EQ(stored_meta(700).via, petri::TransitionId(2));
  EXPECT_EQ(stored_meta(5).via, petri::TransitionId(6));
  EXPECT_EQ(stored_meta(5).depth, 1U);
  EXPECT_EQ(stored_meta(701).via, petri::TransitionId(3));
}

// --- differential against petri::explore ------------------------------------

void expect_matches_explore(const petri::Net& net) {
  const petri::ReachabilityOptions ro;
  const petri::ConcurrencyRelation ref =
      petri::concurrent_places_bounded(net, ro);
  ASSERT_TRUE(ref.exploration.complete);
  const mc::McResult out = mc::model_check(net);
  ASSERT_TRUE(out.complete);
  EXPECT_EQ(out.safe, ref.exploration.safe);
  EXPECT_EQ(out.bounded, ref.exploration.bounded);
  EXPECT_EQ(out.deadlock, ref.exploration.deadlock);
  EXPECT_EQ(out.can_terminate, ref.exploration.can_terminate);
  EXPECT_EQ(out.marking_count, ref.exploration.marking_count);
  EXPECT_EQ(out.state_count, out.marking_count);  // no commitment cells
  EXPECT_EQ(out.concurrency, ref.concurrent);
  EXPECT_EQ(out.tracked_cells, 0U);
}

TEST(McDifferential, FixturesMatchExplore) {
  expect_matches_explore(make_doubler().control().net());
  expect_matches_explore(make_two_lane().control().net());
  expect_matches_explore(make_gcd().control().net());
  expect_matches_explore(make_unsafe_fork().control().net());
  expect_matches_explore(make_guarded_branch().control().net());
  expect_matches_explore(make_two_phase_guard().control().net());
}

TEST(McDifferential, GuardsDisabledEqualsBareNet) {
  const dcf::System sys = make_guarded_branch();
  mc::McOptions opt;
  opt.use_guards = false;
  const mc::McResult off = mc::model_check(sys, opt);
  const mc::McResult bare = mc::model_check(sys.control().net());
  EXPECT_TRUE(mc::same_verdicts(off, bare));
}

// --- determinism ------------------------------------------------------------

TEST(McDeterminism, IdenticalResultAcrossThreadCounts) {
  const dcf::System systems[] = {make_gcd(), make_unsafe_fork(),
                                 make_two_phase_guard(),
                                 gen::random_system(1234)};
  for (const dcf::System& sys : systems) {
    mc::McOptions opt;
    opt.threads = 1;
    const mc::McResult one = mc::model_check(sys, opt);
    for (const std::size_t threads : {2UL, 8UL}) {
      opt.threads = threads;
      const mc::McResult many = mc::model_check(sys, opt);
      EXPECT_TRUE(mc::same_verdicts(one, many))
          << sys.name() << " diverges at " << threads << " threads";
    }
    // Shard count must not affect verdicts either.
    opt.threads = 8;
    opt.shards = 1;
    EXPECT_TRUE(mc::same_verdicts(one, mc::model_check(sys, opt)));
  }
}

// --- work counts ------------------------------------------------------------

// Every successor handed to the store is a new state, a same-depth
// rediscovery or an older one. Those counts do not depend on the
// schedule; the canonical-parent replacements do, and repeat at one
// thread.
TEST(McWorkCounts, AddUpAndRepeat) {
  const dcf::System systems[] = {make_gcd(), make_unsafe_fork(),
                                 make_two_phase_guard(),
                                 gen::random_system(1234)};
  for (const dcf::System& sys : systems) {
    mc::McOptions opt;
    opt.threads = 1;
    const mc::McResult one = mc::model_check(sys, opt);
    ASSERT_TRUE(one.complete) << sys.name();
    const mc::McStats& s = one.stats;
    EXPECT_EQ(s.successors, one.state_count - 1 + s.same_depth_rediscoveries +
                                s.older_rediscoveries)
        << sys.name();
    EXPECT_LE(s.parent_replacements, s.same_depth_rediscoveries)
        << sys.name();
    EXPECT_EQ(mc::model_check(sys, opt).stats.parent_replacements,
              s.parent_replacements)
        << sys.name();
    for (const std::size_t threads : {2UL, 8UL}) {
      opt.threads = threads;
      const mc::McStats many = mc::model_check(sys, opt).stats;
      EXPECT_EQ(many.successors, s.successors) << sys.name();
      EXPECT_EQ(many.same_depth_rediscoveries, s.same_depth_rediscoveries)
          << sys.name();
      EXPECT_EQ(many.older_rediscoveries, s.older_rediscoveries)
          << sys.name();
    }
  }
}

// --- guard commitment pruning ----------------------------------------------

TEST(McGuards, CommitmentPrunesInconsistentBranches) {
  const dcf::System sys = make_two_phase_guard();
  const petri::Net& net = sys.control().net();

  const mc::McResult bare = mc::model_check(net);
  const mc::McResult guarded = mc::model_check(sys);
  ASSERT_TRUE(bare.complete);
  ASSERT_TRUE(guarded.complete);
  EXPECT_EQ(guarded.tracked_cells, 1U);

  // Unguarded: s0, a1, b1, a2, b2, a3, b3 -> 7 markings (+ the empty
  // terminal one). Guarded: b2 and a3 are unreachable.
  EXPECT_EQ(bare.marking_count, guarded.marking_count + 2);

  // The second-phase transitions of the opposite polarity never fire.
  const auto t2f = find_transition(net, "t2f");
  const auto t3t = find_transition(net, "t3t");
  ASSERT_TRUE(t2f.valid());
  ASSERT_TRUE(t3t.valid());
  EXPECT_TRUE(bare.dead_transitions.empty());
  // Dead under guards: t2f, t3t, plus the end transitions of the two
  // unreachable states they would have led to.
  ASSERT_EQ(guarded.dead_transitions.size(), 4U);
  const auto& dead = guarded.dead_transitions;
  EXPECT_NE(std::find(dead.begin(), dead.end(), t2f), dead.end());
  EXPECT_NE(std::find(dead.begin(), dead.end(), t3t), dead.end());
  EXPECT_TRUE(std::is_sorted(dead.begin(), dead.end()));

  // Complementary latched guards are statically exclusive: no conflicts.
  EXPECT_TRUE(guarded.conflicts.empty());
}

TEST(McGuards, UnlatchedGuardsStayUnconstrained) {
  // make_gcd guards branch transitions directly on comparator outputs
  // (no condition-register latch), so the commitment abstraction must
  // not prune anything — but the three-way branch competitors are not
  // statically exclusive and co-enabled at Stest, so rule-3 conflict
  // warnings (not violations) appear.
  const dcf::System sys = make_gcd();
  const mc::McResult bare = mc::model_check(sys.control().net());
  const mc::McResult guarded = mc::model_check(sys);
  EXPECT_EQ(guarded.tracked_cells, 0U);
  EXPECT_TRUE(mc::same_verdicts(bare, guarded) ||
              !guarded.conflicts.empty());
  EXPECT_EQ(guarded.marking_count, bare.marking_count);
  ASSERT_FALSE(guarded.conflicts.empty());
  for (const mc::McConflict& c : guarded.conflicts) {
    EXPECT_FALSE(c.unguarded);
    EXPECT_FALSE(c.marking.marked_places().empty());
  }
  // Conflicts of the bare run are not computed (no guard model).
  EXPECT_TRUE(bare.conflicts.empty());
}

TEST(McGuards, UnguardedCompetitorIsAViolationGradeConflict) {
  // One guarded and one unguarded transition compete for s0.
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto c = b.reg("c");
  const auto s0 = b.state("s0", true);
  const auto sa = b.state("sa");
  const auto sb = b.state("sb");
  const auto tg = b.chain(s0, sa, "tg");
  b.chain(s0, sb, "tu");
  b.connect(x, c, 0, {s0});
  b.guard(tg, c);
  const dcf::System sys = b.build("competing");

  const mc::McResult out = mc::model_check(sys);
  ASSERT_EQ(out.conflicts.size(), 1U);
  EXPECT_TRUE(out.conflicts[0].unguarded);
  // The conflict witness trace replays to its marking.
  const auto replayed =
      mc::replay_trace(sys.control().net(), out.conflicts[0].trace);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(*replayed == out.conflicts[0].marking);
}

// --- bounded cutoff ---------------------------------------------------------

TEST(McCutoff, BudgetExhaustionReturnsIncompleteInsteadOfThrowing) {
  const dcf::System sys = make_gcd();
  mc::McOptions opt;
  opt.max_states = 2;
  const mc::McResult out = mc::model_check(sys, opt);
  EXPECT_FALSE(out.complete);
  EXPECT_EQ(out.cutoff_reason, "max-states");
  EXPECT_FALSE(out.ok());
  EXPECT_GE(out.state_count, 1U);
}

// --- witnesses --------------------------------------------------------------

TEST(McWitness, UnsafeTraceReplaysToWitnessMarking) {
  const dcf::System sys = make_unsafe_fork();
  const petri::Net& net = sys.control().net();
  const mc::McResult out = mc::model_check(sys);
  ASSERT_TRUE(out.complete);
  EXPECT_FALSE(out.safe);
  ASSERT_TRUE(out.unsafe_witness.has_value());
  ASSERT_FALSE(out.unsafe_trace.empty());

  // Replay step by step through the Def 3.1 firing rule.
  petri::Marking m = petri::Marking::initial(net);
  for (const petri::TransitionId t : out.unsafe_trace) {
    ASSERT_TRUE(petri::is_enabled(net, m, t));
    m = petri::fire(net, m, t);
  }
  EXPECT_TRUE(m == *out.unsafe_witness);
  const auto sj = find_place(net, "sj");
  ASSERT_TRUE(sj.valid());
  EXPECT_GE(m.tokens(sj), 2U);

  // And via the helper.
  const auto replayed = mc::replay_trace(net, out.unsafe_trace);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(*replayed == *out.unsafe_witness);
}

TEST(McWitness, DeadlockWitnessAndTrace) {
  dcf::SystemBuilder b;
  const auto x = b.input("x");
  const auto r = b.reg("r");
  const auto s0 = b.state("s0", true);
  const auto s1 = b.state("s1");
  b.chain(s0, s1, "t0");
  b.connect(x, r, 0, {s0});
  const dcf::System sys = b.build("stuck");

  const mc::McResult out = mc::model_check(sys);
  ASSERT_TRUE(out.complete);
  EXPECT_TRUE(out.deadlock);
  EXPECT_FALSE(out.can_terminate);
  ASSERT_TRUE(out.deadlock_witness.has_value());
  const auto replayed =
      mc::replay_trace(sys.control().net(), out.deadlock_trace);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(*replayed == *out.deadlock_witness);
}

// --- bounded petri APIs -----------------------------------------------------

TEST(BoundedReachability, CollectMarkingsCompleteAndCutoff) {
  const dcf::System sys = make_gcd();
  const petri::Net& net = sys.control().net();
  const petri::MarkingSet full = petri::collect_markings(net);
  EXPECT_TRUE(full.exploration.complete);
  EXPECT_EQ(full.markings.size(), full.exploration.marking_count);

  petri::ReachabilityOptions tight;
  tight.max_markings = 2;
  const petri::MarkingSet cut = petri::collect_markings(net, tight);
  EXPECT_FALSE(cut.exploration.complete);
  const petri::ConcurrencyRelation rel =
      petri::concurrent_places_bounded(net, tight);
  EXPECT_FALSE(rel.exploration.complete);
}

// --- rule 1: pairwise over the reachable relation == whole-marking check ----

TEST(McExactCheck, Rule1PairwiseEqualsWholeMarking) {
  // Def 3.2 rule 1 quantifies over pairs of parallel states, so the
  // pairwise check over mc's co-marking relation (what dcf::check's
  // reachable mode reads through AnalysisCache::concurrency()) must
  // coincide with brute-force disjointness per whole reachable marking: a
  // pair of states is jointly active in some reachable marking iff the
  // relation marks it concurrent. Verified here by recomputing the
  // relation from the enumerated marking set.
  for (const dcf::System& sys :
       {make_two_lane(), make_guarded_branch(), make_gcd(),
        gen::random_system(99)}) {
    const petri::Net& net = sys.control().net();
    const petri::MarkingSet set = petri::collect_markings(net);
    ASSERT_TRUE(set.exploration.complete);
    const std::size_t n = net.place_count();
    std::vector<bool> from_markings(n * n, false);
    for (const petri::Marking& m : set.markings) {
      const auto marked = m.marked_places();
      for (std::size_t i = 0; i < marked.size(); ++i) {
        for (std::size_t j = i + 1; j < marked.size(); ++j) {
          from_markings[marked[i].index() * n + marked[j].index()] = true;
          from_markings[marked[j].index() * n + marked[i].index()] = true;
        }
      }
      for (const petri::PlaceId p : marked) {
        if (m.tokens(p) >= 2) from_markings[p.index() * n + p.index()] = true;
      }
    }
    mc::McOptions opt;
    opt.use_guards = false;  // match the unguarded marking enumeration
    const mc::McResult out = mc::model_check(sys, opt);
    ASSERT_TRUE(out.complete);
    EXPECT_EQ(out.concurrency, from_markings) << sys.name();
  }
}

TEST(McExactCheck, StructuralAndExactRule1Disagree) {
  // Structurally the diamond branches are parallel (neither F⁺-precedes
  // the other) and share register r -> rule-1 violation. In mc's
  // reachable co-marking relation (dcf::check's reachable mode) they are
  // never co-marked -> properly designed.
  const dcf::System sys = make_guarded_branch();

  const dcf::CheckReport structural = dcf::check_properly_designed(sys);
  bool rule1 = false;
  for (const dcf::Violation& v : structural.violations) {
    rule1 |= v.rule == dcf::Rule::kParallelDisjoint;
  }
  EXPECT_TRUE(rule1) << structural.to_string();

  dcf::CheckOptions reachable;
  reachable.use_reachable_concurrency = true;
  const dcf::CheckReport refined =
      dcf::check_properly_designed(sys, reachable);
  EXPECT_TRUE(refined.ok()) << refined.to_string();
}

TEST(McExactCheck, BudgetExhaustionFallsBackWithWarning) {
  // An mc run cut short by the budget never refines rule 1: through
  // either overload the check warns and keeps the structural verdict,
  // the rule-1 violation the complete run would have removed.
  const dcf::System sys = make_guarded_branch();
  dcf::CheckOptions reachable;
  reachable.use_reachable_concurrency = true;
  reachable.reachability.max_markings = 1;
  const semantics::AnalysisCache cache(sys, reachable.reachability);
  const dcf::CheckReport own = dcf::check_properly_designed(sys, reachable);
  const dcf::CheckReport cached =
      dcf::check_properly_designed(sys, cache, reachable);
  for (const dcf::CheckReport& report : {own, cached}) {
    bool warned = false;
    for (const dcf::Violation& w : report.warnings) {
      warned |= w.message.find("exceeded the exploration budget") !=
                std::string::npos;
    }
    EXPECT_TRUE(warned) << report.to_string();
    bool rule1 = false;
    for (const dcf::Violation& v : report.violations) {
      rule1 |= v.rule == dcf::Rule::kParallelDisjoint;
    }
    EXPECT_TRUE(rule1) << report.to_string();
  }
  EXPECT_EQ(own.to_string(), cached.to_string());
}

TEST(McExactCheck, AgreesWithStructuralOnCleanDesigns) {
  // On designs where the structural check already passes, the reachable
  // mode must pass too (it only removes spurious rule-1/4 violations,
  // never adds any on complete runs).
  dcf::CheckOptions reachable;
  reachable.use_reachable_concurrency = true;
  for (const dcf::System& sys :
       {make_doubler(), make_two_lane(), gen::random_system(7)}) {
    ASSERT_TRUE(dcf::check_properly_designed(sys).ok()) << sys.name();
    EXPECT_TRUE(dcf::check_properly_designed(sys, reachable).ok())
        << sys.name();
  }
}

// --- AnalysisCache integration ----------------------------------------------

TEST(McAnalysisCache, ReachabilityIsOneUnguardedRun) {
  // reachability() and concurrency() read one unguarded one-thread mc run
  // with the cache's budget; a partial relation is never handed out.
  const dcf::System sys = make_guarded_branch();
  const semantics::AnalysisCache cache(sys);
  mc::McOptions opt;
  opt.threads = 1;
  opt.use_guards = false;
  opt.collect_traces = false;
  EXPECT_TRUE(mc::same_verdicts(cache.reachability(),
                                mc::model_check(sys, opt)));
  EXPECT_EQ(&cache.concurrency(), &cache.reachability().concurrency);
  const auto idx =
      static_cast<std::size_t>(semantics::Analysis::kReachability);
  EXPECT_EQ(cache.stats().misses[idx], 1U);

  petri::ReachabilityOptions tight;
  tight.max_markings = 1;
  const semantics::AnalysisCache cut(sys, tight);
  EXPECT_FALSE(cut.reachability().complete);
  EXPECT_THROW((void)cut.concurrency(), Error);
}

TEST(McAnalysisCache, ExactConcurrencyIsMemoizedAndCarried) {
  const dcf::System sys = make_guarded_branch();
  semantics::AnalysisCache cache(sys);
  const mc::McResult& first = cache.model_check();
  EXPECT_TRUE(first.complete);
  EXPECT_EQ(&cache.model_check(), &first);
  const auto idx =
      static_cast<std::size_t>(semantics::Analysis::kExactConcurrency);
  EXPECT_EQ(cache.stats().misses[idx], 1U);
  EXPECT_GE(cache.stats().hits[idx], 1U);

  // all() carries the result to an identical-copy successor; the
  // control-net shape guard drops it for shape-changing transforms.
  const dcf::System copy = sys;
  const semantics::AnalysisCache next =
      cache.successor(copy, semantics::PreservedAnalyses::all());
  EXPECT_EQ(next.stats().transfers[idx], 1U);
  EXPECT_EQ(&next.model_check(), &first);

  // control_net() must NOT claim it (the guard model reads the datapath).
  EXPECT_FALSE(semantics::PreservedAnalyses::control_net().preserved(
      semantics::Analysis::kExactConcurrency));
  EXPECT_NE(semantics::PreservedAnalyses::all().to_string().find(
                "exact-concurrency"),
            std::string::npos);
}

// --- guard model ------------------------------------------------------------

TEST(McGuardModel, ClassifiesLatchedComplementaryPair) {
  const dcf::System sys = make_guarded_branch();
  const mc::GuardModel model(sys);
  EXPECT_EQ(model.cell_count(), 1U);
  const petri::Net& net = sys.control().net();
  const auto t_true = find_transition(net, "t_true");
  const auto t_false = find_transition(net, "t_false");
  ASSERT_TRUE(t_true.valid());
  ASSERT_TRUE(t_false.valid());
  EXPECT_EQ(model.constraint_cell(t_true.index()),
            model.constraint_cell(t_false.index()));
  EXPECT_NE(model.constraint_value(t_true.index()),
            model.constraint_value(t_false.index()));
  EXPECT_TRUE(model.statically_exclusive(t_true.index(), t_false.index()));
  EXPECT_TRUE(model.guarded(t_true.index()));
}

}  // namespace
}  // namespace camad
