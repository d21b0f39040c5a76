#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "dcf/io.h"
#include "gen/sysgen.h"
#include "petri/exec.h"
#include "petri/export.h"
#include "petri/invariants.h"
#include "petri/marking.h"
#include "petri/net.h"
#include "petri/order.h"
#include "petri/pnml.h"
#include "petri/reachability.h"
#include "synth/compile.h"
#include "util/error.h"

namespace camad::petri {
namespace {

/// p0 -> t0 -> p1 -> t1 -> p2 (linear, token on p0).
Net linear3() {
  Net net;
  const PlaceId p0 = net.add_place("p0");
  const PlaceId p1 = net.add_place("p1");
  const PlaceId p2 = net.add_place("p2");
  const TransitionId t0 = net.add_transition("t0");
  const TransitionId t1 = net.add_transition("t1");
  net.connect(p0, t0);
  net.connect(t0, p1);
  net.connect(p1, t1);
  net.connect(t1, p2);
  net.set_initial_tokens(p0, 1);
  return net;
}

/// Fork/join: p0 -> t0 -> {p1, p2}; {p1, p2} -> t1 -> p3.
Net forkjoin() {
  Net net;
  const PlaceId p0 = net.add_place("p0");
  const PlaceId p1 = net.add_place("p1");
  const PlaceId p2 = net.add_place("p2");
  const PlaceId p3 = net.add_place("p3");
  const TransitionId t0 = net.add_transition("t0");
  const TransitionId t1 = net.add_transition("t1");
  net.connect(p0, t0);
  net.connect(t0, p1);
  net.connect(t0, p2);
  net.connect(p1, t1);
  net.connect(p2, t1);
  net.connect(t1, p3);
  net.set_initial_tokens(p0, 1);
  return net;
}

/// Unbounded producer: t0 has no inputs, feeds p0.
Net producer() {
  Net net;
  const PlaceId p0 = net.add_place("p0");
  const TransitionId t0 = net.add_transition("t0");
  net.connect(t0, p0);
  return net;
}

TEST(Net, StructureAccessors) {
  Net net = forkjoin();
  EXPECT_EQ(net.place_count(), 4u);
  EXPECT_EQ(net.transition_count(), 2u);
  EXPECT_EQ(net.pre(TransitionId(1)).size(), 2u);
  EXPECT_EQ(net.post(TransitionId(0)).size(), 2u);
  EXPECT_EQ(net.post(PlaceId(0)).size(), 1u);
  EXPECT_EQ(net.pre(PlaceId(3)).size(), 1u);
  EXPECT_EQ(net.name(PlaceId(0)), "p0");
}

TEST(Net, RejectsDuplicateArcs) {
  Net net;
  const PlaceId p = net.add_place();
  const TransitionId t = net.add_transition();
  net.connect(p, t);
  EXPECT_THROW(net.connect(p, t), ModelError);
  net.connect(t, p);
  EXPECT_THROW(net.connect(t, p), ModelError);
}

TEST(Net, AutoNames) {
  Net net;
  const PlaceId p = net.add_place();
  const TransitionId t = net.add_transition();
  EXPECT_EQ(net.name(p), "S0");
  EXPECT_EQ(net.name(t), "T0");
}

TEST(Marking, InitialAndBasics) {
  const Net net = linear3();
  Marking m = Marking::initial(net);
  EXPECT_EQ(m.tokens(PlaceId(0)), 1u);
  EXPECT_EQ(m.total(), 1u);
  EXPECT_TRUE(m.is_safe());
  EXPECT_EQ(m.marked_places(), (std::vector<PlaceId>{PlaceId(0)}));
  m.set_tokens(PlaceId(1), 2);
  EXPECT_FALSE(m.is_safe());
  EXPECT_EQ(m.total(), 3u);
}

TEST(Marking, MarkedIntoBitsetAndPlaces) {
  const Net net = linear3();
  Marking m = Marking::initial(net);
  m.set_tokens(PlaceId(2), 3);
  DynamicBitset bits;
  m.marked_into(bits);
  EXPECT_EQ(bits.size(), net.place_count());
  EXPECT_TRUE(bits.test(0));
  EXPECT_FALSE(bits.test(1));
  EXPECT_TRUE(bits.test(2));  // support, not token count
  // Reuse: previously-set bits must be cleared.
  m.set_tokens(PlaceId(0), 0);
  m.marked_into(bits);
  EXPECT_FALSE(bits.test(0));
  EXPECT_TRUE(bits.test(2));
  EXPECT_EQ(m.marked_places(), (std::vector<PlaceId>{PlaceId(2)}));
}

TEST(Marking, EqualityAndHash) {
  const Net net = linear3();
  const Marking a = Marking::initial(net);
  Marking b = Marking::initial(net);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.add_token(PlaceId(2));
  EXPECT_NE(a, b);
}

TEST(Exec, EnablingAndFiring) {
  const Net net = linear3();
  Marking m = Marking::initial(net);
  EXPECT_TRUE(is_enabled(net, m, TransitionId(0)));
  EXPECT_FALSE(is_enabled(net, m, TransitionId(1)));
  m = fire(net, m, TransitionId(0));
  EXPECT_EQ(m.tokens(PlaceId(0)), 0u);
  EXPECT_EQ(m.tokens(PlaceId(1)), 1u);
  EXPECT_THROW(fire(net, m, TransitionId(0)), ModelError);
}

TEST(Exec, GuardFiltersEnabled) {
  const Net net = linear3();
  Marking m = Marking::initial(net);
  const auto none = fire_step_in_order(net, m, net.transitions(),
                                       [](TransitionId) { return false; });
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(m, Marking::initial(net));
  const auto all = fire_step_in_order(net, m, net.transitions());
  EXPECT_EQ(all, (std::vector<TransitionId>{TransitionId(0)}));
}

TEST(Exec, MaximalStepFiresConcurrent) {
  // In id order over every transition, a step is maximal.
  Net net = forkjoin();
  Marking m = Marking::initial(net);
  EXPECT_EQ(fire_step_in_order(net, m, net.transitions()).size(), 1u);  // t0
  // now p1 and p2 marked; t1 joins them in one step
  const auto fired = fire_step_in_order(net, m, net.transitions());
  EXPECT_EQ(fired, (std::vector<TransitionId>{TransitionId(1)}));
  EXPECT_EQ(m.tokens(PlaceId(3)), 1u);
  EXPECT_TRUE(fire_step_in_order(net, m, net.transitions()).empty());
}

TEST(Exec, StepRespectsTokenConsumption) {
  // One place, two competing transitions: only the first in order fires.
  Net net;
  const PlaceId p = net.add_place();
  const TransitionId t0 = net.add_transition();
  const TransitionId t1 = net.add_transition();
  const PlaceId q0 = net.add_place();
  const PlaceId q1 = net.add_place();
  net.connect(p, t0);
  net.connect(t0, q0);
  net.connect(p, t1);
  net.connect(t1, q1);
  net.set_initial_tokens(p, 1);
  Marking m = Marking::initial(net);
  const auto fired = fire_step_in_order(net, m, {t1, t0});
  EXPECT_EQ(fired, (std::vector<TransitionId>{t1}));
  EXPECT_EQ(m.tokens(q1), 1u);
  EXPECT_EQ(m.tokens(q0), 0u);
}

TEST(Reachability, LinearNetTerminatesSafely) {
  const ReachabilityResult r = explore(linear3());
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.safe);
  EXPECT_TRUE(r.bounded);
  // The final marking leaves a token on p2 with nothing enabled: a dead
  // non-zero marking counts as deadlock (termination needs zero tokens).
  EXPECT_TRUE(r.deadlock);
  EXPECT_EQ(r.marking_count, 3u);
}

TEST(Reachability, ForkJoinIsSafe) {
  const ReachabilityResult r = explore(forkjoin());
  EXPECT_TRUE(r.complete);
  EXPECT_TRUE(r.safe);
  EXPECT_EQ(r.marking_count, 3u);
}

TEST(Reachability, DetectsUnsafety) {
  // t0 produces into p1 twice via two paths: p0 -> t0 -> {p1}; p0' -> t1
  // -> {p1} with both initially marked leads to 2 tokens on p1 only if
  // both fire... simpler: transition with two outputs to the same place is
  // rejected (duplicate arc), so use two transitions.
  Net net;
  const PlaceId a = net.add_place();
  const PlaceId b = net.add_place();
  const PlaceId sink = net.add_place();
  const TransitionId ta = net.add_transition();
  const TransitionId tb = net.add_transition();
  net.connect(a, ta);
  net.connect(ta, sink);
  net.connect(b, tb);
  net.connect(tb, sink);
  net.set_initial_tokens(a, 1);
  net.set_initial_tokens(b, 1);
  const ReachabilityResult r = explore(net);
  EXPECT_TRUE(r.complete);
  EXPECT_FALSE(r.safe);
  ASSERT_TRUE(r.unsafe_witness.has_value());
  EXPECT_EQ(r.unsafe_witness->tokens(sink), 2u);
}

TEST(Reachability, DetectsUnboundedness) {
  const ReachabilityResult r = explore(producer());
  EXPECT_FALSE(r.bounded);
  EXPECT_FALSE(r.safe);
}

TEST(Reachability, CanTerminate) {
  // p0 -> t0 -> (nothing): transition with empty post-set drains tokens.
  Net net;
  const PlaceId p0 = net.add_place();
  const TransitionId t0 = net.add_transition();
  net.connect(p0, t0);
  net.set_initial_tokens(p0, 1);
  const ReachabilityResult r = explore(net);
  EXPECT_TRUE(r.can_terminate);
  EXPECT_FALSE(r.deadlock);
}

TEST(Reachability, StuckMarkingIsDeadlock) {
  const ReachabilityResult r = explore(linear3());
  // p2 keeps a token with no enabled transition: dead but non-zero.
  EXPECT_TRUE(r.deadlock);
  ASSERT_TRUE(r.deadlock_witness.has_value());
  EXPECT_EQ(r.deadlock_witness->tokens(PlaceId(2)), 1u);
}

TEST(Reachability, EnumeratesMarkings) {
  const MarkingSet set = collect_markings(forkjoin());
  EXPECT_TRUE(set.exploration.complete);
  EXPECT_EQ(set.markings.size(), 3u);
}

TEST(Reachability, ConcurrentPlaces) {
  Net net = forkjoin();
  const ConcurrencyRelation relation = concurrent_places_bounded(net);
  ASSERT_TRUE(relation.exploration.complete);
  const auto& conc = relation.concurrent;
  const std::size_t n = net.place_count();
  EXPECT_TRUE(conc[1 * n + 2]);   // p1 ∥ p2
  EXPECT_TRUE(conc[2 * n + 1]);
  EXPECT_FALSE(conc[0 * n + 1]);
  EXPECT_FALSE(conc[1 * n + 3]);
  EXPECT_FALSE(conc[1 * n + 1]);  // safe: never 2 tokens on p1
}

TEST(Order, LinearChainIsSequential) {
  const Net net = linear3();
  const OrderRelations order(net);
  EXPECT_TRUE(order.before(PlaceId(0), PlaceId(1)));
  EXPECT_TRUE(order.before(PlaceId(0), PlaceId(2)));
  EXPECT_FALSE(order.before(PlaceId(2), PlaceId(0)));
  EXPECT_TRUE(order.sequential(PlaceId(2), PlaceId(0)));
  EXPECT_FALSE(order.parallel(PlaceId(0), PlaceId(2)));
  EXPECT_FALSE(order.parallel(PlaceId(1), PlaceId(1)));  // diagonal excluded
}

TEST(Order, ForkBranchesAreParallel) {
  const Net net = forkjoin();
  const OrderRelations order(net);
  EXPECT_TRUE(order.parallel(PlaceId(1), PlaceId(2)));
  EXPECT_TRUE(order.before(PlaceId(0), PlaceId(1)));
  EXPECT_TRUE(order.before(PlaceId(1), PlaceId(3)));
  // p2 is the only place parallel to p1.
  EXPECT_FALSE(order.parallel(PlaceId(1), PlaceId(0)));
  EXPECT_FALSE(order.parallel(PlaceId(1), PlaceId(3)));
}

TEST(Order, ForkInsideLoopMakesBranchesSequentialThroughBackEdge) {
  // fork branches p1, p2 join into p3, which loops back to p0: the
  // structural F+ relates p1 and p2 through the back edge in *both*
  // directions, so they are classified sequential (in a loop) even
  // though a single pass marks them concurrently — the documented
  // conservatism boundary of Def 2.3.
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const PlaceId p2 = net.add_place();
  const PlaceId p3 = net.add_place();
  const TransitionId fork = net.add_transition();
  const TransitionId join = net.add_transition();
  const TransitionId back = net.add_transition();
  net.connect(p0, fork);
  net.connect(fork, p1);
  net.connect(fork, p2);
  net.connect(p1, join);
  net.connect(p2, join);
  net.connect(join, p3);
  net.connect(p3, back);
  net.connect(back, p0);
  const OrderRelations order(net);
  EXPECT_TRUE(order.in_loop(p1, p2));
  EXPECT_FALSE(order.parallel(p1, p2));
  // The reachability-based relation sees the true concurrency.
  net.set_initial_tokens(p0, 1);
  const ConcurrencyRelation relation = concurrent_places_bounded(net);
  ASSERT_TRUE(relation.exploration.complete);
  EXPECT_TRUE(
      relation.concurrent[p1.index() * net.place_count() + p2.index()]);
}

TEST(Order, LoopMembersAreMutuallyBefore) {
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const TransitionId t0 = net.add_transition();
  const TransitionId t1 = net.add_transition();
  net.connect(p0, t0);
  net.connect(t0, p1);
  net.connect(p1, t1);
  net.connect(t1, p0);
  const OrderRelations order(net);
  EXPECT_TRUE(order.in_loop(p0, p1));
  EXPECT_TRUE(order.sequential(p0, p1));
  EXPECT_FALSE(order.parallel(p0, p1));
}

TEST(Invariants, IncidenceMatrix) {
  const Net net = linear3();
  const auto c = incidence_matrix(net);
  // rows = places, cols = transitions
  EXPECT_EQ(c[0][0], -1);
  EXPECT_EQ(c[1][0], 1);
  EXPECT_EQ(c[1][1], -1);
  EXPECT_EQ(c[2][1], 1);
  EXPECT_EQ(c[0][1], 0);
}

TEST(Invariants, LinearNetTokenConservation) {
  const Net net = linear3();
  // The conservation vector (1,1,1) spans the space.
  EXPECT_TRUE(is_p_invariant(net, {1, 1, 1}));
  EXPECT_FALSE(is_p_invariant(net, {1, 2, 1}));
  EXPECT_FALSE(is_p_invariant(net, {0, 0, 0}));
}

TEST(Invariants, ForkJoinWeights) {
  const Net net = forkjoin();
  // p0 + p1 + p3 and p0 + p2 + p3 are invariants; p1 ∥ p2 so their sum
  // needs weight 1/2 — the integer invariant is 2*p0 + p1 + p2 + 2*p3.
  EXPECT_TRUE(is_p_invariant(net, {2, 1, 1, 2}));
  EXPECT_TRUE(is_p_invariant(net, {1, 1, 0, 1}));
  EXPECT_TRUE(is_p_invariant(net, {1, 0, 1, 1}));
}

TEST(Invariants, SemiPositiveCoverCertifiesSafety) {
  EXPECT_TRUE(covered_by_safe_invariants(linear3()));
  EXPECT_TRUE(covered_by_safe_invariants(forkjoin()));
}

TEST(Invariants, TerminatingNetIsCertifiedViaClosure) {
  // A draining transition (empty post-set) destroys token conservation;
  // the certificate must close the net with an idle place and still
  // certify safety.
  Net net = forkjoin();
  const TransitionId drain = net.add_transition("drain");
  net.connect(PlaceId(3), drain);
  EXPECT_TRUE(covered_by_safe_invariants(net));

  // An unsafe terminating net must still be rejected.
  Net bad;
  const PlaceId a = bad.add_place();
  const PlaceId b = bad.add_place();
  const PlaceId sink = bad.add_place();
  const TransitionId ta = bad.add_transition();
  const TransitionId tb = bad.add_transition();
  const TransitionId tdrain = bad.add_transition();
  bad.connect(a, ta);
  bad.connect(ta, sink);
  bad.connect(b, tb);
  bad.connect(tb, sink);
  bad.connect(sink, tdrain);
  bad.set_initial_tokens(a, 1);
  bad.set_initial_tokens(b, 1);
  EXPECT_FALSE(covered_by_safe_invariants(bad));
}

TEST(Invariants, ProducerIsNotCovered) {
  EXPECT_FALSE(covered_by_safe_invariants(producer()));
}

TEST(Invariants, TwoTokenRingNotCertifiedSafe) {
  // A ring with 2 tokens is unsafe at the merged place; the invariant
  // cover test must reject it (initial weighted sum is 2 > 1).
  Net net;
  const PlaceId p0 = net.add_place();
  const PlaceId p1 = net.add_place();
  const TransitionId t0 = net.add_transition();
  const TransitionId t1 = net.add_transition();
  net.connect(p0, t0);
  net.connect(t0, p1);
  net.connect(p1, t1);
  net.connect(t1, p0);
  net.set_initial_tokens(p0, 1);
  net.set_initial_tokens(p1, 1);
  EXPECT_FALSE(covered_by_safe_invariants(net));
}

TEST(Invariants, SemiPositiveSetForForkJoin) {
  const auto invariants = semi_positive_p_invariants(forkjoin());
  ASSERT_FALSE(invariants.empty());
  for (const auto& y : invariants) {
    EXPECT_TRUE(is_p_invariant(forkjoin(), y));
    for (std::int64_t v : y) EXPECT_GE(v, 0);
  }
}

TEST(Export, PnmlIsWellFormed) {
  const Net net = linear3();
  const std::string pnml = to_pnml(net, "demo");
  EXPECT_NE(pnml.find("<?xml version"), std::string::npos);
  EXPECT_NE(pnml.find("<net id=\"demo\""), std::string::npos);
  EXPECT_NE(pnml.find("<place id=\"p0\">"), std::string::npos);
  EXPECT_NE(pnml.find("<initialMarking><text>1</text>"), std::string::npos);
  EXPECT_NE(pnml.find("<transition id=\"t1\">"), std::string::npos);
  EXPECT_NE(pnml.find("source=\"p0\" target=\"t0\""), std::string::npos);
  EXPECT_NE(pnml.find("source=\"t0\" target=\"p1\""), std::string::npos);
  EXPECT_NE(pnml.find("</pnml>"), std::string::npos);
  // Balanced tags (rough check).
  auto count = [&](const std::string& tag) {
    std::size_t n = 0;
    for (std::size_t pos = pnml.find(tag); pos != std::string::npos;
         pos = pnml.find(tag, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("<place"), count("</place>"));
  EXPECT_EQ(count("<transition"), count("</transition>"));
}

TEST(Export, PnmlEscapesNames) {
  Net net;
  net.add_place("a<b&c");
  const std::string pnml = to_pnml(net);
  EXPECT_NE(pnml.find("a&lt;b&amp;c"), std::string::npos);
}

/// Weighted net: assemble consumes 2 parts + the machine, recycle melts a
/// widget back into 2 parts.
Net weighted_assembly() {
  Net net;
  const PlaceId parts = net.add_place("parts");
  const PlaceId machine = net.add_place("machine");
  const PlaceId widgets = net.add_place("widgets");
  const TransitionId assemble = net.add_transition("assemble");
  const TransitionId recycle = net.add_transition("recycle");
  net.connect(parts, assemble, 2);
  net.connect(machine, assemble);
  net.connect(assemble, machine);
  net.connect(assemble, widgets);
  net.connect(widgets, recycle);
  net.connect(recycle, parts, 2);
  net.set_initial_tokens(parts, 4);
  net.set_initial_tokens(machine, 1);
  return net;
}

TEST(Net, WeightedArcs) {
  const Net net = weighted_assembly();
  EXPECT_FALSE(net.is_ordinary());
  EXPECT_TRUE(linear3().is_ordinary());
  EXPECT_EQ(net.arc_weight(PlaceId(0), TransitionId(0)), 2u);
  EXPECT_EQ(net.arc_weight(PlaceId(1), TransitionId(0)), 1u);
  EXPECT_EQ(net.arc_weight(PlaceId(2), TransitionId(0)), 0u);
  EXPECT_EQ(net.arc_weight(TransitionId(1), PlaceId(0)), 2u);
  // Weight-w arcs appear as w multiset entries.
  EXPECT_EQ(net.pre(TransitionId(0)).size(), 3u);
}

TEST(Net, WeightedConnectRejectsZeroAndDuplicates) {
  Net net;
  const PlaceId p = net.add_place();
  const TransitionId t = net.add_transition();
  EXPECT_THROW(net.connect(p, t, 0), ModelError);
  EXPECT_THROW(net.connect(t, p, 0), ModelError);
  net.connect(p, t, 3);
  EXPECT_THROW(net.connect(p, t), ModelError);
  EXPECT_THROW(net.connect(p, t, 2), ModelError);
}

TEST(Exec, WeightedEnablingNeedsMultiplicity) {
  const Net net = weighted_assembly();
  Marking m(net.place_count());
  m.set_tokens(PlaceId(0), 1);  // one part: not enough for assemble
  m.set_tokens(PlaceId(1), 1);
  EXPECT_FALSE(is_enabled(net, m, TransitionId(0)));
  m.set_tokens(PlaceId(0), 2);
  EXPECT_TRUE(is_enabled(net, m, TransitionId(0)));
  const Marking next = fire(net, m, TransitionId(0));
  EXPECT_EQ(next.tokens(PlaceId(0)), 0u);
  EXPECT_EQ(next.tokens(PlaceId(1)), 1u);
  EXPECT_EQ(next.tokens(PlaceId(2)), 1u);
}

TEST(Exec, WeightedStateSpaceMatchesHandCount) {
  // parts + 2*widgets = 4 is invariant, machine stays 1: exactly three
  // reachable markings, no deadlock, never terminating, unsafe (4 > 1).
  const ReachabilityResult r = explore(weighted_assembly());
  EXPECT_TRUE(r.complete);
  EXPECT_EQ(r.marking_count, 3u);
  EXPECT_FALSE(r.safe);
  EXPECT_TRUE(r.bounded);
  EXPECT_FALSE(r.deadlock);
  EXPECT_FALSE(r.can_terminate);
}

TEST(Invariants, WeightedIncidenceAccumulates) {
  const Net net = weighted_assembly();
  const auto c = incidence_matrix(net);
  EXPECT_EQ(c[0][0], -2);  // assemble takes 2 parts
  EXPECT_EQ(c[1][0], 0);   // machine is consumed and reproduced
  EXPECT_EQ(c[2][0], 1);
  EXPECT_EQ(c[0][1], 2);   // recycle yields 2 parts
  // parts + 2*widgets is the conservation law.
  EXPECT_TRUE(is_p_invariant(net, {1, 0, 2}));
}

TEST(Export, PnmlWeightedArcGetsInscription) {
  const std::string pnml = to_pnml(weighted_assembly());
  EXPECT_NE(pnml.find("<inscription><text>2</text></inscription>"),
            std::string::npos);
  // One collapsed arc per (source, target), not duplicate entries.
  std::size_t arcs = 0;
  for (std::size_t pos = pnml.find("<arc "); pos != std::string::npos;
       pos = pnml.find("<arc ", pos + 1)) {
    ++arcs;
  }
  EXPECT_EQ(arcs, 6u);
}

TEST(Pnml, RoundTripFixtures) {
  for (const Net& net :
       {linear3(), forkjoin(), producer(), weighted_assembly()}) {
    const std::string pnml = to_pnml(net, "fixture");
    const PnmlImport imported = from_pnml(pnml);
    EXPECT_EQ(imported.net_id, "fixture");
    EXPECT_TRUE(same_structure(imported.net, net));
    // Bit-exact string fixpoint.
    EXPECT_EQ(to_pnml(imported.net, "fixture"), pnml);
  }
}

TEST(Pnml, RoundTripEscapedNames) {
  Net net;
  const PlaceId p = net.add_place("a<b&c \"quoted\"");
  const TransitionId t = net.add_transition("t>u&#38;");
  net.connect(p, t);
  net.set_initial_tokens(p, 1);
  const PnmlImport imported = from_pnml(to_pnml(net));
  EXPECT_TRUE(same_structure(imported.net, net));
  EXPECT_EQ(imported.net.name(PlaceId(0)), "a<b&c \"quoted\"");
}

TEST(Pnml, AcceptsDuplicateArcSpelling) {
  // Pre-inscription spelling: a weight-2 arc written as two plain arcs.
  const char* text = R"(<?xml version="1.0"?>
<pnml><net id="dup"><page id="g">
  <place id="p"><initialMarking><text>2</text></initialMarking></place>
  <transition id="t"/>
  <arc id="a0" source="p" target="t"/>
  <arc id="a1" source="p" target="t"/>
</page></net></pnml>)";
  const PnmlImport imported = from_pnml(text);
  EXPECT_EQ(imported.net.arc_weight(PlaceId(0), TransitionId(0)), 2u);
  EXPECT_FALSE(imported.net.is_ordinary());
}

TEST(Pnml, AcceptsMixedDuplicateAndInscription) {
  const char* text = R"(<pnml><net id="m"><page id="g">
  <place id="p"/><transition id="t"/>
  <arc id="a0" source="p" target="t">
    <inscription><text>2</text></inscription>
  </arc>
  <arc id="a1" source="p" target="t"/>
</page></net></pnml>)";
  EXPECT_EQ(from_pnml(text).net.arc_weight(PlaceId(0), TransitionId(0)), 3u);
}

TEST(Pnml, NodesDirectlyUnderNetAndNestedPages) {
  const char* text = R"(<pnml xmlns="http://www.pnml.org/version-2009/grammar/pnml">
<net id="nested" type="http://www.pnml.org/version-2009/grammar/ptnet">
  <place id="p0"><name><text>root</text></name>
    <initialMarking><text>1</text></initialMarking></place>
  <page id="outer">
    <transition id="t0"/>
    <page id="inner"><place id="p1"/></page>
  </page>
  <arc id="a0" source="p0" target="t0"/>
  <arc id="a1" source="t0" target="p1"/>
</net></pnml>)";
  const PnmlImport imported = from_pnml(text);
  EXPECT_EQ(imported.net.place_count(), 2u);
  EXPECT_EQ(imported.net.transition_count(), 1u);
  EXPECT_EQ(imported.net.name(PlaceId(0)), "root");
  EXPECT_EQ(imported.net.initial_tokens(PlaceId(0)), 1u);
  EXPECT_EQ(imported.net.pre(TransitionId(0)).size(), 1u);
}

TEST(Pnml, IgnoresUnknownElementsAndComments) {
  const char* text = R"(<?xml version="1.0"?><!-- header -->
<pnml><net id="x"><page id="g">
  <place id="p"><graphics><position x="3" y="4"/></graphics>
    <toolspecific tool="petrify" version="1"><data>junk</data></toolspecific>
  </place>
  <transition id="t"/><arc id="a" source="p" target="t"/>
  <unknownElement attr="1"><nested/></unknownElement>
</page></net></pnml>)";
  EXPECT_EQ(from_pnml(text).net.place_count(), 1u);
}

TEST(Pnml, StructuredErrors) {
  // Missing id.
  EXPECT_THROW(from_pnml("<pnml><net id=\"n\"><place/></net></pnml>"),
               ParseError);
  // Duplicate id.
  EXPECT_THROW(
      from_pnml("<pnml><net id=\"n\"><place id=\"p\"/><transition id=\"p\"/>"
                "</net></pnml>"),
      ParseError);
  // Dangling arc endpoint.
  EXPECT_THROW(
      from_pnml("<pnml><net id=\"n\"><place id=\"p\"/>"
                "<arc id=\"a\" source=\"p\" target=\"ghost\"/></net></pnml>"),
      ParseError);
  // Place-to-place arc.
  EXPECT_THROW(
      from_pnml("<pnml><net id=\"n\"><place id=\"p\"/><place id=\"q\"/>"
                "<arc id=\"a\" source=\"p\" target=\"q\"/></net></pnml>"),
      ParseError);
  // Oversized weight.
  EXPECT_THROW(
      from_pnml("<pnml><net id=\"n\"><place id=\"p\"/><transition id=\"t\"/>"
                "<arc id=\"a\" source=\"p\" target=\"t\">"
                "<inscription><text>1000000</text></inscription>"
                "</arc></net></pnml>"),
      ParseError);
  // Reference nodes are outside the P/T fragment.
  EXPECT_THROW(
      from_pnml("<pnml><net id=\"n\"><referencePlace id=\"r\" ref=\"p\"/>"
                "</net></pnml>"),
      ParseError);
  // Truncated document.
  EXPECT_THROW(from_pnml("<pnml><net id=\"n\"><place id=\"p\""), ParseError);
  // No net at all.
  EXPECT_THROW(from_pnml("<pnml></pnml>"), ParseError);
  EXPECT_THROW(from_pnml("<html></html>"), ParseError);
}

TEST(Pnml, ErrorsCarryPosition) {
  try {
    from_pnml("<pnml>\n<net id=\"n\">\n  <place/>\n</net></pnml>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_GT(e.column(), 0);
  }
}

/// Round-trips every named design in designs/ (BDL compiled, saved .sys
/// loaded, corpus .pnml imported) through to_pnml/from_pnml.
TEST(Pnml, RoundTripNamedDesigns) {
  const std::filesystem::path designs(CAMAD_DESIGNS_DIR);
  ASSERT_TRUE(std::filesystem::exists(designs));
  std::size_t covered = 0;
  const auto read_file = [](const std::filesystem::path& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const auto roundtrip = [&](const Net& net, const std::string& label) {
    const std::string pnml = to_pnml(net, label);
    const PnmlImport imported = from_pnml(pnml);
    EXPECT_TRUE(same_structure(imported.net, net)) << label;
    EXPECT_EQ(to_pnml(imported.net, label), pnml) << label;
    ++covered;
  };
  for (const auto& entry : std::filesystem::directory_iterator(designs)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    const std::string label = entry.path().stem().string();
    if (ext == ".bdl") {
      roundtrip(synth::compile_source(read_file(entry.path())).control().net(),
                label);
    } else if (ext == ".sys") {
      roundtrip(dcf::load_system(read_file(entry.path())).control().net(),
                label);
    }
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(designs / "pnml")) {
    if (entry.path().extension() != ".pnml") continue;
    roundtrip(from_pnml(read_file(entry.path())).net,
              entry.path().stem().string());
  }
  EXPECT_GE(covered, 10u);  // 8 designs + >= 6 corpus instances
}

/// 500-seed generator sweep (4 shards x 125): from_pnml(to_pnml(net))
/// must reproduce the control net bit-exactly.
class PnmlRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(PnmlRoundTripSweep, GeneratedControlNets) {
  const int shard = GetParam();
  for (int i = 0; i < 125; ++i) {
    const std::uint64_t seed = static_cast<std::uint64_t>(shard * 125 + i);
    const dcf::System system = gen::random_system(seed);
    const Net& net = system.control().net();
    const std::string pnml = to_pnml(net, system.name());
    const PnmlImport imported = from_pnml(pnml);
    ASSERT_TRUE(same_structure(imported.net, net)) << "seed " << seed;
    ASSERT_EQ(to_pnml(imported.net, system.name()), pnml) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PnmlRoundTripSweep, ::testing::Range(0, 4));

}  // namespace
}  // namespace camad::petri
