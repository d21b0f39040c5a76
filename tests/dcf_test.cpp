#include <gtest/gtest.h>

#include "dcf/builder.h"
#include "dcf/datapath.h"
#include "dcf/export.h"
#include "dcf/io.h"
#include "dcf/ops.h"
#include "dcf/system.h"
#include "dcf/value.h"
#include "fixtures.h"
#include "util/error.h"

namespace camad::dcf {
namespace {

TEST(Value, UndefinedByDefault) {
  Value v;
  EXPECT_FALSE(v.defined());
  EXPECT_FALSE(v.truthy());
  EXPECT_EQ(v, Value::undef());
}

TEST(Value, DefinedSemantics) {
  Value v(42);
  EXPECT_TRUE(v.defined());
  EXPECT_EQ(v.raw(), 42);
  EXPECT_TRUE(v.truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_TRUE(Value(-1).truthy());
  EXPECT_NE(Value(0), Value::undef());
}

TEST(Ops, ArityAndClassification) {
  EXPECT_EQ(op_arity(OpCode::kAdd), 2);
  EXPECT_EQ(op_arity(OpCode::kNeg), 1);
  EXPECT_EQ(op_arity(OpCode::kMux), 3);
  EXPECT_EQ(op_arity(OpCode::kConst), 0);
  EXPECT_TRUE(op_is_sequential(OpCode::kReg));
  EXPECT_TRUE(op_is_sequential(OpCode::kInput));
  EXPECT_FALSE(op_is_sequential(OpCode::kAdd));
}

TEST(Ops, NameRoundTrip) {
  for (OpCode code : {OpCode::kAdd, OpCode::kSub, OpCode::kMul, OpCode::kDiv,
                      OpCode::kMod, OpCode::kNeg, OpCode::kAnd, OpCode::kOr,
                      OpCode::kXor, OpCode::kNot, OpCode::kShl, OpCode::kShr,
                      OpCode::kEq, OpCode::kNe, OpCode::kLt, OpCode::kLe,
                      OpCode::kGt, OpCode::kGe, OpCode::kMux, OpCode::kPass,
                      OpCode::kConst, OpCode::kReg, OpCode::kInput}) {
    EXPECT_EQ(op_from_name(op_name(code)), code);
  }
  EXPECT_THROW(op_from_name("bogus"), ModelError);
}

struct EvalCase {
  OpCode code;
  std::vector<Value> inputs;
  Value expected;
};

// gtest (and so ctest, via gtest_discover_tests) names each case by its
// printed parameter. Without this it dumps the struct's raw bytes, which
// hold heap pointers and padding, so the names changed on every run.
void PrintTo(const EvalCase& c, std::ostream* os) {
  const auto value = [](Value v) {
    return v.defined() ? std::to_string(v.raw()) : std::string("undef");
  };
  *os << op_name(c.code) << '(';
  for (std::size_t i = 0; i < c.inputs.size(); ++i) {
    *os << (i ? "," : "") << value(c.inputs[i]);
  }
  *os << ")=" << value(c.expected);
}

class OpEval : public ::testing::TestWithParam<EvalCase> {};

TEST_P(OpEval, Evaluates) {
  const EvalCase& c = GetParam();
  EXPECT_EQ(evaluate_op(Operation{c.code, 0}, c.inputs), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Arithmetic, OpEval,
    ::testing::Values(
        EvalCase{OpCode::kAdd, {2, 3}, 5}, EvalCase{OpCode::kSub, {2, 3}, -1},
        EvalCase{OpCode::kMul, {4, -3}, -12},
        EvalCase{OpCode::kDiv, {7, 2}, 3}, EvalCase{OpCode::kMod, {7, 2}, 1},
        EvalCase{OpCode::kDiv, {7, 0}, Value::undef()},
        EvalCase{OpCode::kMod, {7, 0}, Value::undef()},
        EvalCase{OpCode::kNeg, {5}, -5},
        EvalCase{OpCode::kAnd, {6, 3}, 2}, EvalCase{OpCode::kOr, {6, 3}, 7},
        EvalCase{OpCode::kXor, {6, 3}, 5},
        EvalCase{OpCode::kNot, {0}, 1}, EvalCase{OpCode::kNot, {7}, 0},
        EvalCase{OpCode::kShl, {1, 4}, 16},
        EvalCase{OpCode::kShr, {16, 4}, 1},
        EvalCase{OpCode::kShl, {1, 64}, Value::undef()},
        EvalCase{OpCode::kShl, {1, -1}, Value::undef()}));

INSTANTIATE_TEST_SUITE_P(
    Comparisons, OpEval,
    ::testing::Values(
        EvalCase{OpCode::kEq, {3, 3}, 1}, EvalCase{OpCode::kEq, {3, 4}, 0},
        EvalCase{OpCode::kNe, {3, 4}, 1}, EvalCase{OpCode::kLt, {3, 4}, 1},
        EvalCase{OpCode::kLe, {4, 4}, 1}, EvalCase{OpCode::kGt, {5, 4}, 1},
        EvalCase{OpCode::kGe, {3, 4}, 0},
        EvalCase{OpCode::kMux, {1, 10, 20}, 10},
        EvalCase{OpCode::kMux, {0, 10, 20}, 20},
        EvalCase{OpCode::kPass, {9}, 9}));

INSTANTIATE_TEST_SUITE_P(
    UndefinedPropagation, OpEval,
    ::testing::Values(
        EvalCase{OpCode::kAdd, {Value::undef(), 3}, Value::undef()},
        EvalCase{OpCode::kAdd, {3, Value::undef()}, Value::undef()},
        EvalCase{OpCode::kMux, {Value::undef(), 1, 2}, Value::undef()},
        EvalCase{OpCode::kNot, {Value::undef()}, Value::undef()}));

TEST(Ops, ConstIgnoresInputsAndUsesImmediate) {
  EXPECT_EQ(evaluate_op(Operation{OpCode::kConst, 77}, {}), Value(77));
}

TEST(Ops, WrapAroundArithmetic) {
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::vector<Value> add_in{Value(max), Value(1)};
  EXPECT_EQ(evaluate_op(Operation{OpCode::kAdd, 0}, add_in),
            Value(std::numeric_limits<std::int64_t>::min()));
  const std::vector<Value> div_in{
      Value(std::numeric_limits<std::int64_t>::min()), Value(-1)};
  EXPECT_EQ(evaluate_op(Operation{OpCode::kDiv, 0}, div_in),
            Value(std::numeric_limits<std::int64_t>::min()));
}

TEST(Ops, SequentialOpsHaveNoCombEvaluation) {
  const std::vector<Value> one{Value(1)};
  EXPECT_THROW(evaluate_op(Operation{OpCode::kReg, 0}, one), ModelError);
  EXPECT_THROW(evaluate_op(Operation{OpCode::kInput, 0}, {}), ModelError);
}

TEST(Ops, ArityMismatchThrows) {
  const std::vector<Value> one{Value(1)};
  EXPECT_THROW(evaluate_op(Operation{OpCode::kAdd, 0}, one), ModelError);
}

TEST(DataPath, FactoriesProduceExpectedShapes) {
  DataPath dp;
  const VertexId x = dp.add_input("x");
  const VertexId y = dp.add_output("y");
  const VertexId r = dp.add_register("r");
  const VertexId a = dp.add_unit("a", OpCode::kAdd);
  const VertexId c = dp.add_constant("c", 5);

  EXPECT_EQ(dp.kind(x), VertexKind::kInput);
  EXPECT_EQ(dp.output_ports(x).size(), 1u);
  EXPECT_TRUE(dp.input_ports(x).empty());
  EXPECT_EQ(dp.operation(dp.the_output_port(x)).code, OpCode::kInput);

  EXPECT_EQ(dp.kind(y), VertexKind::kOutput);
  EXPECT_EQ(dp.input_ports(y).size(), 1u);

  EXPECT_EQ(dp.input_ports(r).size(), 1u);
  EXPECT_EQ(dp.operation(dp.output_ports(r)[0]).code, OpCode::kReg);
  EXPECT_TRUE(dp.is_sequential_vertex(r));
  EXPECT_TRUE(dp.is_sequential_vertex(x));
  EXPECT_TRUE(dp.is_sequential_vertex(y));
  EXPECT_FALSE(dp.is_sequential_vertex(a));

  EXPECT_EQ(dp.input_ports(a).size(), 2u);
  EXPECT_EQ(dp.operation(dp.output_ports(c)[0]).immediate, 5);
  dp.validate();
}

TEST(DataPath, UnitFactoryRejectsSpecialOps) {
  DataPath dp;
  EXPECT_THROW(dp.add_unit("r", OpCode::kReg), ModelError);
  EXPECT_THROW(dp.add_unit("c", OpCode::kConst), ModelError);
}

TEST(DataPath, ArcEndpointDirectionsEnforced) {
  DataPath dp;
  const VertexId r1 = dp.add_register("r1");
  const VertexId r2 = dp.add_register("r2");
  const PortId out1 = dp.output_ports(r1)[0];
  const PortId in2 = dp.input_ports(r2)[0];
  const ArcId arc = dp.add_arc(out1, in2);
  EXPECT_EQ(dp.arc_source_vertex(arc), r1);
  EXPECT_EQ(dp.arc_target_vertex(arc), r2);
  EXPECT_THROW(dp.add_arc(in2, out1), ModelError);
  EXPECT_THROW(dp.add_arc(out1, out1), ModelError);
}

TEST(DataPath, ExternalArcs) {
  DataPath dp;
  const VertexId x = dp.add_input("x");
  const VertexId r = dp.add_register("r");
  const VertexId y = dp.add_output("y");
  const ArcId a1 = dp.add_arc(dp.the_output_port(x), dp.input_ports(r)[0]);
  const ArcId a2 = dp.add_arc(dp.output_ports(r)[0], dp.input_ports(y)[0]);
  EXPECT_TRUE(dp.is_external_arc(a1));
  EXPECT_TRUE(dp.is_external_arc(a2));
  EXPECT_EQ(dp.external_arcs().size(), 2u);

  const VertexId r2 = dp.add_register("r2");
  const ArcId a3 = dp.add_arc(dp.output_ports(r)[0], dp.input_ports(r2)[0]);
  EXPECT_FALSE(dp.is_external_arc(a3));
}

TEST(DataPath, FindVertexByName) {
  DataPath dp;
  dp.add_register("alpha");
  dp.add_register("beta");
  EXPECT_EQ(dp.find_vertex("beta").value(), 1u);
  EXPECT_FALSE(dp.find_vertex("gamma").valid());
}

TEST(DataPath, ValidateCatchesMalformedExternals) {
  DataPath dp;
  const VertexId v = dp.add_vertex("bad", VertexKind::kInput);
  EXPECT_THROW(dp.validate(), ModelError);
  dp.add_output_port(v, Operation{OpCode::kInput, 0});
  dp.validate();
  dp.add_input_port(v);
  EXPECT_THROW(dp.validate(), ModelError);
}

TEST(System, DerivedSetsOnGcd) {
  const System sys = test::make_gcd();
  const auto& net = sys.control().net();
  // Find states by name.
  auto state = [&](const std::string& name) {
    for (petri::PlaceId p : net.places()) {
      if (net.name(p) == name) return p;
    }
    ADD_FAILURE() << "no state " << name;
    return petri::PlaceId();
  };
  const auto s_load = state("Sload");
  const auto s_test = state("Stest");
  const auto s_sub_a = state("SsubA");
  const auto s_out = state("Sout");

  auto names = [&](const std::vector<VertexId>& vs) {
    std::vector<std::string> out;
    for (VertexId v : vs) out.push_back(sys.datapath().name(v));
    std::sort(out.begin(), out.end());
    return out;
  };

  EXPECT_EQ(names(sys.result_set(s_load)),
            (std::vector<std::string>{"ra", "rb"}));
  EXPECT_EQ(names(sys.result_set(s_test)),
            (std::vector<std::string>{"rflag"}));
  EXPECT_EQ(names(sys.codomain(s_test)),
            (std::vector<std::string>{"cmp", "rflag"}));
  EXPECT_EQ(names(sys.domain(s_sub_a)),
            (std::vector<std::string>{"ra", "rb", "subA"}));
  EXPECT_EQ(names(sys.result_set(s_sub_a)), (std::vector<std::string>{"ra"}));
  EXPECT_TRUE(sys.touches_environment(s_load));
  EXPECT_TRUE(sys.touches_environment(s_out));
  EXPECT_FALSE(sys.touches_environment(s_test));
}

TEST(System, ValidateCatchesBadGuardPort) {
  test::make_gcd();  // sanity: fixture validates
  dcf::SystemBuilder b;
  const auto r = b.reg("r");
  const auto x = b.input("x");
  const auto s = b.state("S", true);
  b.connect(x, r, 0, {s});
  const auto t = b.transition("T");
  b.flow(s, t);
  b.guard(t, b.in(r));  // input port as guard: invalid
  EXPECT_THROW(b.build(), ModelError);
}

TEST(SystemIo, RoundTripPreservesEverything) {
  const System original = test::make_gcd();
  const std::string text = save_system(original);
  const System loaded = load_system(text);

  EXPECT_EQ(loaded.name(), original.name());
  EXPECT_EQ(save_system(loaded), text);  // canonical fixed point

  const auto& dp0 = original.datapath();
  const auto& dp1 = loaded.datapath();
  ASSERT_EQ(dp1.vertex_count(), dp0.vertex_count());
  ASSERT_EQ(dp1.port_count(), dp0.port_count());
  ASSERT_EQ(dp1.arc_count(), dp0.arc_count());
  for (VertexId v : dp0.vertices()) {
    EXPECT_EQ(dp1.name(v), dp0.name(v));
    EXPECT_EQ(dp1.kind(v), dp0.kind(v));
  }
  const auto& net0 = original.control().net();
  const auto& net1 = loaded.control().net();
  ASSERT_EQ(net1.place_count(), net0.place_count());
  ASSERT_EQ(net1.transition_count(), net0.transition_count());
  for (petri::PlaceId p : net0.places()) {
    EXPECT_EQ(net1.initial_tokens(p), net0.initial_tokens(p));
    EXPECT_EQ(loaded.control().controlled_arcs(p),
              original.control().controlled_arcs(p));
  }
  for (petri::TransitionId t : net0.transitions()) {
    EXPECT_EQ(loaded.control().guards(t), original.control().guards(t));
  }
}

TEST(SystemIo, RejectsGarbage) {
  EXPECT_THROW(load_system("not a system"), ParseError);
  EXPECT_THROW(load_system("camad-system v1\nname x\n"), ParseError);
  EXPECT_THROW(load_system("camad-system v1\nwhatsit 3\nend\n"), ParseError);
  EXPECT_THROW(load_system("camad-system v1\nport in 9 p\nend\n"), ParseError);
  EXPECT_THROW(load_system("camad-system v1\narc 0 1\nend\n"), ParseError);
}

TEST(Export, SystemDotMentionsEverything) {
  const System sys = test::make_gcd();
  const std::string dot = system_to_dot(sys);
  EXPECT_NE(dot.find("cluster_datapath"), std::string::npos);
  EXPECT_NE(dot.find("cluster_control"), std::string::npos);
  EXPECT_NE(dot.find("Stest"), std::string::npos);
  EXPECT_NE(dot.find("[in]"), std::string::npos);
  EXPECT_NE(dot.find("subA"), std::string::npos);
}

}  // namespace
}  // namespace camad::dcf
