// Bit-blaster correctness: every word-level operation's CNF encoding is
// checked for functional equivalence against ir::EvalScalarOp — exhaustively
// at small widths, and randomized at larger widths (differential testing via
// SAT model enumeration would be slow; instead we constrain inputs to
// concrete values and check the encoded output bits propagate to the right
// constants).
#include <gtest/gtest.h>

#include "bitblast/bitblaster.h"
#include "ir/eval.h"
#include "sat/solver.h"
#include "support/rng.h"

namespace aqed::bitblast {
namespace {

using ir::Op;

// Fixture: asserts concrete values onto fresh literal vectors, applies the
// encoded op, solves, and reads back the output value.
class BlastHarness {
 public:
  BlastHarness() : gates_(solver_), blaster_(gates_) {}

  Bits InputWithValue(uint32_t width, uint64_t value) {
    Bits bits = blaster_.Fresh(width);
    for (uint32_t i = 0; i < width; ++i) {
      gates_.Assert(GetBit(value, i) ? bits[i] : ~bits[i]);
    }
    return bits;
  }

  uint64_t Eval(const Bits& bits) {
    EXPECT_EQ(solver_.Solve(), sat::SolveResult::kSat);
    uint64_t value = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      const sat::LBool model = solver_.ModelValue(bits[i]);
      if (model == sat::LBool::kTrue) value |= uint64_t{1} << i;
    }
    return value;
  }

  BitBlaster& blaster() { return blaster_; }

 private:
  sat::Solver solver_;
  GateBuilder gates_;
  BitBlaster blaster_;
};

uint64_t Golden(Op op, uint32_t out_width, uint64_t a, uint32_t wa,
                uint64_t b, uint32_t wb, uint32_t aux0 = 0,
                uint32_t aux1 = 0) {
  const uint64_t vals[] = {a, b};
  const uint32_t widths[] = {wa, wb};
  return ir::EvalScalarOp(op, out_width, std::span(vals, 2),
                          std::span(widths, 2), aux0, aux1);
}

struct BinOpCase {
  Op op;
  const char* name;
  bool compare;  // 1-bit result
};

// gtest lists each case as "# GetParam() = <printed value>", and ctest takes
// that listing into the test name. Without a printer gtest dumps the raw
// bytes, padding and the name pointer included, so the name changed from one
// listing to the next.
void PrintTo(const BinOpCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

class BinaryOpExhaustiveTest : public ::testing::TestWithParam<BinOpCase> {};

// Exhaustive over both operands at width 3.
TEST_P(BinaryOpExhaustiveTest, Width3MatchesSemantics) {
  const BinOpCase& test_case = GetParam();
  constexpr uint32_t w = 3;
  for (uint64_t a = 0; a < 8; ++a) {
    for (uint64_t b = 0; b < 8; ++b) {
      BlastHarness harness;
      const Bits ba = harness.InputWithValue(w, a);
      const Bits bb = harness.InputWithValue(w, b);
      const Bits out = harness.blaster().EvalScalarOp(
          test_case.op, test_case.compare ? 1 : w, std::array<Bits, 2>{ba, bb},
          0, 0);
      const uint64_t expected =
          Golden(test_case.op, test_case.compare ? 1 : w, a, w, b, w);
      ASSERT_EQ(harness.Eval(out), expected)
          << test_case.name << "(" << a << ", " << b << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinaryOpExhaustiveTest,
    ::testing::Values(BinOpCase{Op::kAnd, "and", false},
                      BinOpCase{Op::kOr, "or", false},
                      BinOpCase{Op::kXor, "xor", false},
                      BinOpCase{Op::kAdd, "add", false},
                      BinOpCase{Op::kSub, "sub", false},
                      BinOpCase{Op::kMul, "mul", false},
                      BinOpCase{Op::kUdiv, "udiv", false},
                      BinOpCase{Op::kUrem, "urem", false},
                      BinOpCase{Op::kEq, "eq", true},
                      BinOpCase{Op::kNe, "ne", true},
                      BinOpCase{Op::kUlt, "ult", true},
                      BinOpCase{Op::kUle, "ule", true},
                      BinOpCase{Op::kSlt, "slt", true},
                      BinOpCase{Op::kSle, "sle", true},
                      BinOpCase{Op::kShl, "shl", false},
                      BinOpCase{Op::kLshr, "lshr", false},
                      BinOpCase{Op::kAshr, "ashr", false}),
    [](const auto& info) { return std::string(info.param.name); });

class BinaryOpRandomTest : public ::testing::TestWithParam<BinOpCase> {};

// Randomized at widths 8 and 13 (non-power-of-two).
TEST_P(BinaryOpRandomTest, WiderWidthsMatchSemantics) {
  const BinOpCase& test_case = GetParam();
  Rng rng(0xC0FFEE ^ static_cast<uint64_t>(test_case.op));
  for (uint32_t w : {8u, 13u}) {
    for (int round = 0; round < 24; ++round) {
      const uint64_t a = rng.NextBits(w);
      // Bias shift amounts small so in-range shifts get exercised too.
      uint64_t b = rng.NextBits(w);
      if (round % 2 == 0) b = rng.NextBelow(w + 2);
      BlastHarness harness;
      const Bits ba = harness.InputWithValue(w, a);
      const Bits bb = harness.InputWithValue(w, b);
      const uint32_t out_w = test_case.compare ? 1 : w;
      const Bits out = harness.blaster().EvalScalarOp(
          test_case.op, out_w, std::array<Bits, 2>{ba, bb}, 0, 0);
      ASSERT_EQ(harness.Eval(out), Golden(test_case.op, out_w, a, w, b, w))
          << test_case.name << "(" << a << ", " << b << ") width " << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, BinaryOpRandomTest,
    ::testing::Values(BinOpCase{Op::kAdd, "add", false},
                      BinOpCase{Op::kSub, "sub", false},
                      BinOpCase{Op::kMul, "mul", false},
                      BinOpCase{Op::kUdiv, "udiv", false},
                      BinOpCase{Op::kUrem, "urem", false},
                      BinOpCase{Op::kUlt, "ult", true},
                      BinOpCase{Op::kSlt, "slt", true},
                      BinOpCase{Op::kShl, "shl", false},
                      BinOpCase{Op::kLshr, "lshr", false},
                      BinOpCase{Op::kAshr, "ashr", false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(UnaryOpsTest, NotNegExtractExtendExhaustive) {
  constexpr uint32_t w = 4;
  for (uint64_t a = 0; a < 16; ++a) {
    BlastHarness harness;
    const Bits ba = harness.InputWithValue(w, a);
    EXPECT_EQ(harness.Eval(harness.blaster().Not(ba)), Truncate(~a, w));
    EXPECT_EQ(harness.Eval(harness.blaster().Neg(ba)), Truncate(-a, w));
    EXPECT_EQ(harness.Eval(harness.blaster().Extract(ba, 2, 1)),
              (a >> 1) & 3);
    EXPECT_EQ(harness.Eval(harness.blaster().Zext(ba, 7)), a);
    EXPECT_EQ(harness.Eval(harness.blaster().Sext(ba, 7)),
              Truncate(static_cast<uint64_t>(SignExtend(a, w)), 7));
  }
}

TEST(StructureOpsTest, ConcatAndIte) {
  BlastHarness harness;
  const Bits hi = harness.InputWithValue(3, 0b101);
  const Bits lo = harness.InputWithValue(2, 0b10);
  EXPECT_EQ(harness.Eval(harness.blaster().Concat(hi, lo)), 0b10110u);

  const Bits sel_true = harness.InputWithValue(1, 1);
  const Bits a = harness.InputWithValue(4, 9);
  const Bits b = harness.InputWithValue(4, 4);
  EXPECT_EQ(harness.Eval(harness.blaster().Ite(sel_true[0], a, b)), 9u);
  EXPECT_EQ(harness.Eval(harness.blaster().Ite(~sel_true[0], a, b)), 4u);
}

TEST(ArrayOpsTest, WriteThenReadBack) {
  BlastHarness harness;
  auto& blaster = harness.blaster();
  ArrayBits array = blaster.ConstantArray(2, 8, 0x11);
  const Bits index = harness.InputWithValue(2, 2);
  const Bits value = harness.InputWithValue(8, 0xAB);
  array = blaster.Write(array, index, value);
  // Read back every slot.
  for (uint64_t i = 0; i < 4; ++i) {
    const Bits addr = harness.InputWithValue(2, i);
    const uint64_t expected = i == 2 ? 0xAB : 0x11;
    EXPECT_EQ(harness.Eval(blaster.Read(array, addr)), expected) << i;
  }
}

TEST(ArrayOpsTest, SymbolicIndexReadIsExact) {
  // With a symbolic index constrained to 3, the read must select slot 3.
  sat::Solver solver;
  GateBuilder gates(solver);
  BitBlaster blaster(gates);
  ArrayBits array = blaster.ConstantArray(2, 4, 0);
  for (uint64_t i = 0; i < 4; ++i) {
    Bits idx = blaster.Constant(2, i);
    array = blaster.Write(array, idx, blaster.Constant(4, i + 5));
  }
  Bits index = blaster.Fresh(2);
  Bits out = blaster.Read(array, index);
  // Constrain out == 8 and check the model's index is 3.
  gates.Assert(gates.Xnor(out[0], gates.False()));
  gates.Assert(gates.Xnor(out[1], gates.False()));
  gates.Assert(gates.Xnor(out[2], gates.False()));
  gates.Assert(gates.Xnor(out[3], gates.True()));
  ASSERT_EQ(solver.Solve(), sat::SolveResult::kSat);
  uint64_t idx_val = 0;
  for (int i = 0; i < 2; ++i) {
    if (solver.ModelValue(index[i]) == sat::LBool::kTrue) idx_val |= 1u << i;
  }
  EXPECT_EQ(idx_val, 3u);
}

TEST(GateBuilderTest, ConstantFoldingAndHashConsing) {
  sat::Solver solver;
  GateBuilder gates(solver);
  const sat::Lit a = gates.Fresh();
  const sat::Lit b = gates.Fresh();
  EXPECT_EQ(gates.And(gates.False(), a), gates.False());
  EXPECT_EQ(gates.And(gates.True(), a), a);
  EXPECT_EQ(gates.And(a, a), a);
  EXPECT_EQ(gates.And(a, ~a), gates.False());
  EXPECT_EQ(gates.Or(a, gates.True()), gates.True());
  EXPECT_EQ(gates.Xor(a, gates.False()), a);
  EXPECT_EQ(gates.Xor(a, a), gates.False());
  EXPECT_EQ(gates.Xor(a, ~a), gates.True());
  // Hash consing: same gate twice, one variable.
  const uint64_t gates_before = gates.num_gates();
  const sat::Lit g1 = gates.And(a, b);
  const sat::Lit g2 = gates.And(b, a);  // commutative normalization
  EXPECT_EQ(g1, g2);
  EXPECT_EQ(gates.num_gates(), gates_before + 1);
  // Xor polarity normalization shares the gate.
  const sat::Lit x1 = gates.Xor(a, b);
  const sat::Lit x2 = gates.Xor(~a, b);
  EXPECT_EQ(x1, ~x2);
}

TEST(GateBuilderTest, MuxSpecialCases) {
  sat::Solver solver;
  GateBuilder gates(solver);
  const sat::Lit s = gates.Fresh();
  const sat::Lit t = gates.Fresh();
  EXPECT_EQ(gates.Mux(gates.True(), t, s), t);
  EXPECT_EQ(gates.Mux(gates.False(), t, s), s);
  EXPECT_EQ(gates.Mux(s, t, t), t);
  // Exhaustive truth-table check of the hashed mux gate.
  const sat::Lit e = gates.Fresh();
  const sat::Lit out = gates.Mux(s, t, e);
  for (int sv = 0; sv < 2; ++sv) {
    for (int tv = 0; tv < 2; ++tv) {
      for (int ev = 0; ev < 2; ++ev) {
        const sat::Lit assumptions[] = {sv ? s : ~s, tv ? t : ~t,
                                        ev ? e : ~e};
        ASSERT_EQ(solver.Solve(assumptions), sat::SolveResult::kSat);
        const bool expected = sv ? tv : ev;
        EXPECT_EQ(solver.ModelValue(out) == sat::LBool::kTrue, expected)
            << sv << tv << ev;
      }
    }
  }
}

}  // namespace
}  // namespace aqed::bitblast
