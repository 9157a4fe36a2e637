// BTOR2 and VCD export tests.
#include <gtest/gtest.h>

#include "accel/memctrl.h"
#include "aqed/checker.h"
#include "bmc/engine.h"
#include "bmc/vcd.h"
#include "ir/btor2.h"

namespace aqed {
namespace {

using ir::NodeRef;
using ir::Sort;

ir::TransitionSystem MakeSmallSystem() {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("stimulus", Sort::BitVec(4));
  const NodeRef acc = ts.AddState("acc", Sort::BitVec(4), 1);
  ts.SetNext(acc, ctx.Add(acc, in));
  ts.AddConstraint(ctx.Ult(in, ctx.Const(4, 8)));
  ts.AddBad(ctx.Eq(acc, ctx.Const(4, 9)), "acc9");
  ts.AddOutput("acc", acc);
  return ts;
}

TEST(Btor2Test, EmitsWellFormedLines) {
  const auto ts = MakeSmallSystem();
  const std::string text = ir::ToBtor2(ts);
  EXPECT_NE(text.find("sort bitvec 4"), std::string::npos);
  EXPECT_NE(text.find("sort bitvec 1"), std::string::npos);
  EXPECT_NE(text.find("input"), std::string::npos);
  EXPECT_NE(text.find("state"), std::string::npos);
  EXPECT_NE(text.find(" init "), std::string::npos);
  EXPECT_NE(text.find(" next "), std::string::npos);
  EXPECT_NE(text.find("constraint"), std::string::npos);
  EXPECT_NE(text.find("bad"), std::string::npos);
  EXPECT_NE(text.find("acc9"), std::string::npos);
  // Every non-comment line starts with a strictly increasing id.
  std::istringstream stream(text);
  std::string line;
  uint64_t last_id = 0;
  while (std::getline(stream, line)) {
    if (line.empty() || line[0] == ';') continue;
    uint64_t id = 0;
    ASSERT_EQ(sscanf(line.c_str(), "%llu",
                     reinterpret_cast<unsigned long long*>(&id)),
              1)
        << line;
    EXPECT_GT(id, last_id) << line;
    last_id = id;
  }
}

TEST(Btor2Test, ExportsFullCaseStudyDesign) {
  ir::TransitionSystem ts;
  const auto design =
      accel::BuildMemCtrl(ts, accel::MemCtrlConfig::kFifo);
  core::AqedOptions options;  // instrument FC so monitors export too
  core::InstrumentFc(ts, design.acc, {});
  const std::string text = ir::ToBtor2(ts);
  EXPECT_NE(text.find("sort array"), std::string::npos);  // FIFO memory
  EXPECT_NE(text.find("read"), std::string::npos);
  EXPECT_NE(text.find("write"), std::string::npos);
  EXPECT_NE(text.find("aqed_fc"), std::string::npos);
  EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 100);
}

TEST(VcdTest, DumpsCounterexampleWaveform) {
  auto ts = MakeSmallSystem();
  bmc::BmcOptions options;
  options.max_bound = 10;
  const auto result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());

  const std::string vcd = bmc::ToVcd(ts, result.trace);
  EXPECT_NE(vcd.find("$timescale"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 4"), std::string::npos);
  EXPECT_NE(vcd.find("stimulus"), std::string::npos);
  EXPECT_NE(vcd.find("acc9"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  // One timestep marker per cycle plus the closing marker (identifier
  // codes may also contain '#', so count line-initial markers).
  long timesteps = 0;
  std::istringstream lines(vcd);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty() && line[0] == '#') ++timesteps;
  }
  EXPECT_EQ(timesteps, static_cast<long>(result.trace.length()) + 1);
  // The accumulator must reach 9 (binary) at some point.
  EXPECT_NE(vcd.find("b1001"), std::string::npos);
}

TEST(VcdTest, MultiBitAndSingleBitFormats) {
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef flag = ts.AddInput("flag", Sort::BitVec(1));
  const NodeRef bus = ts.AddInput("bus", Sort::BitVec(3));
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(1), 0);
  ts.SetNext(reg, flag);
  ts.AddBad(ctx.And(ctx.Eq(flag, ctx.True()),
                    ctx.Eq(bus, ctx.Const(3, 5))),
            "combo");
  bmc::BmcOptions options;
  options.max_bound = 2;
  const auto result = RunBmc(ts, options);
  ASSERT_TRUE(result.found_bug());
  const std::string vcd = bmc::ToVcd(ts, result.trace);
  EXPECT_NE(vcd.find("b101 "), std::string::npos);  // 3-bit bus value
  EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
}

TEST(Btor2Test, RoundTripPreservesBmcOutcome) {
  // export -> import -> the same bug at the same minimal depth.
  auto original = MakeSmallSystem();
  const std::string text = ir::ToBtor2(original);
  auto imported = ir::ImportBtor2String(text);
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  ASSERT_TRUE(imported.value()->Validate().ok())
      << imported.value()->Validate().message();

  bmc::BmcOptions options;
  options.max_bound = 12;
  const auto original_result = RunBmc(original, options);
  const auto imported_result = RunBmc(*imported.value(), options);
  ASSERT_TRUE(original_result.found_bug());
  ASSERT_TRUE(imported_result.found_bug());
  EXPECT_EQ(original_result.trace.length(), imported_result.trace.length());
  EXPECT_TRUE(imported_result.trace_validated);
}

TEST(Btor2Test, RoundTripOfInstrumentedAccelerator) {
  // A full A-QED-instrumented buggy design survives the round trip and the
  // imported model finds the same-length FC counterexample.
  ir::TransitionSystem ts;
  const auto design = accel::BuildMemCtrl(
      ts, accel::MemCtrlConfig::kLineBuffer, accel::MemCtrlBug::kLbStaleAccum);
  core::InstrumentFc(ts, design.acc, {});
  const std::string text = ir::ToBtor2(ts);
  auto imported = ir::ImportBtor2String(text);
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  ASSERT_TRUE(imported.value()->Validate().ok());

  bmc::BmcOptions options;
  options.max_bound = 12;
  const auto original_result = RunBmc(ts, options);
  const auto imported_result = RunBmc(*imported.value(), options);
  ASSERT_TRUE(original_result.found_bug());
  ASSERT_TRUE(imported_result.found_bug());
  EXPECT_EQ(original_result.trace.length(), imported_result.trace.length());
}

TEST(Btor2Test, SliceToANewWidthRoundTrips) {
  // The slice is the first node of width 3, so its sort line is emitted
  // with it and must come before the slice's own line.
  ir::TransitionSystem ts;
  auto& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("word", Sort::BitVec(8));
  const NodeRef field = ctx.Extract(in, 4, 2);
  ts.AddBad(ctx.Eq(field, ctx.Const(3, 5)), "field5");
  auto imported = ir::ImportBtor2String(ir::ToBtor2(ts));
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  EXPECT_EQ(imported.value()->ctx().num_nodes(), ts.ctx().num_nodes());
}

TEST(Btor2Test, ImportRejectsMalformedInput) {
  EXPECT_FALSE(ir::ImportBtor2String("1 sort bitvec 0\n").ok());
  EXPECT_FALSE(ir::ImportBtor2String("1 bogus 2 3\n").ok());
  EXPECT_FALSE(ir::ImportBtor2String("1 sort bitvec 4\n2 add 1 9 9\n").ok());
  EXPECT_FALSE(ir::ImportBtor2String("x sort bitvec 4\n").ok());
  EXPECT_FALSE(ir::ImportBtor2String("1 sort bitvec 4\n2 constd 1 zz\n").ok());
  // Operands the IR builders would abort on must fail as a Status.
  const std::string byte = "1 sort bitvec 8\n";
  for (const char* body : {
           "2 input 1\n3 add 1 2 2\n4 slice 1 3 20 0\n",  // slice past msb
           "2 input 1\n3 slice 1 2 3 5\n",                // hi below lo
           "2 input 1\n3 ite 1 2 2 2\n",    // 8-bit ite condition
           "2 input 1\n3 bad 2\n",          // 8-bit bad
           "2 input 1\n3 constraint 2\n",   // 8-bit constraint
           "2 state 1\n3 next 1 -2 2\n",    // next of a non-state
           // 8-bit init of a 4-bit state (was truncated to 200 mod 16 = 8)
           "2 sort bitvec 4\n3 state 2 s\n4 constd 1 200\n5 init 2 3 4\n",
           // 4-bit init of an array state with 8-bit elements
           "2 sort bitvec 4\n3 sort array 2 1\n4 state 3 m\n"
           "5 constd 2 3\n6 init 3 4 5\n",
       }) {
    EXPECT_FALSE(ir::ImportBtor2String(byte + body).ok()) << body;
  }
}

TEST(Btor2Test, ImportSupportsNegatedOperandsAndNamedConstants) {
  const char* text =
      "1 sort bitvec 1\n"
      "2 input 1 a\n"
      "3 one 1\n"
      "4 and 1 -2 3\n"  // ~a & 1
      "5 bad 4\n";
  auto imported = ir::ImportBtor2String(text);
  ASSERT_TRUE(imported.ok()) << imported.status().message();
  bmc::BmcOptions options;
  options.max_bound = 2;
  const auto result = RunBmc(*imported.value(), options);
  ASSERT_TRUE(result.found_bug());
  EXPECT_EQ(result.trace.length(), 1u);
}

}  // namespace
}  // namespace aqed
