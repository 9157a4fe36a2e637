// IR unit tests: hash consing, constant folding, sort checking, transition
// system validation, the cone walk, node-for-node copies, and the printer.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "fault/campaign.h"
#include "ir/btor2.h"
#include "ir/context.h"
#include "ir/digest.h"
#include "ir/printer.h"
#include "ir/transition_system.h"
#include "service/registry.h"

namespace aqed::ir {
namespace {

TEST(ContextTest, ConstantsAreCanonicalAndShared) {
  Context ctx;
  const NodeRef a = ctx.Const(8, 0x1FF);  // truncated to 0xFF
  const NodeRef b = ctx.Const(8, 0xFF);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ctx.node(a).const_val, 0xFFu);
  EXPECT_NE(ctx.Const(9, 0xFF), a);  // different sort, different node
}

TEST(ContextTest, HashConsingSharesPureOps) {
  Context ctx;
  const NodeRef x = ctx.Input("x", Sort::BitVec(8));
  const NodeRef y = ctx.Input("y", Sort::BitVec(8));
  EXPECT_EQ(ctx.Add(x, y), ctx.Add(x, y));
  EXPECT_NE(ctx.Add(x, y), ctx.Add(y, x));  // no commutative normalization
  EXPECT_NE(ctx.Input("x", Sort::BitVec(8)), x);  // inputs never shared
}

TEST(ContextTest, ConstantFolding) {
  Context ctx;
  EXPECT_EQ(ctx.Add(ctx.Const(8, 200), ctx.Const(8, 100)), ctx.Const(8, 44));
  EXPECT_EQ(ctx.Mul(ctx.Const(8, 16), ctx.Const(8, 16)), ctx.Const(8, 0));
  EXPECT_EQ(ctx.Ult(ctx.Const(4, 3), ctx.Const(4, 5)), ctx.True());
  EXPECT_EQ(ctx.Slt(ctx.Const(4, 0xF), ctx.Const(4, 0)), ctx.True());  // -1<0
  EXPECT_EQ(ctx.Extract(ctx.Const(8, 0xA5), 7, 4), ctx.Const(4, 0xA));
  EXPECT_EQ(ctx.Concat(ctx.Const(4, 0xA), ctx.Const(4, 0x5)),
            ctx.Const(8, 0xA5));
  EXPECT_EQ(ctx.Sext(ctx.Const(4, 0x8), 8), ctx.Const(8, 0xF8));
  EXPECT_EQ(ctx.Udiv(ctx.Const(8, 7), ctx.Const(8, 0)), ctx.Const(8, 0xFF));
  EXPECT_EQ(ctx.Urem(ctx.Const(8, 7), ctx.Const(8, 0)), ctx.Const(8, 7));
}

TEST(ContextTest, AlgebraicSimplifications) {
  Context ctx;
  const NodeRef x = ctx.Input("x", Sort::BitVec(8));
  const NodeRef zero = ctx.Const(8, 0);
  const NodeRef ones = ctx.Const(8, 0xFF);
  EXPECT_EQ(ctx.And(x, zero), zero);
  EXPECT_EQ(ctx.And(x, ones), x);
  EXPECT_EQ(ctx.Or(x, zero), x);
  EXPECT_EQ(ctx.Xor(x, x), zero);
  EXPECT_EQ(ctx.Add(x, zero), x);
  EXPECT_EQ(ctx.Sub(x, zero), x);
  EXPECT_EQ(ctx.Not(ctx.Not(x)), x);
  EXPECT_EQ(ctx.Eq(x, x), ctx.True());
  EXPECT_EQ(ctx.Ult(x, x), ctx.False());
  const NodeRef cond = ctx.Input("c", Sort::BitVec(1));
  EXPECT_EQ(ctx.Ite(cond, x, x), x);
  EXPECT_EQ(ctx.Ite(ctx.True(), x, zero), x);
  EXPECT_EQ(ctx.Extract(x, 7, 0), x);
  EXPECT_EQ(ctx.Zext(x, 8), x);
}

TEST(ContextTest, ArrayOps) {
  Context ctx;
  const NodeRef array = ctx.ConstArray(2, 8, 0x55);
  EXPECT_TRUE(ctx.sort(array).is_array());
  EXPECT_EQ(ctx.sort(array).num_elements(), 4u);
  const NodeRef idx = ctx.Input("i", Sort::BitVec(2));
  const NodeRef read = ctx.Read(array, idx);
  EXPECT_EQ(ctx.width(read), 8u);
  const NodeRef written = ctx.Write(array, idx, ctx.Const(8, 1));
  EXPECT_EQ(ctx.sort(written), ctx.sort(array));
}

TEST(TransitionSystemTest, ValidatesCompleteSystem) {
  TransitionSystem ts;
  Context& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("in", Sort::BitVec(4));
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(4), 0);
  ts.SetNext(reg, ctx.Add(reg, in));
  ts.AddBad(ctx.Eq(reg, ctx.Const(4, 7)), "reg==7");
  ts.AddConstraint(ctx.Ne(in, ctx.Const(4, 0)));
  EXPECT_TRUE(ts.Validate().ok());
}

TEST(TransitionSystemTest, RejectsMissingNext) {
  TransitionSystem ts;
  ts.AddState("reg", Sort::BitVec(4), 0);
  const Status status = ts.Validate();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no next function"), std::string::npos);
}

TEST(TransitionSystemTest, InitValuesAreTruncated) {
  TransitionSystem ts;
  const NodeRef reg = ts.AddState("reg", Sort::BitVec(4), 0x1F);
  EXPECT_EQ(ts.init_value(reg), 0xFu);
  EXPECT_TRUE(ts.has_init(reg));
  const NodeRef free_state = ts.AddState("free", Sort::BitVec(4));
  EXPECT_FALSE(ts.has_init(free_state));
}

TEST(TransitionSystemTest, MarkConeFollowsNextStateAndStopsAtTheStopSet) {
  TransitionSystem ts;
  Context& ctx = ts.ctx();
  const NodeRef in = ts.AddInput("in", Sort::BitVec(4));
  const NodeRef a = ts.AddState("a", Sort::BitVec(4), 0);
  const NodeRef b = ts.AddState("b", Sort::BitVec(4), 0);
  const NodeRef a_next = ctx.Add(a, in);
  ts.SetNext(a, a_next);
  ts.SetNext(b, a);
  const NodeRef out = ctx.Not(b);
  // From `out` the walk enters b, b's next (a), and a's next function.
  std::vector<bool> cone;
  MarkCone(ts, std::span(&out, 1), cone);
  for (NodeRef ref : {out, b, a, a_next, in}) EXPECT_TRUE(cone[ref]) << ref;
  // With `a` in the stop set, a is marked but its next function is not.
  std::vector<bool> stop(ctx.num_nodes(), false);
  stop[a] = true;
  std::vector<bool> stopped;
  MarkCone(ts, std::span(&out, 1), stopped, stop);
  EXPECT_TRUE(stopped[a]);
  EXPECT_FALSE(stopped[a_next]);
  EXPECT_FALSE(stopped[in]);
  // A second call grows the same cone.
  MarkCone(ts, std::span(&a_next, 1), stopped, stop);
  EXPECT_TRUE(stopped[in]);
}

TEST(CopyNodeTest, IdentityCopyReproducesEveryCatalogDesign) {
  for (const fault::DesignUnderTest& design : service::BuiltinDesigns()) {
    TransitionSystem src;
    design.build(src);
    TransitionSystem copy;
    std::vector<NodeRef> map(src.ctx().num_nodes(), kNullNode);
    for (NodeRef ref = 1; ref < src.ctx().num_nodes(); ++ref) {
      map[ref] = CopyNode(src, ref, map, copy);
      ASSERT_EQ(map[ref], ref) << design.name;  // node for node
    }
    for (NodeRef state : src.states()) copy.SetNext(state, src.next(state));
    for (NodeRef constraint : src.constraints()) copy.AddConstraint(constraint);
    for (size_t i = 0; i < src.bads().size(); ++i) {
      copy.AddBad(src.bads()[i], src.bad_labels()[i]);
    }
    for (const auto& [name, node] : src.outputs()) copy.AddOutput(name, node);
    EXPECT_EQ(copy.ctx().num_nodes(), src.ctx().num_nodes()) << design.name;
    EXPECT_EQ(ToBtor2(copy), ToBtor2(src)) << design.name;
    EXPECT_EQ(StructuralDigest(copy), StructuralDigest(src)) << design.name;
  }
}

TEST(PrinterTest, DumpsStatesAndProperties) {
  TransitionSystem ts;
  Context& ctx = ts.ctx();
  const NodeRef reg = ts.AddState("counter", Sort::BitVec(8), 0);
  ts.SetNext(reg, ctx.Add(reg, ctx.Const(8, 1)));
  ts.AddBad(ctx.Eq(reg, ctx.Const(8, 42)), "hits42");
  ts.AddOutput("counter", reg);
  const std::string text = ToString(ts);
  EXPECT_NE(text.find("counter"), std::string::npos);
  EXPECT_NE(text.find("hits42"), std::string::npos);
  EXPECT_NE(text.find("next"), std::string::npos);
}

TEST(SortTest, ToStringAndEquality) {
  EXPECT_EQ(Sort::BitVec(8).ToString(), "bv8");
  EXPECT_EQ(Sort::Array(3, 16).ToString(), "array[2^3 x bv16]");
  EXPECT_EQ(Sort::BitVec(8), Sort::BitVec(8));
  EXPECT_NE(Sort::BitVec(8), Sort::BitVec(9));
  EXPECT_NE(Sort::BitVec(8), Sort::Array(1, 8));
}

}  // namespace
}  // namespace aqed::ir
