#include "accel/widepipe.h"

#include <string>
#include <vector>

#include "aqed/monitor_util.h"
#include "support/status.h"

namespace aqed::accel {

using core::Reg;
using ir::Context;
using ir::NodeRef;
using ir::Sort;

namespace {

// Lane-varying (stage-invariant) mixing constants. Stage-invariance is
// load-bearing: it is what makes the clean stages isomorphic fragments, so
// the decomposed session collapses them to one solve.
uint64_t RoundConst(uint32_t lane, uint32_t width) {
  return (0x9E3779B97F4A7C15ull >> (7 * (lane % 8))) &
         ((width >= 64) ? ~0ull : ((1ull << width) - 1));
}

uint64_t KeyConst(uint32_t lane, uint32_t width) {
  const uint64_t c = 0xC2B2AE3D27D4EB4Full >> (5 * (lane % 8));
  // The multiplier must be odd so t*C2 never collapses to a shift.
  return (c | 1) & ((width >= 64) ? ~0ull : ((1ull << width) - 1));
}

// "s<stage><suffix>", the name of a stage's register.
std::string StageName(uint32_t stage, const char* suffix) {
  return std::string("s").append(std::to_string(stage)).append(suffix);
}

std::string StageValid(uint32_t stage) { return StageName(stage, ".valid"); }

std::string StageReg(uint32_t stage, uint32_t lane) {
  return StageName(stage, ".r").append(std::to_string(lane));
}

// out[l] = sbox(prev[l]) + prev[(l+1) % lanes], with
// sbox(x) = ((t*t) >> 3) ^ (t * key), t = x ^ round_const.
NodeRef LaneFn(Context& ctx, const std::vector<NodeRef>& prev, uint32_t lane,
               uint32_t width) {
  const uint32_t lanes = static_cast<uint32_t>(prev.size());
  const NodeRef t =
      ctx.Xor(prev[lane], ctx.Const(width, RoundConst(lane, width)));
  const NodeRef sq = ctx.Lshr(ctx.Mul(t, t), ctx.Const(width, 3));
  const NodeRef keyed = ctx.Mul(t, ctx.Const(width, KeyConst(lane, width)));
  const NodeRef sbox = ctx.Xor(sq, keyed);
  return ctx.Add(sbox, prev[(lane + 1) % lanes]);
}

}  // namespace

WidePipeDesign BuildWidePipe(ir::TransitionSystem& ts,
                             const WidePipeConfig& config) {
  AQED_CHECK(config.lanes >= 2 && config.stages >= 1 && config.width >= 4,
             "widepipe: degenerate configuration");
  Context& ctx = ts.ctx();

  // Host inputs, valid first — mirroring the per-stage register creation
  // order (valid, then lanes) so stage-0's fragment registers its free
  // leaves in the same ordinal order as a cut stage's.
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  std::vector<NodeRef> in_data;
  for (uint32_t lane = 0; lane < config.lanes; ++lane) {
    in_data.push_back(ts.AddInput("in" + std::to_string(lane),
                                  Sort::BitVec(config.width)));
  }
  // Nameable constant true: the decomposition declares every fragment's
  // in_ready / host_ready against this (the pipe has no backpressure).
  ts.AddOutput("one", ctx.True());

  NodeRef prev_valid = in_valid;
  std::vector<NodeRef> prev = in_data;
  for (uint32_t stage = 0; stage < config.stages; ++stage) {
    const NodeRef valid = Reg(ts, StageValid(stage), 1, 0);
    std::vector<NodeRef> regs;
    for (uint32_t lane = 0; lane < config.lanes; ++lane) {
      regs.push_back(Reg(ts, StageReg(stage, lane), config.width, 0));
    }

    std::vector<NodeRef> out;
    for (uint32_t lane = 0; lane < config.lanes; ++lane) {
      out.push_back(LaneFn(ctx, prev, lane, config.width));
    }

    if (config.bug_stage == static_cast<int32_t>(stage)) {
      // Tailgate bug: remember the previous accepted word's lane 0 and
      // whether the last cycle carried a valid word; a back-to-back word
      // gets its lane-0 result XORed with that stale shadow.
      const NodeRef shadow =
          Reg(ts, StageName(stage, ".shadow"), config.width, 0);
      const NodeRef b2b = Reg(ts, StageName(stage, ".b2b"), 1, 0);
      ts.SetNext(shadow, ctx.Ite(prev_valid, prev[0], shadow));
      ts.SetNext(b2b, prev_valid);
      out[0] = ctx.Ite(b2b, ctx.Xor(out[0], shadow), out[0]);
    }

    ts.SetNext(valid, prev_valid);
    for (uint32_t lane = 0; lane < config.lanes; ++lane) {
      ts.SetNext(regs[lane], ctx.Ite(prev_valid, out[lane], regs[lane]));
    }
    prev_valid = valid;
    prev = regs;
  }

  WidePipeDesign design;
  design.acc.in_valid = in_valid;
  design.acc.in_ready = ctx.True();
  design.acc.host_ready = ctx.True();
  design.acc.out_valid = prev_valid;
  design.acc.data_elems = {in_data};
  design.acc.out_elems = {prev};
  return design;
}

harness::GoldenFn WidePipeGolden(const WidePipeConfig& config) {
  return [config](const std::vector<uint64_t>& in,
                  const std::vector<uint64_t>&) {
    const uint64_t mask =
        config.width >= 64 ? ~0ull : ((1ull << config.width) - 1);
    std::vector<uint64_t> words = in;
    for (uint32_t stage = 0; stage < config.stages; ++stage) {
      std::vector<uint64_t> next(words.size());
      for (uint32_t lane = 0; lane < config.lanes; ++lane) {
        const uint64_t t =
            (words[lane] ^ RoundConst(lane, config.width)) & mask;
        const uint64_t sq = ((t * t) & mask) >> 3;
        const uint64_t keyed = (t * KeyConst(lane, config.width)) & mask;
        next[lane] =
            ((sq ^ keyed) + words[(lane + 1) % config.lanes]) & mask;
      }
      words = std::move(next);
    }
    return words;
  };
}

decomp::Decomposition WidePipeDecomposition(const WidePipeConfig& config) {
  decomp::Decomposition decomposition(
      "widepipe", [config](ir::TransitionSystem& ts) {
        return BuildWidePipe(ts, config).acc;
      });
  for (uint32_t stage = 0; stage < config.stages; ++stage) {
    decomp::SubAccelerator sub("stage" + std::to_string(stage));
    std::vector<std::string> data;
    if (stage == 0) {
      sub.WithInValid("in_valid");
      for (uint32_t lane = 0; lane < config.lanes; ++lane) {
        data.push_back("in" + std::to_string(lane));
      }
    } else {
      // Cut at the previous stage's registers: this fragment sees a free
      // valid bit and free data words in their place.
      sub.Cut(StageValid(stage - 1));
      sub.WithInValid(StageValid(stage - 1));
      for (uint32_t lane = 0; lane < config.lanes; ++lane) {
        sub.Cut(StageReg(stage - 1, lane));
        data.push_back(StageReg(stage - 1, lane));
      }
    }
    std::vector<std::string> out;
    for (uint32_t lane = 0; lane < config.lanes; ++lane) {
      out.push_back(StageReg(stage, lane));
    }
    sub.WithDataElem(std::move(data))
        .WithOutElem(std::move(out))
        .WithInReady("one")
        .WithHostReady("one")
        .WithOutValid(StageValid(stage))
        .WithBound(WidePipeSubBound());
    decomposition.Add(std::move(sub));
  }
  return decomposition;
}

WidePipeConfig WidePipeBenchConfig() {
  // Width is the hardness dial (multiplier equivalence scales brutally with
  // it): at 6 bits one 4-lane stage refutes in a few seconds, while the
  // 6-stage monolithic composition is far beyond any interactive deadline
  // (the 2-lane 2-stage pipe already takes ~10s at this width).
  return {.lanes = 4, .stages = 6, .width = 6, .bug_stage = -1};
}

uint32_t WidePipeMonolithicBound(const WidePipeConfig& config) {
  // Latency `stages` + capture of orig, filler, dup + one drain cycle.
  return config.stages + 4;
}

uint32_t WidePipeSubBound() { return 6; }

}  // namespace aqed::accel
