#include "accel/aes.h"

#include <string>
#include <vector>

#include "accel/aes_internal.h"
#include "aqed/monitor_util.h"
#include "support/status.h"

namespace aqed::accel {

using core::LatchWhen;
using core::Reg;
using ir::Context;
using ir::NodeRef;
using ir::Sort;

namespace {

constexpr uint32_t kBlockWidth = 16;
constexpr uint32_t kQueueSlots = 2;

// 4-bit S-box as a mux chain.
NodeRef SboxIR(Context& ctx, NodeRef nibble) {
  NodeRef result = ctx.Const(4, aes_internal::kSbox[0]);
  for (uint64_t v = 1; v < 16; ++v) {
    result = ctx.Ite(ctx.Eq(nibble, ctx.Const(4, v)),
                     ctx.Const(4, aes_internal::kSbox[v]), result);
  }
  return result;
}

NodeRef Nibble(Context& ctx, NodeRef word, uint32_t index) {
  return ctx.Extract(word, 4 * index + 3, 4 * index);
}

NodeRef RotL16IR(Context& ctx, NodeRef word, uint32_t amount) {
  return ctx.Concat(ctx.Extract(word, 15 - amount, 0),
                    ctx.Extract(word, 15, 16 - amount));
}

// One encryption round (matches aes_internal::RoundFn).
NodeRef RoundIR(Context& ctx, NodeRef state, NodeRef round_key) {
  std::array<NodeRef, 4> sub{};
  for (uint32_t i = 0; i < 4; ++i) sub[i] = SboxIR(ctx, Nibble(ctx, state, i));
  std::array<NodeRef, 4> shifted{};
  for (uint32_t i = 0; i < 4; ++i) shifted[i] = sub[(i + 1) % 4];
  std::array<NodeRef, 4> mixed{};
  for (uint32_t i = 0; i < 4; ++i) {
    mixed[i] = ctx.Xor(shifted[i], shifted[(i + 1) % 4]);
  }
  const NodeRef packed = ctx.Concat(
      ctx.Concat(mixed[3], mixed[2]), ctx.Concat(mixed[1], mixed[0]));
  return ctx.Xor(packed, round_key);
}

// Key-schedule step for the (1-based) round held in `round_plus_1`.
NodeRef KeyStepIR(Context& ctx, NodeRef key, NodeRef round_plus_1,
                  uint32_t max_rounds) {
  NodeRef rcon = ctx.Const(kBlockWidth, aes_internal::Rcon(1));
  for (uint32_t r = 2; r <= max_rounds; ++r) {
    rcon = ctx.Ite(ctx.Eq(round_plus_1, ctx.Const(3, r)),
                   ctx.Const(kBlockWidth, aes_internal::Rcon(r)), rcon);
  }
  const NodeRef rotated = RotL16IR(ctx, key, 5);
  const NodeRef sboxed =
      ctx.Zext(SboxIR(ctx, Nibble(ctx, key, 0)), kBlockWidth);
  return ctx.Xor(ctx.Xor(rotated, sboxed), rcon);
}

}  // namespace

const char* AesBugName(AesBug bug) {
  switch (bug) {
    case AesBug::kNone: return "none";
    case AesBug::kV1KeyScheduleStale: return "aes_v1_key_schedule_stale";
    case AesBug::kV2QueueOverflow: return "aes_v2_queue_overflow";
    case AesBug::kV3KeySampleLate: return "aes_v3_key_sample_late";
    case AesBug::kV4RoundSkip: return "aes_v4_round_skip";
  }
  return "?";
}

AesDesign BuildAes(ir::TransitionSystem& ts, const AesConfig& config) {
  AQED_CHECK(config.rounds >= 1 && config.rounds <= 7,
             "AES rounds out of range");
  AQED_CHECK(config.batch_size >= 1 && config.batch_size <= 4,
             "AES batch size out of range");
  Context& ctx = ts.ctx();
  const uint32_t batch = config.batch_size;
  AesDesign design;

  // --- host-facing inputs -----------------------------------------------
  const NodeRef in_valid = ts.AddInput("in_valid", Sort::BitVec(1));
  std::vector<NodeRef> in_block(batch);
  for (uint32_t b = 0; b < batch; ++b) {
    in_block[b] =
        ts.AddInput("in_block" + std::to_string(b), Sort::BitVec(kBlockWidth));
  }
  const NodeRef key = ts.AddInput("key", Sort::BitVec(kBlockWidth));
  const NodeRef host_ready = ts.AddInput("host_ready", Sort::BitVec(1));
  design.key = key;

  // --- input queue: two slots of (batch blocks, key) ------------------------
  std::vector<std::vector<NodeRef>> q_block(kQueueSlots);
  std::vector<NodeRef> q_key(kQueueSlots);
  for (uint32_t s = 0; s < kQueueSlots; ++s) {
    const std::string slot = std::string("q").append(std::to_string(s));
    q_block[s].resize(batch);
    for (uint32_t b = 0; b < batch; ++b) {
      q_block[s][b] = Reg(
          ts, std::string(slot).append(".block").append(std::to_string(b)),
          kBlockWidth, 0);
    }
    q_key[s] = Reg(ts, slot + ".key", kBlockWidth, 0);
  }
  const NodeRef q_wr = Reg(ts, "q.wr", 1, 0);
  const NodeRef q_rd = Reg(ts, "q.rd", 1, 0);
  const NodeRef q_cnt = Reg(ts, "q.cnt", 2, 0);

  // v2 (incorrect FIFO sizing): accepts a transaction while full, and the
  // write pointer overruns the oldest pending slot.
  const NodeRef space =
      config.bug == AesBug::kV2QueueOverflow
          ? ctx.Ule(q_cnt, ctx.Const(2, kQueueSlots))
          : ctx.Ult(q_cnt, ctx.Const(2, kQueueSlots));
  const NodeRef in_ready = space;
  const NodeRef capture = ctx.And(in_valid, in_ready);

  for (uint32_t s = 0; s < kQueueSlots; ++s) {
    const NodeRef write_here =
        ctx.And(capture, ctx.Eq(q_wr, ctx.Const(1, s)));
    for (uint32_t b = 0; b < batch; ++b) {
      LatchWhen(ts, q_block[s][b], write_here, in_block[b]);
    }
    LatchWhen(ts, q_key[s], write_here, key);
  }
  LatchWhen(ts, q_wr, capture, ctx.Not(q_wr));

  // --- encryption engine ---------------------------------------------------
  const NodeRef busy = Reg(ts, "eng.busy", 1, 0);
  const NodeRef round = Reg(ts, "eng.round", 3, 0);
  const NodeRef kreg = Reg(ts, "eng.kreg", kBlockWidth, 0);
  std::vector<NodeRef> state(batch), out_reg(batch);
  for (uint32_t b = 0; b < batch; ++b) {
    state[b] = Reg(ts, "eng.state" + std::to_string(b), kBlockWidth, 0);
    out_reg[b] = Reg(ts, "eng.out" + std::to_string(b), kBlockWidth, 0);
  }
  const NodeRef out_pending = Reg(ts, "eng.out_pending", 1, 0);

  const NodeRef out_valid = out_pending;
  const NodeRef drain = ctx.And(out_valid, host_ready);
  const NodeRef slot_free = ctx.Or(ctx.Not(out_pending), drain);

  const NodeRef q_non_empty = ctx.Ugt(q_cnt, ctx.Const(2, 0));
  const NodeRef rounds_done =
      ctx.Eq(round, ctx.Const(3, config.rounds));
  const NodeRef finish = ctx.And(ctx.And(busy, rounds_done), slot_free);
  const NodeRef issue =
      ctx.And(ctx.Or(ctx.Not(busy), finish), q_non_empty);
  const NodeRef running = ctx.And(busy, ctx.Not(rounds_done));

  // Queue consume.
  NodeRef q_cnt_next = q_cnt;
  q_cnt_next = ctx.Ite(capture, ctx.Add(q_cnt_next, ctx.Const(2, 1)),
                       q_cnt_next);
  q_cnt_next =
      ctx.Ite(issue, ctx.Sub(q_cnt_next, ctx.Const(2, 1)), q_cnt_next);
  ts.SetNext(q_cnt, q_cnt_next);
  LatchWhen(ts, q_rd, issue, ctx.Not(q_rd));

  // The key a transaction is encrypted under. Correct behaviour uses the
  // key queued with the transaction; v3 samples the host's *live* key at
  // issue time instead.
  const NodeRef queued_key =
      ctx.Ite(q_rd, q_key[1], q_key[0]);
  const NodeRef issue_key =
      config.bug == AesBug::kV3KeySampleLate ? key : queued_key;

  // Round-key register: reloaded at issue (v1 leaves the previous
  // transaction's evolved key in place), stepped every round.
  const NodeRef round_plus_1 = ctx.Add(round, ctx.Const(3, 1));
  const NodeRef key_stepped = KeyStepIR(ctx, kreg, round_plus_1,
                                        config.rounds);
  NodeRef kreg_next = ctx.Ite(running, key_stepped, kreg);
  if (config.bug != AesBug::kV1KeyScheduleStale) {
    kreg_next = ctx.Ite(issue, issue_key, kreg_next);
  }
  ts.SetNext(kreg, kreg_next);

  // Data path: initial whitening at issue, one round per cycle after.
  for (uint32_t b = 0; b < batch; ++b) {
    const NodeRef queued_block =
        ctx.Ite(q_rd, q_block[1][b], q_block[0][b]);
    const NodeRef whitened = ctx.Xor(queued_block, issue_key);
    const NodeRef rounded = RoundIR(ctx, state[b], key_stepped);
    NodeRef state_next = ctx.Ite(running, rounded, state[b]);
    state_next = ctx.Ite(issue, whitened, state_next);
    ts.SetNext(state[b], state_next);
    LatchWhen(ts, out_reg[b], finish, state[b]);
  }

  // Round counter. v4: when an issue coincides with a finish, the counter
  // erroneously starts at 1, skipping the first round of the new block.
  NodeRef issue_round = ctx.Const(3, 0);
  if (config.bug == AesBug::kV4RoundSkip) {
    issue_round = ctx.Ite(finish, ctx.Const(3, 1), ctx.Const(3, 0));
  }
  NodeRef round_next = ctx.Ite(
      running, ctx.Add(round, ctx.Const(3, 1)), round);
  round_next = ctx.Ite(issue, issue_round, round_next);
  ts.SetNext(round, round_next);

  ts.SetNext(busy, ctx.Ite(issue, ctx.True(),
                           ctx.Ite(finish, ctx.False(), busy)));
  ts.SetNext(out_pending, ctx.Ite(finish, ctx.True(),
                                  ctx.Ite(drain, ctx.False(), out_pending)));

  // --- interface ---------------------------------------------------------
  design.acc.in_valid = in_valid;
  design.acc.in_ready = in_ready;
  design.acc.host_ready = host_ready;
  design.acc.out_valid = out_valid;
  for (uint32_t b = 0; b < batch; ++b) {
    design.acc.data_elems.push_back({in_block[b]});
    design.acc.out_elems.push_back({out_reg[b]});
  }
  design.acc.shared_context = {key};
  ts.AddOutput("out0", out_reg[0]);
  return design;
}

core::SpecFn AesSpec(const AesConfig& config) {
  const uint32_t rounds = config.rounds;
  return [rounds](Context& ctx, const std::vector<NodeRef>& in) {
    // in[0] = block, in[1] = shared-context key.
    NodeRef state = ctx.Xor(in[0], in[1]);
    NodeRef key = in[1];
    for (uint32_t r = 1; r <= rounds; ++r) {
      key = ctx.Xor(
          ctx.Xor(RotL16IR(ctx, key, 5),
                  ctx.Zext(SboxIR(ctx, Nibble(ctx, key, 0)), kBlockWidth)),
          ctx.Const(kBlockWidth, aes_internal::Rcon(r)));
      state = RoundIR(ctx, state, key);
    }
    return std::vector<NodeRef>{state};
  };
}

uint32_t AesResponseBound(const AesConfig& config) {
  // Two queue slots ahead of the tracked transaction, each taking
  // rounds+2 cycles, plus drain handshakes.
  return 3 * (config.rounds + 2) + 6;
}

}  // namespace aqed::accel
