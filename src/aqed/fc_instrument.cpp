#include "aqed/fc_instrument.h"

#include <algorithm>

#include "aqed/monitor_util.h"
#include "support/bits.h"
#include "support/status.h"

namespace aqed::core {

using ir::Context;
using ir::Node;
using ir::NodeRef;
using ir::Op;
using ir::Sort;

namespace {

// Whether bit j of an `op` result depends, through operand `pos`, on that
// operand's bit j alone: the positions data may move through.
bool IsLanePosition(Op op, size_t pos) {
  switch (op) {
    case Op::kNot:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return true;
    case Op::kIte:
      return pos != 0;  // not the select
    case Op::kRead:
      return pos == 0;  // not the index
    case Op::kWrite:
      return pos != 1;  // not the index
    default:
      return false;
  }
}

bool LaneUniform(uint64_t value, uint32_t width) {
  return value == 0 || value == WidthMask(width);
}

// A constant (an array through its default element) whose bits are equal.
bool IsUniformConstant(const Context& ctx, NodeRef ref) {
  const Node& node = ctx.node(ref);
  if (node.op == Op::kConstArray) {
    return IsUniformConstant(ctx, node.operands[0]);
  }
  return node.op == Op::kConst && LaneUniform(node.const_val, node.sort.width);
}

// The data inputs whose bit lanes the unroller may tie, or none. They may
// when the design only moves their bits (DESIGN.md §6 item 9): every node
// that takes one of L — the data inputs' forward closure through operands
// and next-state functions — uses it in a lane position beside L nodes or
// lane-uniform constants, every L state starts lane-uniform, and no
// handshake signal, constraint or bad is in L, while every output word is.
// Then each FC violation has a lane-uniform twin of the same depth.
std::vector<NodeRef> LaneTiedInputs(const ir::TransitionSystem& ts,
                                    const AcceleratorInterface& acc) {
  const Context& ctx = ts.ctx();
  std::vector<uint8_t> lane(ctx.num_nodes(), 0);
  std::vector<NodeRef> inputs;
  for (const std::vector<NodeRef>& elem : acc.data_elems) {
    for (NodeRef word : elem) {
      if (ctx.node(word).op != Op::kInput) return {};
      if (!lane[word]) inputs.push_back(word);
      lane[word] = 1;
    }
  }
  // Operands precede their users, so each pass closes L over operands; a
  // state joins when its next function has, which takes another pass.
  for (bool grew = true; grew;) {
    grew = false;
    for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
      const Node& node = ctx.node(ref);
      if (lane[ref] || node.op == Op::kInput) continue;
      const bool joins =
          node.op == Op::kState
              ? lane[ts.next(ref)] != 0
              : std::ranges::any_of(node.operands,
                                    [&](NodeRef op) { return lane[op] != 0; });
      if (joins) lane[ref] = grew = true;
    }
  }
  for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
    const Node& node = ctx.node(ref);
    if (!lane[ref] || node.op == Op::kInput) continue;
    if (node.op == Op::kState) {
      const uint32_t width =
          node.sort.is_array() ? node.sort.elem_width : node.sort.width;
      if (!ts.has_init(ref) || !LaneUniform(ts.init_value(ref), width)) {
        return {};
      }
      continue;
    }
    for (size_t pos = 0; pos < node.operands.size(); ++pos) {
      const NodeRef operand = node.operands[pos];
      const bool ok = IsLanePosition(node.op, pos)
                          ? lane[operand] || IsUniformConstant(ctx, operand)
                          : !lane[operand];
      if (!ok) return {};
    }
  }
  const auto in_lane = [&](NodeRef ref) {
    return ref != ir::kNullNode && lane[ref] != 0;
  };
  const NodeRef handshake[] = {acc.in_valid, acc.in_ready, acc.host_ready,
                               acc.out_valid, acc.progress_qualifier};
  // Checking the shared context also keeps data words out of it.
  if (std::ranges::any_of(handshake, in_lane) ||
      std::ranges::any_of(acc.shared_context, in_lane) ||
      std::ranges::any_of(ts.constraints(), in_lane) ||
      std::ranges::any_of(ts.bads(), in_lane)) {
    return {};
  }
  for (const std::vector<NodeRef>& elem : acc.out_elems) {
    for (NodeRef word : elem) {
      if (!lane[word]) return {};
    }
  }
  return inputs;
}

}  // namespace

FcInstrumentation InstrumentFc(ir::TransitionSystem& ts,
                               const AcceleratorInterface& acc,
                               const FcOptions& options) {
  const Status valid = acc.Validate(ts);
  AQED_CHECK(valid.ok(), "InstrumentFc: " + valid.message());
  Context& ctx = ts.ctx();
  FcInstrumentation fc;
  // Decided on the design alone: the monitor below compares whole words.
  std::vector<NodeRef> tied_inputs = LaneTiedInputs(ts, acc);

  const uint32_t batch = acc.batch_size();
  const uint32_t idx_width = IndexWidth(batch);
  const size_t in_size = acc.data_elems[0].size();
  const size_t out_size = acc.out_elems[0].size();

  // --- monitor control inputs (chosen freely by the BMC engine) ---------
  fc.is_orig = ts.AddInput(options.label + ".is_orig", Sort::BitVec(1));
  fc.is_dup = ts.AddInput(options.label + ".is_dup", Sort::BitVec(1));
  fc.orig_idx = ts.AddInput(options.label + ".orig_idx",
                            Sort::BitVec(idx_width));
  fc.dup_idx = ts.AddInput(options.label + ".dup_idx",
                           Sort::BitVec(idx_width));
  if (batch < (uint64_t{1} << idx_width)) {
    const NodeRef bound = ctx.Const(idx_width, batch);
    ts.AddConstraint(ctx.Ult(fc.orig_idx, bound));
    ts.AddConstraint(ctx.Ult(fc.dup_idx, bound));
  }

  // --- capture events ----------------------------------------------------
  const NodeRef capture_in = ctx.And(acc.in_valid, acc.in_ready);
  const NodeRef capture_out = ctx.And(acc.out_valid, acc.host_ready);

  // --- monitor state -----------------------------------------------------
  const NodeRef orig_labeled = Reg(ts, options.label + ".orig_labeled", 1, 0);
  const NodeRef dup_labeled = Reg(ts, options.label + ".dup_labeled", 1, 0);
  const NodeRef orig_done = Reg(ts, options.label + ".orig_done", 1, 0);
  const NodeRef dup_done = Reg(ts, options.label + ".dup_done", 1, 0);
  const NodeRef batch_ct =
      Reg(ts, options.label + ".batch_ct", kCounterWidth, 0);
  const NodeRef out_batch_ct =
      Reg(ts, options.label + ".out_batch_ct", kCounterWidth, 0);
  const NodeRef orig_batch =
      Reg(ts, options.label + ".ORIG_BATCH", kCounterWidth, 0);
  const NodeRef dup_batch =
      Reg(ts, options.label + ".DUP_BATCH", kCounterWidth, 0);
  const NodeRef orig_idx_reg =
      Reg(ts, options.label + ".ORIG_IDX", idx_width, 0);
  std::vector<NodeRef> orig_val(in_size);
  for (size_t w = 0; w < in_size; ++w) {
    orig_val[w] = Reg(ts, options.label + ".orig_val" + std::to_string(w),
                      ctx.width(acc.data_elems[0][w]), 0);
  }
  std::vector<NodeRef> orig_ctx_val(acc.shared_context.size());
  for (size_t c = 0; c < acc.shared_context.size(); ++c) {
    orig_ctx_val[c] =
        Reg(ts, options.label + ".orig_ctx" + std::to_string(c),
            ctx.width(acc.shared_context[c]), 0);
  }
  std::vector<NodeRef> orig_out(out_size);
  for (size_t w = 0; w < out_size; ++w) {
    orig_out[w] = Reg(ts, options.label + ".orig_out" + std::to_string(w),
                      ctx.width(acc.out_elems[0][w]), 0);
  }

  // --- aqed_in: label the original and the duplicate ----------------------
  const std::vector<NodeRef> elem_at_orig_idx =
      MuxByIndex(ctx, fc.orig_idx, acc.data_elems);
  const std::vector<NodeRef> elem_at_dup_idx =
      MuxByIndex(ctx, fc.dup_idx, acc.data_elems);

  const NodeRef label_orig =
      ctx.And(ctx.And(fc.is_orig, capture_in), ctx.Not(orig_labeled));

  // Duplicate data must equal the original's: against the latched value
  // when the original was captured in an earlier batch, or directly against
  // the original element when both live in the same (current) batch.
  const NodeRef match_latched =
      ctx.And(AllEqual(ctx, elem_at_dup_idx, orig_val),
              AllEqual(ctx, acc.shared_context, orig_ctx_val));
  const NodeRef match_same_cycle =
      ctx.And(AllEqual(ctx, elem_at_dup_idx, elem_at_orig_idx),
              ctx.Ne(fc.dup_idx, fc.orig_idx));
  const NodeRef label_dup = ctx.And(
      ctx.And(ctx.And(fc.is_dup, capture_in), ctx.Not(dup_labeled)),
      ctx.Or(ctx.And(orig_labeled, match_latched),
             ctx.And(label_orig, match_same_cycle)));

  LatchWhen(ts, orig_labeled, label_orig, ctx.True());
  LatchWhen(ts, orig_batch, label_orig, batch_ct);
  LatchWhen(ts, orig_idx_reg, label_orig, fc.orig_idx);
  for (size_t w = 0; w < in_size; ++w) {
    LatchWhen(ts, orig_val[w], label_orig, elem_at_orig_idx[w]);
  }
  for (size_t c = 0; c < acc.shared_context.size(); ++c) {
    LatchWhen(ts, orig_ctx_val[c], label_orig, acc.shared_context[c]);
  }
  LatchWhen(ts, dup_labeled, label_dup, ctx.True());
  LatchWhen(ts, dup_batch, label_dup, batch_ct);
  CountWhen(ts, batch_ct, capture_in);

  // --- aqed_out: record the original's output, check the duplicate's ------
  const std::vector<NodeRef> out_at_orig_idx =
      MuxByIndex(ctx, orig_idx_reg, acc.out_elems);

  const NodeRef orig_out_event =
      ctx.And(ctx.And(capture_out, orig_labeled),
              ctx.And(ctx.Not(orig_done), ctx.Eq(out_batch_ct, orig_batch)));
  LatchWhen(ts, orig_done, orig_out_event, ctx.True());
  for (size_t w = 0; w < out_size; ++w) {
    LatchWhen(ts, orig_out[w], orig_out_event, out_at_orig_idx[w]);
  }

  // The duplicate's output element arrives when its batch completes. Note
  // dup_idx is only meaningful in the cycle the duplicate was labeled; latch
  // it like the original's index.
  const NodeRef dup_idx_reg =
      Reg(ts, options.label + ".DUP_IDX", idx_width, 0);
  LatchWhen(ts, dup_idx_reg, label_dup, fc.dup_idx);
  const std::vector<NodeRef> out_at_dup_idx =
      MuxByIndex(ctx, dup_idx_reg, acc.out_elems);

  fc.dup_done_event =
      ctx.And(ctx.And(capture_out, dup_labeled),
              ctx.And(ctx.Not(dup_done), ctx.Eq(out_batch_ct, dup_batch)));
  LatchWhen(ts, dup_done, fc.dup_done_event, ctx.True());
  CountWhen(ts, out_batch_ct, capture_out);

  // Same-batch originals complete in the same output batch as the
  // duplicate: compare live; otherwise compare against the latched output.
  const NodeRef same_batch = ctx.Eq(orig_batch, dup_batch);
  NodeRef outputs_match = ctx.True();
  for (size_t w = 0; w < out_size; ++w) {
    const NodeRef expected =
        ctx.Ite(same_batch, out_at_orig_idx[w], orig_out[w]);
    outputs_match = ctx.And(outputs_match, ctx.Eq(out_at_dup_idx[w], expected));
  }
  fc.fc_check = outputs_match;
  fc.orig_labeled = orig_labeled;
  fc.dup_labeled = dup_labeled;

  const NodeRef fc_violation =
      ctx.And(fc.dup_done_event, ctx.Not(outputs_match));
  fc.fc_bad_index = ts.AddBad(fc_violation, options.label);

  if (options.check_early_output) {
    // Strengthened FC (footnote 1): an output batch whose input batch has
    // not been captured yet is a bug. A same-cycle capture (combinational
    // completion) is tolerated.
    const NodeRef early = ctx.And(
        capture_out,
        ctx.Or(ctx.Ugt(out_batch_ct, batch_ct),
               ctx.And(ctx.Eq(out_batch_ct, batch_ct), ctx.Not(capture_in))));
    fc.early_output_bad_index =
        ts.AddBad(early, options.label + "_early_output");
    fc.has_early_output_bad = true;
  }

  // Equal inputs must give equal outputs: the data path need only be a
  // function, so the unroller may abstract it, and where it only moves bits
  // one bit lane stands for all (bmc::Unroller).
  ir::TransitionSystem::DataPathHint hint;
  for (const std::vector<NodeRef>& elem : acc.out_elems) {
    hint.data_roots.insert(hint.data_roots.end(), elem.begin(), elem.end());
  }
  hint.control_roots = {acc.in_ready, acc.out_valid, acc.progress_qualifier};
  hint.tied_inputs = std::move(tied_inputs);
  ts.SetDataPathHint(std::move(hint));
  return fc;
}

}  // namespace aqed::core
