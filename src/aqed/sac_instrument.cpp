#include "aqed/sac_instrument.h"

#include "aqed/monitor_util.h"
#include "support/status.h"

namespace aqed::core {

using ir::Context;
using ir::NodeRef;

SacInstrumentation InstrumentSac(ir::TransitionSystem& ts,
                                 const AcceleratorInterface& acc,
                                 const SpecFn& spec,
                                 const SacOptions& options) {
  const Status valid = acc.Validate(ts);
  AQED_CHECK(valid.ok(), "InstrumentSac: " + valid.message());
  Context& ctx = ts.ctx();
  SacInstrumentation sac;

  const NodeRef capture_in = ctx.And(acc.in_valid, acc.in_ready);
  const NodeRef capture_out = ctx.And(acc.out_valid, acc.host_ready);

  // Def. 7 environment: the host presents exactly one valid transaction,
  // holding in_valid until it is captured, then sends nop forever while
  // staying ready to accept the output.
  const NodeRef got_input = Reg(ts, options.label + ".got_input", 1, 0);
  SetSticky(ts, got_input, capture_in);
  ts.AddConstraint(ctx.Eq(acc.in_valid, ctx.Not(got_input)));
  ts.AddConstraint(acc.host_ready);

  // Latch the captured transaction (per element) and shared context.
  const size_t in_size = acc.data_elems[0].size();
  std::vector<std::vector<NodeRef>> latched(acc.batch_size());
  for (uint32_t e = 0; e < acc.batch_size(); ++e) {
    latched[e].resize(in_size);
    for (size_t w = 0; w < in_size; ++w) {
      latched[e][w] = Reg(ts,
                          options.label + ".in" + std::to_string(e) + "_" +
                              std::to_string(w),
                          ctx.width(acc.data_elems[e][w]), 0);
      LatchWhen(ts, latched[e][w], capture_in, acc.data_elems[e][w]);
    }
  }
  std::vector<NodeRef> latched_context(acc.shared_context.size());
  for (size_t c = 0; c < acc.shared_context.size(); ++c) {
    latched_context[c] = Reg(ts, options.label + ".ctx" + std::to_string(c),
                             ctx.width(acc.shared_context[c]), 0);
    LatchWhen(ts, latched_context[c], capture_in, acc.shared_context[c]);
  }

  // First captured output batch must equal Spec element-wise.
  const NodeRef seen_out = Reg(ts, options.label + ".seen_out", 1, 0);
  SetSticky(ts, seen_out, capture_out);
  sac.first_out_event = ctx.And(capture_out, ctx.Not(seen_out));

  NodeRef all_match = ctx.True();
  for (uint32_t e = 0; e < acc.batch_size(); ++e) {
    std::vector<NodeRef> spec_inputs = latched[e];
    spec_inputs.insert(spec_inputs.end(), latched_context.begin(),
                       latched_context.end());
    const std::vector<NodeRef> expected = spec(ctx, spec_inputs);
    AQED_CHECK(expected.size() == acc.out_elems[e].size(),
               "SAC spec output arity mismatch");
    for (size_t w = 0; w < expected.size(); ++w) {
      all_match = ctx.And(all_match,
                          ctx.Eq(acc.out_elems[e][w], expected[w]));
    }
  }
  // The transaction counts as captured either in an earlier cycle
  // (got_input) or in this very cycle (combinational completion).
  const NodeRef violation =
      ctx.And(ctx.And(sac.first_out_event, ctx.Or(got_input, capture_in)),
              ctx.Not(all_match));
  sac.sac_bad_index = ts.AddBad(violation, options.label);
  // SAC checks the outputs' values against the specification, so an FC
  // monitor sharing this system may no longer abstract the data path.
  ts.SetDataPathHint({});
  sac.got_input = got_input;
  return sac;
}

}  // namespace aqed::core
