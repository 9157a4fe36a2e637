// Single-Action-Correctness (SAC) instrumentation — paper Def. 7.
//
// SAC closes the gap between self-consistency and full functional
// correctness (Proposition 1: FC + RB + SAC + strong connectedness =>
// total correctness w.r.t. a specification). Unlike FC/RB it needs a
// specification, but only a combinational input->output function, not a
// sequential golden model.
//
// The monitor constrains the environment to Def. 7's input shape — one valid
// transaction presented from reset, nop afterwards — latches the captured
// action/data, and checks that the first captured output batch equals
// Spec(action, data). Since that checks the data path's values, it clears
// the system's DataPathHint: an FC monitor on the same system keeps a
// concrete data path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "aqed/interface.h"
#include "ir/transition_system.h"

namespace aqed::core {

// Builds the expected output for one batch element: given the element's
// input words (IR nodes in `ctx`), returns the expected output words.
using SpecFn = std::function<std::vector<ir::NodeRef>(
    ir::Context& ctx, const std::vector<ir::NodeRef>& elem_inputs)>;

struct SacOptions {
  std::string label = "aqed_sac";
};

struct SacInstrumentation {
  uint32_t sac_bad_index = 0;
  ir::NodeRef got_input = ir::kNullNode;  // transaction captured
  ir::NodeRef first_out_event = ir::kNullNode;
};

// Adds the SAC monitor to `ts`. The spec is applied per batch element to the
// latched captured inputs. Shared-context signals are passed to `spec`
// appended after the element inputs.
SacInstrumentation InstrumentSac(ir::TransitionSystem& ts,
                                 const AcceleratorInterface& acc,
                                 const SpecFn& spec,
                                 const SacOptions& options = {});

}  // namespace aqed::core
