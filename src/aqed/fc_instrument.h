// Functional-Consistency (FC) instrumentation — the A-QED module of the
// paper's Fig. 4, expressed as a transformation on the accelerator's
// transition system.
//
// The monitor adds free symbolic control inputs (is_orig / is_dup and, for
// multi-element batches, orig_idx / dup_idx) that let the BMC engine choose
// which captured input is the "original" and which later captured input with
// *identical action/data* (and identical shared context) is the "duplicate".
// It records the original's output when its transaction completes, and when
// the duplicate's transaction completes it checks both outputs match:
//
//     dup_done -> fc_check            (paper Sec. IV.B)
//
// A violation is registered as a bad predicate for the BMC engine. Per the
// paper's footnote 1, FC is strengthened with a second bad predicate that
// fires if the accelerator emits an output batch before having captured the
// corresponding input batch.
//
// It also records the interface roots on the system as its DataPathHint,
// from which bmc::Unroller abstracts the data path (DESIGN.md §6). Before
// adding the monitor it checks whether the design only moves its data bits
// — lane-wise muxes, bitwise gates, memories and registers with
// lane-uniform constants beside them, nothing that reads data into control
// — and if so lists the data inputs as tied_inputs, whose bit lanes the
// unroller then ties into one (DESIGN.md §6 item 9).
#pragma once

#include <string>

#include "aqed/interface.h"
#include "ir/transition_system.h"

namespace aqed::core {

struct FcOptions {
  // Label of the generated bad predicates (prefixed).
  std::string label = "aqed_fc";
  // Also add the strengthened "no output before input" check (footnote 1).
  bool check_early_output = true;
};

struct FcInstrumentation {
  uint32_t fc_bad_index = 0;             // dup_done && !fc_check
  uint32_t early_output_bad_index = 0;   // valid if has_early_output_bad
  bool has_early_output_bad = false;

  // Free monitor control inputs (useful for trace inspection).
  ir::NodeRef is_orig = ir::kNullNode;
  ir::NodeRef is_dup = ir::kNullNode;
  ir::NodeRef orig_idx = ir::kNullNode;  // element index within batch
  ir::NodeRef dup_idx = ir::kNullNode;

  // Monitor status signals.
  ir::NodeRef orig_labeled = ir::kNullNode;
  ir::NodeRef dup_labeled = ir::kNullNode;
  ir::NodeRef dup_done_event = ir::kNullNode;  // dup output captured now
  ir::NodeRef fc_check = ir::kNullNode;        // outputs match (at event)
};

// Adds the FC monitor to `ts`. `acc` must Validate() against `ts`.
FcInstrumentation InstrumentFc(ir::TransitionSystem& ts,
                               const AcceleratorInterface& acc,
                               const FcOptions& options = {});

}  // namespace aqed::core
