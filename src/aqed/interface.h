// The accelerator interface model targeted by A-QED (paper Sec. II/III).
//
// An accelerator is a transition system exchanging data with its host
// through a ready-valid handshake:
//   * an input is *captured* in cycles where `in_valid && in_ready`
//     (the host presents a valid action/data and the accelerator is ready,
//     i.e. a(in) != a_nop and rdin(s) holds);
//   * an output is *captured* in cycles where `out_valid && host_ready`
//     (the accelerator produces a valid output, F(s) != o_nop, and the host
//     is ready to accept it, rdh).
//
// Inputs and outputs move in *batches* of `batch_size()` elements per
// handshake (Sec. IV.B: single-input batches are the common case,
// multi-input batches model accelerators that accept several independent
// operands per transaction and may process them in parallel). Each element
// consists of one or more words; `shared_context` lists signals that are
// common to a whole batch and must match between the original and duplicate
// transactions (the paper's AES common-key customization).
#pragma once

#include <cstdint>
#include <vector>

#include "ir/transition_system.h"
#include "support/status.h"

namespace aqed::core {

struct AcceleratorInterface {
  // Handshake (all 1-bit signals of the design's transition system).
  ir::NodeRef in_valid = ir::kNullNode;    // host: a(in) != a_nop
  ir::NodeRef in_ready = ir::kNullNode;    // accelerator: rdin(s)
  ir::NodeRef host_ready = ir::kNullNode;  // host: rdh(in)
  ir::NodeRef out_valid = ir::kNullNode;   // accelerator: F(s) != o_nop

  // data_elems[e][w]: word w of input element e (captured together).
  std::vector<std::vector<ir::NodeRef>> data_elems;
  // out_elems[e][w]: word w of output element e. Outputs are produced in
  // batch order (non-interfering, in-order completion).
  std::vector<std::vector<ir::NodeRef>> out_elems;

  // Batch-common signals (e.g. a shared encryption key) that the FC monitor
  // must hold equal between the original and the duplicate transaction.
  std::vector<ir::NodeRef> shared_context;

  // Optional design signal (e.g. a host clock-enable) gating all progress:
  // the RB monitor does not count disabled cycles toward the response bound
  // (design-specific A-QED customization, Sec. V.A).
  ir::NodeRef progress_qualifier = ir::kNullNode;

  uint32_t batch_size() const {
    return static_cast<uint32_t>(data_elems.size());
  }

  // Checks structural sanity against `ts`: handshake signals are 1-bit,
  // batch shapes are consistent and non-empty.
  Status Validate(const ir::TransitionSystem& ts) const;
};

// Calls `f` on every signal field of `acc`: the handshake, the progress
// qualifier, then the data words, out words and shared context (unset
// fields as kNullNode). Through a mutable `acc`, `f` may rewrite them.
template <typename Interface, typename F>
void ForEachSignal(Interface& acc, F&& f) {
  for (auto* ref : {&acc.in_valid, &acc.in_ready, &acc.host_ready,
                    &acc.out_valid, &acc.progress_qualifier}) {
    f(*ref);
  }
  for (auto& elems : {&acc.data_elems, &acc.out_elems}) {
    for (auto& elem : *elems) {
      for (auto& word : elem) f(word);
    }
  }
  for (auto& ref : acc.shared_context) f(ref);
}

// Width of the monitor's transaction counters. Wide enough that they cannot
// wrap within any realistic BMC bound (bounds beyond 255 frames are far
// outside BMC reach for these designs), so counter equality checks are
// exact; narrow enough to keep the per-frame CNF small.
inline constexpr uint32_t kCounterWidth = 8;

}  // namespace aqed::core
