// Time-frame expansion of a transition system into CNF.
//
// Frame t maps every scalar IR node to a literal vector and every array node
// to one literal vector per element. Inputs get fresh literals per frame;
// states take their init constants at frame 0 (fresh literals when
// uninitialized, or for every state with `free_initial_state`) and the
// previous frame's next-function literals afterwards; environment
// constraints are asserted in every frame. AddFrame expands one whole frame
// in node order, which is topological.
//
// Data-path abstraction. A system that carries a DataPathHint (core::
// InstrumentFc) is checked only for functional consistency, which needs the
// data path to be *a* function, not *this* one. The constructor derives the
// data nodes: the cone of the hint's data roots minus the cone of its
// control roots and of every array index, both cones followed through
// next-state functions. Each kAdd/kSub/kMul data node of width >= 2 with a
// non-constant operand is abstract: each frame gives it fresh output bits
// plus Ackermann constraints against its instances in earlier frames (equal
// operands imply equal outputs), instead of a carry chain. The abstraction
// over-approximates, so an UNSAT depth is UNSAT concretely. The unroller
// installs Refine as its solver's model check (sat::Solver::SetModelCheck),
// so Solve only returns models in which every abstract instance computes
// its operation; a node caught computing something else is concretized.
//
// Lane tying. A data input in the hint's tied_inputs (core::InstrumentFc
// lists those the design only moves bit by bit) gets one fresh literal per
// frame, repeated across its width, so structural hashing folds its bit
// lanes into one. This is exact for FC: every FC violation has a
// lane-uniform twin at the same depth (DESIGN.md §6 item 9). The step
// unrolling of k-induction (`free_initial_state`) does not tie, since a
// free state may hold lanes that differ.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bitblast/bitblaster.h"
#include "bmc/trace.h"
#include "ir/transition_system.h"

namespace aqed::bmc {

class Unroller {
 public:
  // `free_initial_state` ignores declared init values and gives every state
  // fresh literals at frame 0 — the unrolling used by the inductive step of
  // k-induction (any state, not just the reset state).
  Unroller(const ir::TransitionSystem& ts, bitblast::BitBlaster& blaster,
           bool free_initial_state = false);
  // Removes the model check from the solver, which must still exist.
  ~Unroller();

  Unroller(const Unroller&) = delete;
  Unroller& operator=(const Unroller&) = delete;

  // Expands one more time frame (frame index == previous num_frames()).
  void AddFrame();
  uint32_t num_frames() const {
    return static_cast<uint32_t>(scalar_frames_.size());
  }

  // Literal of bad predicate `bad_index` in `frame`.
  sat::Lit BadLit(uint32_t frame, uint32_t bad_index) const;

  // Literal vector of a scalar node in a frame.
  const bitblast::Bits& NodeBits(ir::NodeRef node, uint32_t frame) const;

  // Reads a scalar node's value in a frame out of a satisfying model
  // (indexed by variable; unassigned bits read as 0).
  uint64_t ModelValue(std::span<const sat::LBool> model, ir::NodeRef node,
                      uint32_t frame) const;

  // Builds a full input/initial-state trace of `length` frames from a model.
  Trace ExtractTrace(std::span<const sat::LBool> model, uint32_t length,
                     uint32_t bad_index) const;

  // Literal that is true iff every state (registers and memories) holds the
  // same value in `frame_a` and `frame_b` — used for simple-path
  // (loop-freeness) constraints in k-induction.
  sat::Lit FramesEqual(uint32_t frame_a, uint32_t frame_b);

  // The data-path nodes abstracted at construction, in node order; empty
  // for a system without a DataPathHint.
  const std::vector<ir::NodeRef>& abstracted_nodes() const {
    return abstracted_nodes_;
  }

  // Whether every abstract instance in `model` holds the value its
  // operation gives its operands' values, i.e. the model is concrete.
  // Read-only, so cube workers may call it concurrently.
  bool ModelIsConcrete(std::span<const sat::LBool> model) const;

  // Concretizes every abstract node with a wrong instance in `model`: in
  // all frames built so far through equality clauses, and in every later
  // frame by its bit-level encoding. Returns whether it concretized any.
  // Adds clauses, so the solver must be at decision level 0.
  bool Refine(std::span<const sat::LBool> model);

  // Refine calls that concretized at least one node.
  uint64_t refinements() const { return refinements_; }

 private:
  uint64_t ModelOfBits(std::span<const sat::LBool> model,
                       const bitblast::Bits& bits) const;
  // Derives the abstract nodes from the system's DataPathHint.
  void SelectAbstractNodes();
  // The bit-level encoding of scalar operation `ref` over its operands'
  // literals in `frame`.
  bitblast::Bits EncodeOp(ir::NodeRef ref, uint32_t frame);
  // Fresh output bits of abstract node `ref` in `frame`, with Ackermann
  // constraints against its instances in earlier frames.
  bitblast::Bits AbstractInstance(ir::NodeRef ref, uint32_t frame);
  // Whether `ref` computes its operation in every frame of `model`.
  bool InstancesHold(std::span<const sat::LBool> model,
                     ir::NodeRef ref) const;

  const ir::TransitionSystem& ts_;
  bitblast::BitBlaster& blaster_;
  const bool free_initial_state_;
  std::vector<std::vector<bitblast::Bits>> scalar_frames_;      // [frame][node]
  std::vector<std::vector<bitblast::ArrayBits>> array_frames_;  // [frame][node]
  std::vector<ir::NodeRef> abstracted_nodes_;
  std::vector<uint8_t> abstract_;  // [node]: still abstract
  std::vector<uint8_t> tied_;      // [node]: one literal for every lane
  uint64_t refinements_ = 0;
};

}  // namespace aqed::bmc
