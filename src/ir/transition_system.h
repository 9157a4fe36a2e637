// Synchronous transition system over the word-level IR.
//
// This is the formal object of the paper's Def. 1: a finite-state system with
// inputs, registered state (init/next), invariant constraints on the inputs
// (the environment assumptions), named outputs, and "bad" predicates whose
// reachability BMC checks. One TransitionSystem owns one Context.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/context.h"
#include "support/status.h"

namespace aqed::ir {

class TransitionSystem {
 public:
  Context& ctx() { return ctx_; }
  const Context& ctx() const { return ctx_; }

  // Creates a free input of the given sort, fresh every cycle under BMC.
  NodeRef AddInput(const std::string& name, Sort sort);

  // Creates a register/memory state. If `init` is given it must be a
  // constant (kConst / kConstArray); states without init start symbolic.
  NodeRef AddState(const std::string& name, Sort sort,
                   std::optional<uint64_t> init_value = std::nullopt);

  // Defines the next-state function of `state` (mandatory for every state).
  void SetNext(NodeRef state, NodeRef next);

  // Sets/overrides the initial value of an existing state (importers use
  // this when init lines arrive after the state declaration).
  void SetInit(NodeRef state, uint64_t init_value);

  // Asserts `condition` (1-bit) as an environment assumption every cycle.
  void AddConstraint(NodeRef condition);

  // Registers `condition` (1-bit) as a property violation to search for.
  // Returns the bad-state index used by the BMC engine.
  uint32_t AddBad(NodeRef condition, const std::string& label);

  // Names a signal for tracing / simulation visibility.
  void AddOutput(const std::string& name, NodeRef node);

  // Interface roots of a functional-consistency check, recorded by
  // core::InstrumentFc. FC asks only whether equal inputs give equal
  // outputs, so arithmetic that feeds the data roots but none of the
  // control roots may be abstracted, and the bit lanes of data inputs that
  // the design only moves may be tied (bmc::Unroller). A hint, not
  // semantics: digests, cache keys and the BTOR2 printer ignore it.
  struct DataPathHint {
    std::vector<NodeRef> data_roots;     // output words
    // Handshake and progress signals; kNullNode entries are ignored.
    std::vector<NodeRef> control_roots;
    // Data inputs whose lanes may share one literal per frame.
    std::vector<NodeRef> tied_inputs;
  };
  void SetDataPathHint(DataPathHint hint) { data_path_hint_ = std::move(hint); }
  const DataPathHint& data_path_hint() const { return data_path_hint_; }

  NodeRef next(NodeRef state) const;
  bool has_init(NodeRef state) const { return init_.contains(state); }
  // Initial value of a (bitvector or array) state; arrays are uniform-init.
  uint64_t init_value(NodeRef state) const;

  const std::vector<NodeRef>& inputs() const { return ctx_.inputs(); }
  const std::vector<NodeRef>& states() const { return ctx_.states(); }
  const std::vector<NodeRef>& constraints() const { return constraints_; }
  const std::vector<NodeRef>& bads() const { return bads_; }
  const std::vector<std::string>& bad_labels() const { return bad_labels_; }
  const std::vector<std::pair<std::string, NodeRef>>& outputs() const {
    return outputs_;
  }

  // Structural well-formedness check (widths, next-function coverage).
  Status Validate() const;

 private:
  Context ctx_;
  std::unordered_map<NodeRef, NodeRef> next_;
  std::unordered_map<NodeRef, uint64_t> init_;
  std::vector<NodeRef> constraints_;
  std::vector<NodeRef> bads_;
  std::vector<std::string> bad_labels_;
  std::vector<std::pair<std::string, NodeRef>> outputs_;
  DataPathHint data_path_hint_;
};

// Copies node `ref` of `src` into `dst`, whose copies of src's nodes are
// `map`ped (map[o] is the copy of operand o). An input or state is added
// again under its name, sort and init (its next function is the caller's
// to set), a constant is re-interned, a const-array is rebuilt over its
// mapped default, and an operation goes through Context::Build, so
// hash-consing and folding act as in a fresh build. Copying every node in
// ascending order reproduces `src` node for node.
NodeRef CopyNode(const TransitionSystem& src, NodeRef ref,
                 std::span<const NodeRef> map, TransitionSystem& dst);

// Marks every node that `roots` reach through operands and, at states,
// through next-state functions (kNullNode roots are skipped). A node in
// `stop` is marked but not entered. Marked nodes are not entered again, so
// repeated calls grow one cone; `marked` is sized to the system here.
void MarkCone(const TransitionSystem& ts, std::span<const NodeRef> roots,
              std::vector<bool>& marked, const std::vector<bool>& stop = {});

}  // namespace aqed::ir
