#include "bmc/unroller.h"

#include <algorithm>
#include <array>

#include "ir/eval.h"
#include "support/status.h"
#include "telemetry/metrics.h"

namespace aqed::bmc {

using bitblast::ArrayBits;
using bitblast::Bits;
using ir::Node;
using ir::NodeRef;
using ir::Op;
using ir::Sort;

namespace {

bool IsArithmetic(Op op) {
  return op == Op::kAdd || op == Op::kSub || op == Op::kMul;
}

// Equality of two literals, as clauses under the condition `when`.
void AssertEqualWhen(sat::Solver& solver, sat::Lit when, sat::Lit a,
                     sat::Lit b) {
  solver.AddClause({~when, ~a, b});
  solver.AddClause({~when, a, ~b});
}

}  // namespace

Unroller::Unroller(const ir::TransitionSystem& ts,
                   bitblast::BitBlaster& blaster, bool free_initial_state)
    : ts_(ts), blaster_(blaster), free_initial_state_(free_initial_state) {
  SelectAbstractNodes();
  // A free initial state may hold lanes that differ, which the tie cannot
  // express (DESIGN.md §6 item 9).
  if (!free_initial_state_) {
    tied_.assign(ts_.ctx().num_nodes(), 0);
    for (NodeRef input : ts_.data_path_hint().tied_inputs) tied_[input] = 1;
  }
  if (!abstracted_nodes_.empty()) {
    blaster_.gates().solver().SetModelCheck(
        [this](std::span<const sat::LBool> model) { return Refine(model); });
  }
}

Unroller::~Unroller() {
  if (!abstracted_nodes_.empty()) {
    blaster_.gates().solver().SetModelCheck(nullptr);
  }
}

void Unroller::SelectAbstractNodes() {
  const ir::TransitionSystem::DataPathHint& hint = ts_.data_path_hint();
  if (hint.data_roots.empty()) return;
  const ir::Context& ctx = ts_.ctx();
  // An array index selects which element moves, so it is control even
  // where it only feeds data: abstracting a FIFO's pointer increments
  // lets the solver read any slot.
  std::vector<NodeRef> control = hint.control_roots;
  for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
    const Node& node = ctx.node(ref);
    if (node.op == Op::kRead || node.op == Op::kWrite) {
      control.push_back(node.operands[1]);
    }
  }
  std::vector<bool> data, reaches_control;
  ir::MarkCone(ts_, hint.data_roots, data);
  ir::MarkCone(ts_, control, reaches_control);
  abstract_.assign(ctx.num_nodes(), 0);
  for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
    const Node& node = ctx.node(ref);
    if (!data[ref] || reaches_control[ref] || !IsArithmetic(node.op) ||
        node.sort.width < 2) {
      continue;
    }
    for (NodeRef operand : node.operands) {
      if (ctx.node(operand).op != Op::kConst) {
        abstract_[ref] = 1;
        abstracted_nodes_.push_back(ref);
        break;
      }
    }
  }
}

void Unroller::AddFrame() {
  const uint32_t frame = num_frames();
  const ir::Context& ctx = ts_.ctx();
  auto& scalars = scalar_frames_.emplace_back(ctx.num_nodes());
  auto& arrays = array_frames_.emplace_back(ctx.num_nodes());

  for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
    const Node& node = ctx.node(ref);
    switch (node.op) {
      case Op::kConst:
        scalars[ref] = blaster_.Constant(node.sort.width, node.const_val);
        continue;
      case Op::kConstArray:
        arrays[ref] = blaster_.ConstantArray(
            node.sort.index_width, node.sort.elem_width,
            ctx.node(node.operands[0]).const_val);
        continue;
      case Op::kInput:
        scalars[ref] = ref < tied_.size() && tied_[ref]
                           ? Bits(node.sort.width, blaster_.gates().Fresh())
                           : blaster_.Fresh(node.sort.width);
        continue;
      case Op::kState: {
        if (frame == 0) {
          const bool initialized = ts_.has_init(ref) && !free_initial_state_;
          if (node.sort.is_bitvec()) {
            scalars[ref] = initialized
                               ? blaster_.Constant(node.sort.width,
                                                   ts_.init_value(ref))
                               : blaster_.Fresh(node.sort.width);
          } else {
            arrays[ref] =
                initialized
                    ? blaster_.ConstantArray(node.sort.index_width,
                                             node.sort.elem_width,
                                             ts_.init_value(ref))
                    : blaster_.FreshArray(node.sort.index_width,
                                          node.sort.elem_width);
          }
        } else {
          const NodeRef next = ts_.next(ref);
          if (node.sort.is_bitvec()) {
            scalars[ref] = scalar_frames_[frame - 1][next];
          } else {
            arrays[ref] = array_frames_[frame - 1][next];
          }
        }
        continue;
      }
      case Op::kIte:
        if (node.sort.is_array()) {
          arrays[ref] = blaster_.IteArray(scalars[node.operands[0]][0],
                                          arrays[node.operands[1]],
                                          arrays[node.operands[2]]);
          continue;
        }
        break;
      case Op::kRead:
        scalars[ref] = blaster_.Read(arrays[node.operands[0]],
                                     scalars[node.operands[1]]);
        continue;
      case Op::kWrite:
        arrays[ref] = blaster_.Write(arrays[node.operands[0]],
                                     scalars[node.operands[1]],
                                     scalars[node.operands[2]]);
        continue;
      default:
        break;
    }
    scalars[ref] = ref < abstract_.size() && abstract_[ref]
                       ? AbstractInstance(ref, frame)
                       : EncodeOp(ref, frame);
  }

  // Environment assumptions hold in every frame.
  for (NodeRef constraint : ts_.constraints()) {
    blaster_.gates().Assert(scalars[constraint][0]);
  }
}

Bits Unroller::EncodeOp(NodeRef ref, uint32_t frame) {
  const Node& node = ts_.ctx().node(ref);
  std::array<Bits, 3> operand_bits;
  for (size_t i = 0; i < node.operands.size(); ++i) {
    operand_bits[i] = scalar_frames_[frame][node.operands[i]];
  }
  return blaster_.EvalScalarOp(
      node.op, node.sort.width,
      std::span(operand_bits.data(), node.operands.size()), node.aux0,
      node.aux1);
}

Bits Unroller::AbstractInstance(NodeRef ref, uint32_t frame) {
  bitblast::GateBuilder& gates = blaster_.gates();
  const Node& node = ts_.ctx().node(ref);
  const std::vector<Bits>& scalars = scalar_frames_[frame];
  const auto constant = [&](NodeRef operand) {
    return std::ranges::all_of(
        scalars[operand], [&](sat::Lit lit) { return gates.IsConstant(lit); });
  };
  // Over constant operands the encoding folds to a constant: keep it.
  if (std::ranges::all_of(node.operands, constant)) return EncodeOp(ref, frame);
  const Bits out = blaster_.Fresh(node.sort.width);
  for (uint32_t earlier = 0; earlier < frame; ++earlier) {
    sat::Lit same_operands = gates.True();
    for (NodeRef operand : node.operands) {
      same_operands = gates.And(
          same_operands,
          blaster_.Eq(scalars[operand], scalar_frames_[earlier][operand]));
    }
    if (gates.IsFalse(same_operands)) continue;
    const Bits& other = scalar_frames_[earlier][ref];
    for (size_t bit = 0; bit < out.size(); ++bit) {
      AssertEqualWhen(gates.solver(), same_operands, out[bit], other[bit]);
    }
  }
  return out;
}

bool Unroller::InstancesHold(std::span<const sat::LBool> model,
                             NodeRef ref) const {
  const ir::Context& ctx = ts_.ctx();
  const Node& node = ctx.node(ref);
  const size_t arity = node.operands.size();
  std::array<uint64_t, 3> values;
  std::array<uint32_t, 3> widths;
  for (size_t i = 0; i < arity; ++i) widths[i] = ctx.width(node.operands[i]);
  for (const std::vector<Bits>& scalars : scalar_frames_) {
    for (size_t i = 0; i < arity; ++i) {
      values[i] = ModelOfBits(model, scalars[node.operands[i]]);
    }
    if (ir::EvalScalarOp(node.op, node.sort.width,
                         std::span(values.data(), arity),
                         std::span(widths.data(), arity), node.aux0,
                         node.aux1) != ModelOfBits(model, scalars[ref])) {
      return false;
    }
  }
  return true;
}

bool Unroller::ModelIsConcrete(std::span<const sat::LBool> model) const {
  for (NodeRef ref : abstracted_nodes_) {
    if (abstract_[ref] && !InstancesHold(model, ref)) return false;
  }
  return true;
}

bool Unroller::Refine(std::span<const sat::LBool> model) {
  // Evaluate every instance before adding anything: new variables leave
  // the solver's model behind `model`.
  std::vector<NodeRef> wrong;
  for (NodeRef ref : abstracted_nodes_) {
    if (abstract_[ref] && !InstancesHold(model, ref)) wrong.push_back(ref);
  }
  if (wrong.empty()) return false;
  bitblast::GateBuilder& gates = blaster_.gates();
  for (NodeRef ref : wrong) {
    abstract_[ref] = 0;  // later frames encode it concretely
    for (uint32_t frame = 0; frame < num_frames(); ++frame) {
      const Bits concrete = EncodeOp(ref, frame);
      const Bits& out = scalar_frames_[frame][ref];
      for (size_t bit = 0; bit < out.size(); ++bit) {
        AssertEqualWhen(gates.solver(), gates.True(), out[bit],
                        concrete[bit]);
      }
    }
  }
  ++refinements_;
  telemetry::AddCounter("bmc.refinements", 1);
  return true;
}

sat::Lit Unroller::FramesEqual(uint32_t frame_a, uint32_t frame_b) {
  bitblast::GateBuilder& gates = blaster_.gates();
  sat::Lit equal = gates.True();
  for (NodeRef state : ts_.states()) {
    if (ts_.ctx().sort(state).is_bitvec()) {
      equal = gates.And(equal,
                        blaster_.Eq(scalar_frames_[frame_a][state],
                                    scalar_frames_[frame_b][state]));
    } else {
      const ArrayBits& a = array_frames_[frame_a][state];
      const ArrayBits& b = array_frames_[frame_b][state];
      for (size_t i = 0; i < a.elems.size(); ++i) {
        equal = gates.And(equal, blaster_.Eq(a.elems[i], b.elems[i]));
      }
    }
  }
  return equal;
}

sat::Lit Unroller::BadLit(uint32_t frame, uint32_t bad_index) const {
  return scalar_frames_[frame][ts_.bads()[bad_index]][0];
}

const Bits& Unroller::NodeBits(NodeRef node, uint32_t frame) const {
  return scalar_frames_[frame][node];
}

uint64_t Unroller::ModelOfBits(std::span<const sat::LBool> model,
                               const Bits& bits) const {
  uint64_t value = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    // Unassigned model bits (possible for don't-care inputs) default to 0.
    const sat::Lit lit = bits[i];
    const sat::LBool var_value = model[lit.var()];
    const bool lit_true = lit.negated() ? var_value == sat::LBool::kFalse
                                        : var_value == sat::LBool::kTrue;
    if (lit_true) value |= uint64_t{1} << i;
  }
  return value;
}

uint64_t Unroller::ModelValue(std::span<const sat::LBool> model,
                              NodeRef node, uint32_t frame) const {
  return ModelOfBits(model, scalar_frames_[frame][node]);
}

Trace Unroller::ExtractTrace(std::span<const sat::LBool> model,
                             uint32_t length,
                             uint32_t bad_index) const {
  AQED_CHECK(length >= 1 && length <= num_frames(), "trace length invalid");
  Trace trace;
  trace.bad_index = bad_index;
  trace.bad_label = ts_.bad_labels()[bad_index];
  trace.inputs.resize(length);
  for (uint32_t t = 0; t < length; ++t) {
    for (NodeRef input : ts_.inputs()) {
      trace.inputs[t][input] =
          ModelOfBits(model, scalar_frames_[t][input]);
    }
  }
  for (NodeRef state : ts_.states()) {
    if (ts_.ctx().sort(state).is_bitvec()) {
      trace.initial_states[state] =
          ModelOfBits(model, scalar_frames_[0][state]);
    } else {
      const ArrayBits& array = array_frames_[0][state];
      std::vector<uint64_t> values(array.elems.size());
      for (size_t i = 0; i < array.elems.size(); ++i) {
        values[i] = ModelOfBits(model, array.elems[i]);
      }
      trace.initial_arrays[state] = std::move(values);
    }
  }
  return trace;
}

}  // namespace aqed::bmc
