#include "ir/transition_system.h"

#include <array>

namespace aqed::ir {

NodeRef TransitionSystem::AddInput(const std::string& name, Sort sort) {
  return ctx_.Input(name, sort);
}

NodeRef TransitionSystem::AddState(const std::string& name, Sort sort,
                                   std::optional<uint64_t> init_value) {
  const NodeRef state = ctx_.State(name, sort);
  if (init_value.has_value()) {
    if (sort.is_bitvec()) {
      init_[state] = Truncate(*init_value, sort.width);
    } else {
      init_[state] = Truncate(*init_value, sort.elem_width);
    }
  }
  return state;
}

void TransitionSystem::SetNext(NodeRef state, NodeRef next) {
  AQED_CHECK(ctx_.node(state).op == Op::kState, "SetNext on non-state");
  AQED_CHECK(ctx_.sort(state) == ctx_.sort(next), "SetNext sort mismatch");
  next_[state] = next;
}

void TransitionSystem::SetInit(NodeRef state, uint64_t init_value) {
  AQED_CHECK(ctx_.node(state).op == Op::kState, "SetInit on non-state");
  const Sort& sort = ctx_.sort(state);
  init_[state] = Truncate(init_value,
                          sort.is_bitvec() ? sort.width : sort.elem_width);
}

void TransitionSystem::AddConstraint(NodeRef condition) {
  AQED_CHECK(ctx_.width(condition) == 1, "constraint must be 1 bit");
  constraints_.push_back(condition);
}

uint32_t TransitionSystem::AddBad(NodeRef condition,
                                  const std::string& label) {
  AQED_CHECK(ctx_.width(condition) == 1, "bad predicate must be 1 bit");
  bads_.push_back(condition);
  bad_labels_.push_back(label);
  return static_cast<uint32_t>(bads_.size()) - 1;
}

void TransitionSystem::AddOutput(const std::string& name, NodeRef node) {
  outputs_.emplace_back(name, node);
}

NodeRef TransitionSystem::next(NodeRef state) const {
  auto it = next_.find(state);
  AQED_CHECK(it != next_.end(), "state has no next function");
  return it->second;
}

uint64_t TransitionSystem::init_value(NodeRef state) const {
  auto it = init_.find(state);
  AQED_CHECK(it != init_.end(), "state has no initial value");
  return it->second;
}

NodeRef CopyNode(const TransitionSystem& src, NodeRef ref,
                 std::span<const NodeRef> map, TransitionSystem& dst) {
  const Node& node = src.ctx().node(ref);
  Context& ctx = dst.ctx();
  switch (node.op) {
    case Op::kConst:
      return ctx.Const(node.sort.width, node.const_val);
    case Op::kConstArray:
      return ctx.ConstArray(node.sort.index_width, node.sort.elem_width,
                            ctx.node(map[node.operands[0]]).const_val);
    case Op::kInput:
      return dst.AddInput(node.name, node.sort);
    case Op::kState: {
      std::optional<uint64_t> init;
      if (src.has_init(ref)) init = src.init_value(ref);
      return dst.AddState(node.name, node.sort, init);
    }
    default:
      break;
  }
  std::array<NodeRef, 3> operands;
  for (size_t i = 0; i < node.operands.size(); ++i) {
    operands[i] = map[node.operands[i]];
  }
  return ctx.Build(node.op, std::span(operands.data(), node.operands.size()),
                   node.aux0, node.aux1, node.sort.width);
}

void MarkCone(const TransitionSystem& ts, std::span<const NodeRef> roots,
              std::vector<bool>& marked, const std::vector<bool>& stop) {
  marked.resize(ts.ctx().num_nodes(), false);
  std::vector<NodeRef> work;
  const auto mark = [&](NodeRef ref) {
    if (ref == kNullNode || marked[ref]) return;
    marked[ref] = true;
    if (ref >= stop.size() || !stop[ref]) work.push_back(ref);
  };
  for (NodeRef root : roots) mark(root);
  while (!work.empty()) {
    const NodeRef ref = work.back();
    work.pop_back();
    const Node& node = ts.ctx().node(ref);
    for (NodeRef operand : node.operands) mark(operand);
    if (node.op == Op::kState) mark(ts.next(ref));
  }
}

}  // namespace aqed::ir
