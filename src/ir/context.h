// Hash-consed builder for the word-level IR.
//
// The Context owns all nodes of one design. Pure operation nodes are
// structurally hash-consed (identical op + operands => identical NodeRef) and
// lightly constant-folded, so design builders can compute with IR expressions
// freely without blowing up the graph. Inputs and states are never shared.
//
// NodeRefs are indices into the context's node table; operands always have a
// smaller index than their users, so node-table order is a topological order
// (the simulator and bit-blaster rely on this).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "ir/node.h"

namespace aqed::ir {

class Context {
 public:
  Context();
  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;
  Context(Context&&) = default;
  Context& operator=(Context&&) = default;

  const Node& node(NodeRef ref) const { return nodes_[ref]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  const Sort& sort(NodeRef ref) const { return nodes_[ref].sort; }
  uint32_t width(NodeRef ref) const { return nodes_[ref].sort.width; }

  // --- leaves ---------------------------------------------------------
  NodeRef Const(uint32_t width, uint64_t value);
  NodeRef True() { return Const(1, 1); }
  NodeRef False() { return Const(1, 0); }
  NodeRef Bit(bool value) { return Const(1, value ? 1 : 0); }
  NodeRef ConstArray(uint32_t index_width, uint32_t elem_width,
                     uint64_t value);
  NodeRef Input(const std::string& name, Sort sort);
  NodeRef State(const std::string& name, Sort sort);

  // --- bitwise ----------------------------------------------------------
  NodeRef Not(NodeRef a);
  NodeRef And(NodeRef a, NodeRef b);
  NodeRef Or(NodeRef a, NodeRef b);
  NodeRef Xor(NodeRef a, NodeRef b);
  NodeRef Implies(NodeRef a, NodeRef b) { return Or(Not(a), b); }
  // Variadic conveniences over 1-bit values.
  NodeRef AndAll(std::span<const NodeRef> xs);
  NodeRef OrAll(std::span<const NodeRef> xs);

  // --- arithmetic -------------------------------------------------------
  NodeRef Neg(NodeRef a);
  NodeRef Add(NodeRef a, NodeRef b);
  NodeRef Sub(NodeRef a, NodeRef b);
  NodeRef Mul(NodeRef a, NodeRef b);
  NodeRef Udiv(NodeRef a, NodeRef b);
  NodeRef Urem(NodeRef a, NodeRef b);

  // --- comparison ---------------------------------------------------------
  NodeRef Eq(NodeRef a, NodeRef b);
  NodeRef Ne(NodeRef a, NodeRef b);
  NodeRef Ult(NodeRef a, NodeRef b);
  NodeRef Ule(NodeRef a, NodeRef b);
  NodeRef Ugt(NodeRef a, NodeRef b) { return Ult(b, a); }
  NodeRef Uge(NodeRef a, NodeRef b) { return Ule(b, a); }
  NodeRef Slt(NodeRef a, NodeRef b);
  NodeRef Sle(NodeRef a, NodeRef b);

  // --- shifts ------------------------------------------------------------
  NodeRef Shl(NodeRef a, NodeRef amount);
  NodeRef Lshr(NodeRef a, NodeRef amount);
  NodeRef Ashr(NodeRef a, NodeRef amount);

  // --- structure ---------------------------------------------------------
  NodeRef Ite(NodeRef cond, NodeRef then_val, NodeRef else_val);
  NodeRef Concat(NodeRef high, NodeRef low);
  NodeRef Extract(NodeRef a, uint32_t hi, uint32_t lo);
  NodeRef Zext(NodeRef a, uint32_t new_width);
  NodeRef Sext(NodeRef a, uint32_t new_width);

  // --- arrays -------------------------------------------------------------
  NodeRef Read(NodeRef array, NodeRef index);
  NodeRef Write(NodeRef array, NodeRef index, NodeRef value);

  // --- any operation ----------------------------------------------------
  // The typed builder of operation `op` over `operands`, the one switch
  // from Op to builder: rebuilt nodes (mutants, fragments) and imported
  // BTOR2 lines come through here. aux0/aux1 are kExtract's hi/lo bits and
  // `width` the kZext/kSext target width; the other operations ignore them.
  // Leaves are not operations (checked).
  NodeRef Build(Op op, std::span<const NodeRef> operands, uint32_t aux0 = 0,
                uint32_t aux1 = 0, uint32_t width = 0);

  // All input / state nodes, in creation order.
  const std::vector<NodeRef>& inputs() const { return inputs_; }
  const std::vector<NodeRef>& states() const { return states_; }

 private:
  struct Key {
    Op op;
    uint64_t const_val;
    uint32_t aux0, aux1;
    uint32_t sort_tag;  // disambiguates same-shape ops of different sorts
    std::vector<NodeRef> operands;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };

  NodeRef Intern(Op op, Sort sort, std::vector<NodeRef> operands,
                 uint64_t const_val = 0, uint32_t aux0 = 0, uint32_t aux1 = 0);
  NodeRef MakeBinary(Op op, Sort sort, NodeRef a, NodeRef b);
  bool IsConst(NodeRef ref) const { return nodes_[ref].op == Op::kConst; }
  uint64_t ConstVal(NodeRef ref) const { return nodes_[ref].const_val; }
  // Attempts constant folding; returns kNullNode when not foldable.
  NodeRef TryFold(Op op, Sort sort, std::span<const NodeRef> operands,
                  uint32_t aux0, uint32_t aux1);

  std::vector<Node> nodes_;
  std::unordered_map<Key, NodeRef, KeyHash> cache_;
  std::vector<NodeRef> inputs_;
  std::vector<NodeRef> states_;
};

}  // namespace aqed::ir
