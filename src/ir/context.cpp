#include "ir/context.h"

#include <array>
#include <string>

#include "ir/eval.h"
#include "support/status.h"

namespace aqed::ir {

namespace {
// Packs a sort into a tag for hash-cons keys.
uint32_t SortTag(const Sort& sort) {
  if (sort.is_bitvec()) return sort.width;
  return 0x80000000u | (sort.index_width << 16) | sort.elem_width;
}
}  // namespace

size_t Context::KeyHash::operator()(const Key& key) const {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(key.op);
  auto mix = [&h](uint64_t value) {
    h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  mix(key.const_val);
  mix(key.aux0);
  mix(key.aux1);
  mix(key.sort_tag);
  for (NodeRef operand : key.operands) mix(operand);
  return static_cast<size_t>(h);
}

Context::Context() {
  nodes_.emplace_back();  // index 0 reserved as kNullNode
}

NodeRef Context::Intern(Op op, Sort sort, std::vector<NodeRef> operands,
                        uint64_t const_val, uint32_t aux0, uint32_t aux1) {
  Key key{op, const_val, aux0, aux1, SortTag(sort), operands};
  if (auto it = cache_.find(key); it != cache_.end()) return it->second;
  Node node;
  node.op = op;
  node.sort = sort;
  node.const_val = const_val;
  node.aux0 = aux0;
  node.aux1 = aux1;
  node.operands = std::move(operands);
  const NodeRef ref = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back(std::move(node));
  cache_.emplace(std::move(key), ref);
  return ref;
}

NodeRef Context::TryFold(Op op, Sort sort, std::span<const NodeRef> operands,
                         uint32_t aux0, uint32_t aux1) {
  if (!sort.is_bitvec()) return kNullNode;
  std::array<uint64_t, 3> vals{};
  std::array<uint32_t, 3> widths{};
  for (size_t i = 0; i < operands.size(); ++i) {
    if (!IsConst(operands[i])) return kNullNode;
    vals[i] = ConstVal(operands[i]);
    widths[i] = width(operands[i]);
  }
  const uint64_t folded =
      EvalScalarOp(op, sort.width, std::span(vals.data(), operands.size()),
                   std::span(widths.data(), operands.size()), aux0, aux1);
  return Const(sort.width, folded);
}

NodeRef Context::Const(uint32_t w, uint64_t value) {
  AQED_CHECK(w >= 1 && w <= kMaxWidth, "constant width out of range");
  return Intern(Op::kConst, Sort::BitVec(w), {}, Truncate(value, w));
}

NodeRef Context::ConstArray(uint32_t index_width, uint32_t elem_width,
                            uint64_t value) {
  AQED_CHECK(elem_width >= 1 && elem_width <= kMaxWidth,
             "array element width out of range");
  AQED_CHECK(index_width >= 1 && index_width <= 16,
             "array index width out of range");
  const NodeRef elem = Const(elem_width, value);
  return Intern(Op::kConstArray, Sort::Array(index_width, elem_width), {elem});
}

NodeRef Context::Input(const std::string& name, Sort sort) {
  Node node;
  node.op = Op::kInput;
  node.sort = sort;
  node.name = name;
  const NodeRef ref = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back(std::move(node));
  inputs_.push_back(ref);
  return ref;
}

NodeRef Context::State(const std::string& name, Sort sort) {
  Node node;
  node.op = Op::kState;
  node.sort = sort;
  node.name = name;
  const NodeRef ref = static_cast<NodeRef>(nodes_.size());
  nodes_.push_back(std::move(node));
  states_.push_back(ref);
  return ref;
}

NodeRef Context::MakeBinary(Op op, Sort sort, NodeRef a, NodeRef b) {
  const std::array<NodeRef, 2> operands{a, b};
  if (NodeRef folded = TryFold(op, sort, operands, 0, 0)) return folded;
  return Intern(op, sort, {a, b});
}

NodeRef Context::Not(NodeRef a) {
  const std::array<NodeRef, 1> operands{a};
  if (NodeRef folded = TryFold(Op::kNot, sort(a), operands, 0, 0)) {
    return folded;
  }
  // Involution: not(not(x)) == x.
  if (node(a).op == Op::kNot) return node(a).operands[0];
  return Intern(Op::kNot, sort(a), {a});
}

NodeRef Context::And(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "And width mismatch");
  if (a == b) return a;
  // Identity / annihilator with constants (either side).
  for (int swap = 0; swap < 2; ++swap) {
    const NodeRef x = swap ? b : a;
    const NodeRef y = swap ? a : b;
    if (IsConst(x)) {
      if (ConstVal(x) == 0) return Const(width(x), 0);
      if (ConstVal(x) == WidthMask(width(x))) return y;
    }
  }
  return MakeBinary(Op::kAnd, sort(a), a, b);
}

NodeRef Context::Or(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Or width mismatch");
  if (a == b) return a;
  for (int swap = 0; swap < 2; ++swap) {
    const NodeRef x = swap ? b : a;
    const NodeRef y = swap ? a : b;
    if (IsConst(x)) {
      if (ConstVal(x) == 0) return y;
      if (ConstVal(x) == WidthMask(width(x))) return Const(width(x),
                                                           WidthMask(width(x)));
    }
  }
  return MakeBinary(Op::kOr, sort(a), a, b);
}

NodeRef Context::Xor(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Xor width mismatch");
  if (a == b) return Const(width(a), 0);
  return MakeBinary(Op::kXor, sort(a), a, b);
}

NodeRef Context::AndAll(std::span<const NodeRef> xs) {
  AQED_CHECK(!xs.empty(), "AndAll of empty span");
  NodeRef acc = xs[0];
  for (size_t i = 1; i < xs.size(); ++i) acc = And(acc, xs[i]);
  return acc;
}

NodeRef Context::OrAll(std::span<const NodeRef> xs) {
  AQED_CHECK(!xs.empty(), "OrAll of empty span");
  NodeRef acc = xs[0];
  for (size_t i = 1; i < xs.size(); ++i) acc = Or(acc, xs[i]);
  return acc;
}

NodeRef Context::Neg(NodeRef a) {
  const std::array<NodeRef, 1> operands{a};
  if (NodeRef folded = TryFold(Op::kNeg, sort(a), operands, 0, 0)) {
    return folded;
  }
  return Intern(Op::kNeg, sort(a), {a});
}

NodeRef Context::Add(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Add width mismatch");
  if (IsConst(a) && ConstVal(a) == 0) return b;
  if (IsConst(b) && ConstVal(b) == 0) return a;
  return MakeBinary(Op::kAdd, sort(a), a, b);
}

NodeRef Context::Sub(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Sub width mismatch");
  if (IsConst(b) && ConstVal(b) == 0) return a;
  return MakeBinary(Op::kSub, sort(a), a, b);
}

NodeRef Context::Mul(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Mul width mismatch");
  return MakeBinary(Op::kMul, sort(a), a, b);
}

NodeRef Context::Udiv(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Udiv width mismatch");
  return MakeBinary(Op::kUdiv, sort(a), a, b);
}

NodeRef Context::Urem(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Urem width mismatch");
  return MakeBinary(Op::kUrem, sort(a), a, b);
}

NodeRef Context::Eq(NodeRef a, NodeRef b) {
  AQED_CHECK(sort(a) == sort(b), "Eq sort mismatch");
  if (a == b) return True();
  return MakeBinary(Op::kEq, Sort::BitVec(1), a, b);
}

NodeRef Context::Ne(NodeRef a, NodeRef b) {
  AQED_CHECK(sort(a) == sort(b), "Ne sort mismatch");
  if (a == b) return False();
  return MakeBinary(Op::kNe, Sort::BitVec(1), a, b);
}

NodeRef Context::Ult(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Ult width mismatch");
  if (a == b) return False();
  return MakeBinary(Op::kUlt, Sort::BitVec(1), a, b);
}

NodeRef Context::Ule(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Ule width mismatch");
  if (a == b) return True();
  return MakeBinary(Op::kUle, Sort::BitVec(1), a, b);
}

NodeRef Context::Slt(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Slt width mismatch");
  if (a == b) return False();
  return MakeBinary(Op::kSlt, Sort::BitVec(1), a, b);
}

NodeRef Context::Sle(NodeRef a, NodeRef b) {
  AQED_CHECK(width(a) == width(b), "Sle width mismatch");
  if (a == b) return True();
  return MakeBinary(Op::kSle, Sort::BitVec(1), a, b);
}

NodeRef Context::Shl(NodeRef a, NodeRef amount) {
  return MakeBinary(Op::kShl, sort(a), a, amount);
}

NodeRef Context::Lshr(NodeRef a, NodeRef amount) {
  return MakeBinary(Op::kLshr, sort(a), a, amount);
}

NodeRef Context::Ashr(NodeRef a, NodeRef amount) {
  return MakeBinary(Op::kAshr, sort(a), a, amount);
}

NodeRef Context::Ite(NodeRef cond, NodeRef then_val, NodeRef else_val) {
  AQED_CHECK(width(cond) == 1, "Ite condition must be 1 bit");
  AQED_CHECK(sort(then_val) == sort(else_val), "Ite branch sort mismatch");
  if (IsConst(cond)) return ConstVal(cond) != 0 ? then_val : else_val;
  if (then_val == else_val) return then_val;
  return Intern(Op::kIte, sort(then_val), {cond, then_val, else_val});
}

NodeRef Context::Concat(NodeRef high, NodeRef low) {
  const uint32_t new_width = width(high) + width(low);
  AQED_CHECK(new_width <= kMaxWidth, "Concat exceeds max width");
  const std::array<NodeRef, 2> operands{high, low};
  if (NodeRef folded =
          TryFold(Op::kConcat, Sort::BitVec(new_width), operands, 0, 0)) {
    return folded;
  }
  return Intern(Op::kConcat, Sort::BitVec(new_width), {high, low});
}

NodeRef Context::Extract(NodeRef a, uint32_t hi, uint32_t lo) {
  AQED_CHECK(hi >= lo && hi < width(a), "Extract range out of bounds");
  if (lo == 0 && hi == width(a) - 1) return a;
  const std::array<NodeRef, 1> operands{a};
  const Sort out = Sort::BitVec(hi - lo + 1);
  if (NodeRef folded = TryFold(Op::kExtract, out, operands, hi, lo)) {
    return folded;
  }
  return Intern(Op::kExtract, out, {a}, 0, hi, lo);
}

NodeRef Context::Zext(NodeRef a, uint32_t new_width) {
  AQED_CHECK(new_width >= width(a) && new_width <= kMaxWidth,
             "Zext target width invalid");
  if (new_width == width(a)) return a;
  const std::array<NodeRef, 1> operands{a};
  if (NodeRef folded =
          TryFold(Op::kZext, Sort::BitVec(new_width), operands, 0, 0)) {
    return folded;
  }
  return Intern(Op::kZext, Sort::BitVec(new_width), {a});
}

NodeRef Context::Sext(NodeRef a, uint32_t new_width) {
  AQED_CHECK(new_width >= width(a) && new_width <= kMaxWidth,
             "Sext target width invalid");
  if (new_width == width(a)) return a;
  const std::array<NodeRef, 1> operands{a};
  if (NodeRef folded =
          TryFold(Op::kSext, Sort::BitVec(new_width), operands, 0, 0)) {
    return folded;
  }
  return Intern(Op::kSext, Sort::BitVec(new_width), {a});
}

NodeRef Context::Read(NodeRef array, NodeRef index) {
  const Sort& array_sort = sort(array);
  AQED_CHECK(array_sort.is_array(), "Read from non-array");
  AQED_CHECK(width(index) == array_sort.index_width, "Read index width");
  return Intern(Op::kRead, Sort::BitVec(array_sort.elem_width),
                {array, index});
}

NodeRef Context::Write(NodeRef array, NodeRef index, NodeRef value) {
  const Sort& array_sort = sort(array);
  AQED_CHECK(array_sort.is_array(), "Write to non-array");
  AQED_CHECK(width(index) == array_sort.index_width, "Write index width");
  AQED_CHECK(width(value) == array_sort.elem_width, "Write value width");
  return Intern(Op::kWrite, array_sort, {array, index, value});
}

NodeRef Context::Build(Op op, std::span<const NodeRef> operands,
                       uint32_t aux0, uint32_t aux1, uint32_t width) {
  const auto x = [&](size_t i) {
    AQED_CHECK(i < operands.size(),
               std::string("Build: too few operands for ") + OpName(op));
    return operands[i];
  };
  switch (op) {
    case Op::kNot: return Not(x(0));
    case Op::kAnd: return And(x(0), x(1));
    case Op::kOr: return Or(x(0), x(1));
    case Op::kXor: return Xor(x(0), x(1));
    case Op::kNeg: return Neg(x(0));
    case Op::kAdd: return Add(x(0), x(1));
    case Op::kSub: return Sub(x(0), x(1));
    case Op::kMul: return Mul(x(0), x(1));
    case Op::kUdiv: return Udiv(x(0), x(1));
    case Op::kUrem: return Urem(x(0), x(1));
    case Op::kEq: return Eq(x(0), x(1));
    case Op::kNe: return Ne(x(0), x(1));
    case Op::kUlt: return Ult(x(0), x(1));
    case Op::kUle: return Ule(x(0), x(1));
    case Op::kSlt: return Slt(x(0), x(1));
    case Op::kSle: return Sle(x(0), x(1));
    case Op::kShl: return Shl(x(0), x(1));
    case Op::kLshr: return Lshr(x(0), x(1));
    case Op::kAshr: return Ashr(x(0), x(1));
    case Op::kIte: return Ite(x(0), x(1), x(2));
    case Op::kConcat: return Concat(x(0), x(1));
    case Op::kExtract: return Extract(x(0), aux0, aux1);
    case Op::kZext: return Zext(x(0), width);
    case Op::kSext: return Sext(x(0), width);
    case Op::kRead: return Read(x(0), x(1));
    case Op::kWrite: return Write(x(0), x(1), x(2));
    case Op::kConst:
    case Op::kConstArray:
    case Op::kInput:
    case Op::kState:
      break;
  }
  AQED_CHECK(false, std::string("Build on leaf op ") + OpName(op));
  return kNullNode;
}

}  // namespace aqed::ir
