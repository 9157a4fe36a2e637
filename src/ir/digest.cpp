#include "ir/digest.h"

#include <string_view>

#include "support/record.h"

namespace aqed::ir {

namespace {

using support::kFnvOffset;
using support::MixInt;
using support::MixText;

uint64_t MixSort(uint64_t hash, const Sort& sort) {
  hash = MixInt(hash, static_cast<uint64_t>(sort.kind));
  hash = MixInt(hash, sort.width);
  hash = MixInt(hash, sort.index_width);
  return MixInt(hash, sort.elem_width);
}

}  // namespace

StructuralHasher::StructuralHasher(const Context& ctx, bool anonymous)
    : ctx_(ctx), anonymous_(anonymous), memo_(ctx.num_nodes(), 0) {
  if (anonymous_) {
    ordinal_.resize(ctx.num_nodes(), 0);
    uint64_t i = 0;
    for (const NodeRef input : ctx.inputs()) ordinal_[input] = ++i;
    i = 0;
    for (const NodeRef state : ctx.states()) ordinal_[state] = ++i;
  }
}

uint64_t StructuralHasher::Digest(NodeRef ref) {
  if (ref == kNullNode) return kFnvOffset;  // fixed "absent" sentinel
  if (ref < memo_.size() && memo_[ref] != 0) return memo_[ref];

  // Iterative post-order: designs nest ites/concats deeply enough that the
  // obvious recursion is a stack-overflow risk on big generated designs.
  std::vector<NodeRef> stack = {ref};
  while (!stack.empty()) {
    const NodeRef top = stack.back();
    const Node& node = ctx_.node(top);
    if (memo_[top] != 0) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    if (!OpIsLeaf(node.op)) {
      for (const NodeRef operand : node.operands) {
        if (operand != kNullNode && memo_[operand] == 0) {
          stack.push_back(operand);
          ready = false;
        }
      }
    }
    if (!ready) continue;
    stack.pop_back();

    uint64_t hash = kFnvOffset;
    hash = MixInt(hash, static_cast<uint64_t>(node.op));
    hash = MixSort(hash, node.sort);
    switch (node.op) {
      case Op::kConst:
      case Op::kConstArray:
        hash = MixInt(hash, node.const_val);
        break;
      case Op::kInput:
      case Op::kState:
        // Named leaves: the identity of an input/state is its name and
        // sort, never the NodeRef the builder happened to get for it.
        // Anonymous mode replaces the name with the leaf's registration
        // ordinal — the identity machine-extracted fragments share.
        if (anonymous_) {
          hash = MixInt(hash, ordinal_[top]);
        } else {
          hash = MixText(hash, node.name);
        }
        break;
      default:
        break;
    }
    hash = MixInt(hash, node.aux0);
    hash = MixInt(hash, node.aux1);
    if (!OpIsLeaf(node.op)) {
      for (const NodeRef operand : node.operands) {
        hash = MixInt(hash, operand == kNullNode ? kFnvOffset
                                                 : memo_[operand]);
      }
    }
    if (hash == 0) hash = 1;  // keep 0 reserved for "not computed"
    memo_[top] = hash;
  }
  return memo_[ref];
}

uint64_t StructuralDigest(const TransitionSystem& ts) {
  StructuralHasher hasher(ts.ctx());

  // Each category folds in as a salted commutative sum: the sum makes
  // registration order immaterial, the salt keeps "a constraint" from
  // colliding with "an output named the same".
  const auto salted = [](uint64_t salt, uint64_t hash) {
    return MixInt(MixInt(kFnvOffset, salt), hash);
  };

  uint64_t digest = MixInt(kFnvOffset, 0xA9EDD16Eu);  // format version salt
  uint64_t sum = 0;
  for (const NodeRef state : ts.states()) {
    uint64_t h = kFnvOffset;
    h = MixText(h, ts.ctx().node(state).name);
    h = MixSort(h, ts.ctx().sort(state));
    h = MixInt(h, ts.has_init(state) ? 1 : 0);
    h = MixInt(h, ts.has_init(state) ? ts.init_value(state) : 0);
    h = MixInt(h, hasher.Digest(ts.next(state)));
    sum += salted(1, h);
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const NodeRef input : ts.inputs()) {
    uint64_t h = kFnvOffset;
    h = MixText(h, ts.ctx().node(input).name);
    h = MixSort(h, ts.ctx().sort(input));
    sum += salted(2, h);
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const NodeRef constraint : ts.constraints()) {
    sum += salted(3, hasher.Digest(constraint));
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (size_t i = 0; i < ts.bads().size(); ++i) {
    uint64_t h = kFnvOffset;
    h = MixText(h, ts.bad_labels()[i]);
    h = MixInt(h, hasher.Digest(ts.bads()[i]));
    sum += salted(4, h);
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const auto& [name, node] : ts.outputs()) {
    uint64_t h = kFnvOffset;
    h = MixText(h, name);
    h = MixInt(h, hasher.Digest(node));
    sum += salted(5, h);
  }
  return MixInt(digest, sum);
}

uint64_t AnonymousStructuralDigest(const TransitionSystem& ts) {
  StructuralHasher hasher(ts.ctx(), /*anonymous=*/true);

  const auto salted = [](uint64_t salt, uint64_t hash) {
    return MixInt(MixInt(kFnvOffset, salt), hash);
  };

  // Same category structure as the named digest, but every name — state,
  // input, bad label, output — is dropped: a leaf's Digest already carries
  // its registration ordinal, which is what identifies it here.
  uint64_t digest = MixInt(kFnvOffset, 0xA9EDA0DEu);  // format version salt
  uint64_t sum = 0;
  for (const NodeRef state : ts.states()) {
    uint64_t h = kFnvOffset;
    h = MixInt(h, hasher.Digest(state));
    h = MixInt(h, ts.has_init(state) ? 1 : 0);
    h = MixInt(h, ts.has_init(state) ? ts.init_value(state) : 0);
    h = MixInt(h, hasher.Digest(ts.next(state)));
    sum += salted(1, h);
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const NodeRef input : ts.inputs()) {
    sum += salted(2, hasher.Digest(input));
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const NodeRef constraint : ts.constraints()) {
    sum += salted(3, hasher.Digest(constraint));
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const NodeRef bad : ts.bads()) {
    sum += salted(4, hasher.Digest(bad));
  }
  digest = MixInt(digest, sum);

  sum = 0;
  for (const auto& [name, node] : ts.outputs()) {
    (void)name;
    sum += salted(5, hasher.Digest(node));
  }
  return MixInt(digest, sum);
}

}  // namespace aqed::ir
