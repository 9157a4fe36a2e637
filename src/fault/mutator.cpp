#include "fault/mutator.h"

#include <algorithm>
#include <cstdio>
#include <span>

#include "support/bits.h"
#include "support/rng.h"
#include "support/status.h"

namespace aqed::fault {

using ir::Context;
using ir::Node;
using ir::NodeRef;
using ir::Op;

const char* MutationOpName(MutationOp op) {
  switch (op) {
    case MutationOp::kStuckAtZero:
      return "stuck-at-0";
    case MutationOp::kStuckAtOne:
      return "stuck-at-1";
    case MutationOp::kOperatorSwap:
      return "op-swap";
    case MutationOp::kConstPerturb:
      return "const-perturb";
    case MutationOp::kCondNegate:
      return "cond-negate";
    case MutationOp::kOffByOne:
      return "off-by-one";
  }
  return "?";
}

std::string MutantKey::ToString() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s@n%u#s%llx", MutationOpName(op), node,
                static_cast<unsigned long long>(seed));
  return buf;
}

namespace {

// The deterministic operator-swap table: every entry maps to an operator of
// the identical signature (same operand sorts, same result sort), so the
// rebuilt node always type-checks.
Op SwappedOp(Op op) {
  switch (op) {
    case Op::kAdd:
      return Op::kSub;
    case Op::kSub:
      return Op::kAdd;
    case Op::kMul:
      return Op::kAdd;
    case Op::kAnd:
      return Op::kOr;
    case Op::kOr:
      return Op::kAnd;
    case Op::kXor:
      return Op::kOr;
    case Op::kEq:
      return Op::kNe;
    case Op::kNe:
      return Op::kEq;
    case Op::kUlt:
      return Op::kUle;
    case Op::kUle:
      return Op::kUlt;
    case Op::kSlt:
      return Op::kSle;
    case Op::kSle:
      return Op::kSlt;
    case Op::kShl:
      return Op::kLshr;
    case Op::kLshr:
      return Op::kShl;
    case Op::kAshr:
      return Op::kLshr;
    default:
      return op;  // not swappable
  }
}

bool IsComparison(Op op) {
  return op == Op::kEq || op == Op::kNe || op == Op::kUlt || op == Op::kUle ||
         op == Op::kSlt || op == Op::kSle;
}

bool IsCondNegateSite(const Node& node) {
  if (!node.sort.is_bitvec() || node.sort.width != 1) return false;
  // Conditions are computed, not free: leaves stay untouched (a negated
  // input is just another free input; a negated constant is kConstPerturb's
  // job).
  if (ir::OpIsLeaf(node.op)) return false;
  return IsComparison(node.op) || node.op == Op::kNot || node.op == Op::kAnd ||
         node.op == Op::kOr || node.op == Op::kXor || node.op == Op::kIte;
}

bool IsOffByOneSite(const Node& node) {
  return (node.op == Op::kAdd || node.op == Op::kSub) &&
         node.sort.is_bitvec() && node.sort.width > 1;
}

// Which bit a kConstPerturb flips: seeded, but stable per (node, seed).
uint32_t PerturbBit(const MutantKey& key, uint32_t width) {
  const uint64_t mix =
      (key.seed ^ (static_cast<uint64_t>(key.node) * 0x9E3779B97F4A7C15ull));
  return static_cast<uint32_t>(mix % width);
}

// Live nodes: the transitive fanin of everything the design observably
// computes — next-state functions, constraints, bads, named outputs, and
// the accelerator interface signals the A-QED monitors will tap.
std::vector<bool> LiveSet(const ir::TransitionSystem& ts,
                          const core::AcceleratorInterface& acc) {
  std::vector<NodeRef> roots = ts.states();
  roots.insert(roots.end(), ts.constraints().begin(), ts.constraints().end());
  roots.insert(roots.end(), ts.bads().begin(), ts.bads().end());
  for (const auto& [name, node] : ts.outputs()) roots.push_back(node);
  core::ForEachSignal(acc, [&](NodeRef ref) { roots.push_back(ref); });
  std::vector<bool> live;
  ir::MarkCone(ts, roots, live);
  return live;
}

bool HasConstOperand(const Context& ctx, const Node& node) {
  for (NodeRef operand : node.operands) {
    if (ctx.node(operand).op == Op::kConst) return true;
  }
  return false;
}

bool IsApplicable(const ir::TransitionSystem& ts, const MutantKey& key) {
  const Context& ctx = ts.ctx();
  if (key.node == ir::kNullNode || key.node >= ctx.num_nodes()) return false;
  const Node& node = ctx.node(key.node);
  switch (key.op) {
    case MutationOp::kStuckAtZero:
    case MutationOp::kStuckAtOne:
      return node.op == Op::kState && node.sort.is_bitvec();
    case MutationOp::kOperatorSwap:
      return SwappedOp(node.op) != node.op;
    case MutationOp::kConstPerturb:
      return node.op == Op::kConst && node.sort.is_bitvec() &&
             node.sort.width >= 1;
    case MutationOp::kCondNegate:
      return IsCondNegateSite(node);
    case MutationOp::kOffByOne:
      return IsOffByOneSite(node) && HasConstOperand(ctx, node);
  }
  return false;
}

// The mutation site `key.node` rebuilt into `dst` with the mutation
// applied; its operands are already `map`ped. A stuck-at site is copied
// unchanged: ApplyMutant replaces its next function.
NodeRef MutatedNode(const ir::TransitionSystem& src, const MutantKey& key,
                    std::span<const NodeRef> map, ir::TransitionSystem& dst) {
  const Node& node = src.ctx().node(key.node);
  Context& dctx = dst.ctx();
  std::vector<NodeRef> ops;
  for (NodeRef operand : node.operands) ops.push_back(map[operand]);
  switch (key.op) {
    case MutationOp::kConstPerturb: {
      const uint32_t bit = PerturbBit(key, node.sort.width);
      return dctx.Const(node.sort.width, node.const_val ^ (uint64_t{1} << bit));
    }
    case MutationOp::kOperatorSwap:
      return dctx.Build(SwappedOp(node.op), ops, node.aux0, node.aux1,
                        node.sort.width);
    case MutationOp::kOffByOne:
      // Bump the first constant operand: i+1 becomes i+2 (the classic
      // counter-update off-by-one).
      for (size_t i = 0; i < ops.size(); ++i) {
        const Node& operand = src.ctx().node(node.operands[i]);
        if (operand.op == Op::kConst) {
          ops[i] = dctx.Const(operand.sort.width, operand.const_val + 1);
          break;
        }
      }
      return dctx.Build(node.op, ops, node.aux0, node.aux1, node.sort.width);
    case MutationOp::kCondNegate:
      return dctx.Not(ir::CopyNode(src, key.node, map, dst));
    case MutationOp::kStuckAtZero:
    case MutationOp::kStuckAtOne:
      break;
  }
  return ir::CopyNode(src, key.node, map, dst);
}

}  // namespace

std::vector<MutantKey> EnumerateMutants(const ir::TransitionSystem& ts,
                                        const core::AcceleratorInterface& acc,
                                        uint64_t seed) {
  const Context& ctx = ts.ctx();
  const std::vector<bool> live = LiveSet(ts, acc);
  std::vector<MutantKey> sites;
  for (NodeRef ref = 1; ref < ctx.num_nodes(); ++ref) {
    if (!live[ref]) continue;  // dead nodes yield equivalent mutants
    const Node& node = ctx.node(ref);
    const auto add = [&](MutationOp op) { sites.push_back({op, ref, seed}); };
    if (node.op == Op::kState && node.sort.is_bitvec()) {
      add(MutationOp::kStuckAtZero);
      add(MutationOp::kStuckAtOne);
    }
    if (SwappedOp(node.op) != node.op) add(MutationOp::kOperatorSwap);
    if (node.op == Op::kConst && node.sort.is_bitvec()) {
      add(MutationOp::kConstPerturb);
    }
    if (IsCondNegateSite(node)) add(MutationOp::kCondNegate);
    if (IsOffByOneSite(node) && HasConstOperand(ctx, node)) {
      add(MutationOp::kOffByOne);
    }
  }
  return sites;
}

std::vector<MutantKey> SampleMutants(const ir::TransitionSystem& ts,
                                     const core::AcceleratorInterface& acc,
                                     uint64_t seed, uint32_t count) {
  std::vector<MutantKey> sites = EnumerateMutants(ts, acc, seed);
  Rng rng(seed);
  // Seeded Fisher-Yates: the prefix of the shuffle is the sample, so the
  // same seed selects the same mutants no matter how many are requested
  // up to the point the prefixes diverge.
  for (size_t i = 0; i + 1 < sites.size(); ++i) {
    const size_t j = i + rng.NextBelow(sites.size() - i);
    std::swap(sites[i], sites[j]);
  }
  if (count < sites.size()) sites.resize(count);
  return sites;
}

std::vector<NodeRef> ApplyMutant(const ir::TransitionSystem& src,
                                 const MutantKey& key,
                                 ir::TransitionSystem& dst) {
  AQED_CHECK(src.Validate().ok(), "ApplyMutant on invalid source system");
  AQED_CHECK(dst.ctx().num_nodes() <= 1, "ApplyMutant into non-empty system");
  AQED_CHECK(IsApplicable(src, key),
             "ApplyMutant: inapplicable mutant " + key.ToString());

  const Context& sctx = src.ctx();
  Context& dctx = dst.ctx();
  std::vector<NodeRef> map(sctx.num_nodes(), ir::kNullNode);
  for (NodeRef ref = 1; ref < sctx.num_nodes(); ++ref) {
    map[ref] = ref == key.node ? MutatedNode(src, key, map, dst)
                               : ir::CopyNode(src, ref, map, dst);
  }

  for (NodeRef state : src.states()) {
    NodeRef next = map[src.next(state)];
    if (state == key.node && (key.op == MutationOp::kStuckAtZero ||
                              key.op == MutationOp::kStuckAtOne)) {
      const uint32_t width = sctx.sort(state).width;
      next = dctx.Const(width, key.op == MutationOp::kStuckAtZero
                                   ? 0
                                   : WidthMask(width));
    }
    dst.SetNext(map[state], next);
  }
  for (NodeRef c : src.constraints()) dst.AddConstraint(map[c]);
  const auto& bads = src.bads();
  for (size_t i = 0; i < bads.size(); ++i) {
    dst.AddBad(map[bads[i]], src.bad_labels()[i]);
  }
  for (const auto& [name, node] : src.outputs()) {
    dst.AddOutput(name, map[node]);
  }
  return map;
}

core::AcceleratorInterface RemapInterface(
    const core::AcceleratorInterface& acc,
    const std::vector<NodeRef>& map) {
  core::AcceleratorInterface out = acc;
  core::ForEachSignal(out, [&](NodeRef& ref) { ref = map[ref]; });
  return out;
}

core::AcceleratorBuilder MutantBuilder(core::AcceleratorBuilder build,
                                       MutantKey key) {
  return [build = std::move(build), key](ir::TransitionSystem& ts) {
    ir::TransitionSystem pristine;
    const core::AcceleratorInterface acc = build(pristine);
    const std::vector<NodeRef> map = ApplyMutant(pristine, key, ts);
    return RemapInterface(acc, map);
  };
}

}  // namespace aqed::fault
