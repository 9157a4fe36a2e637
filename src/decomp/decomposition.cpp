#include "decomp/decomposition.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "aqed/interface.h"
#include "fault/mutator.h"
#include "ir/node.h"

namespace aqed::decomp {

namespace {

using ir::Context;
using ir::Node;
using ir::NodeRef;
using ir::Op;
using ir::TransitionSystem;

using NameMap = std::unordered_map<std::string, NodeRef>;

// Every nameable signal of the parent: inputs and states by their IR name,
// plus named outputs (the escape hatch that makes internal wires — and
// constants — declarable in a SubAccelerator).
NameMap BuildNameMap(const TransitionSystem& ts) {
  NameMap names;
  for (const NodeRef input : ts.inputs()) {
    names.emplace(ts.ctx().node(input).name, input);
  }
  for (const NodeRef state : ts.states()) {
    names.emplace(ts.ctx().node(state).name, state);
  }
  for (const auto& [name, node] : ts.outputs()) names.emplace(name, node);
  return names;
}

// One sub-accelerator declaration with every name resolved against the
// parent, plus the derived cone/claim/constraint information Validate,
// Analyze, and extraction all consume.
struct FragmentPlan {
  // The fragment's host interface, resolved to parent NodeRefs.
  core::AcceleratorInterface acc;

  // is_cut[ref]: ref is a declared boundary signal of this fragment.
  std::vector<bool> is_cut;
  // Declared name per cut ref — becomes the fragment's free-input name.
  std::unordered_map<NodeRef, std::string> cut_name;
  // marked[ref]: ref is in the fragment's cone (including carried
  // constraint cones).
  std::vector<bool> marked;
  // Parent states owned by this fragment: marked, not cut.
  std::vector<NodeRef> claimed_states;
  // Parent constraints whose combinational support lies in the cone.
  std::vector<NodeRef> carried_constraints;
};

StatusOr<NodeRef> Resolve(const NameMap& names, const std::string& name,
                          const std::string& sub, const char* role) {
  if (name.empty()) {
    return Status::Error("sub-accelerator '" + sub + "': " + role +
                         " is not declared");
  }
  const auto it = names.find(name);
  if (it == names.end()) {
    return Status::Error("sub-accelerator '" + sub + "': unknown signal '" +
                         name + "' (" + role + ")");
  }
  return it->second;
}

// True iff every input/state leaf of `root`'s combinational support (cuts
// are leaves; next-state functions are not entered) is already in the
// fragment's cone, i.e. the constraint talks only about this fragment.
bool SupportInCone(const TransitionSystem& parent,
                   const std::vector<bool>& is_cut,
                   const std::vector<bool>& marked, NodeRef root) {
  std::vector<bool> seen(parent.ctx().num_nodes(), false);
  std::vector<NodeRef> work = {root};
  while (!work.empty()) {
    const NodeRef ref = work.back();
    work.pop_back();
    if (ref == ir::kNullNode || seen[ref]) continue;
    seen[ref] = true;
    const Node& node = parent.ctx().node(ref);
    const bool leaf =
        is_cut[ref] || node.op == Op::kInput || node.op == Op::kState;
    if (leaf) {
      if (!marked[ref]) return false;
      continue;
    }
    for (const NodeRef operand : node.operands) work.push_back(operand);
  }
  return true;
}

StatusOr<FragmentPlan> PlanFragment(const TransitionSystem& parent,
                                    const NameMap& names,
                                    const SubAccelerator& sub) {
  FragmentPlan plan;
  const uint32_t num_nodes = parent.ctx().num_nodes();
  plan.is_cut.assign(num_nodes, false);
  plan.marked.assign(num_nodes, false);

  for (const std::string& cut : sub.cuts()) {
    const auto ref = Resolve(names, cut, sub.name(), "cut");
    if (!ref.ok()) return ref.status();
    const Node& node = parent.ctx().node(ref.value());
    if (node.op != Op::kInput && node.op != Op::kState) {
      return Status::Error("sub-accelerator '" + sub.name() + "': cut '" +
                           cut + "' is not an input or state (cuts must be " +
                           "registered boundary signals)");
    }
    if (plan.is_cut[ref.value()]) {
      return Status::Error("sub-accelerator '" + sub.name() + "': cut '" +
                           cut + "' declared twice");
    }
    plan.is_cut[ref.value()] = true;
    plan.cut_name.emplace(ref.value(), cut);
  }

  const auto one = [&](const std::string& name, const char* role,
                       NodeRef& out) -> Status {
    auto ref = Resolve(names, name, sub.name(), role);
    if (!ref.ok()) return ref.status();
    out = ref.value();
    return Status::Ok();
  };
  core::AcceleratorInterface& acc = plan.acc;
  if (Status s = one(sub.in_valid(), "in_valid", acc.in_valid); !s.ok())
    return s;
  if (Status s = one(sub.in_ready(), "in_ready", acc.in_ready); !s.ok())
    return s;
  if (Status s = one(sub.host_ready(), "host_ready", acc.host_ready); !s.ok())
    return s;
  if (Status s = one(sub.out_valid(), "out_valid", acc.out_valid); !s.ok())
    return s;
  if (sub.data_elems().empty() || sub.out_elems().empty()) {
    return Status::Error("sub-accelerator '" + sub.name() +
                         "': needs at least one data and one out element");
  }
  const auto many = [&](const std::vector<std::vector<std::string>>& elems,
                        const char* role,
                        std::vector<std::vector<NodeRef>>& out) -> Status {
    for (const auto& words : elems) {
      std::vector<NodeRef> elem;
      for (const std::string& word : words) {
        auto ref = Resolve(names, word, sub.name(), role);
        if (!ref.ok()) return ref.status();
        elem.push_back(ref.value());
      }
      out.push_back(std::move(elem));
    }
    return Status::Ok();
  };
  if (Status s = many(sub.data_elems(), "data element", acc.data_elems);
      !s.ok())
    return s;
  if (Status s = many(sub.out_elems(), "out element", acc.out_elems); !s.ok())
    return s;
  for (const std::string& name : sub.shared()) {
    auto ref = Resolve(names, name, sub.name(), "shared");
    if (!ref.ok()) return ref.status();
    acc.shared_context.push_back(ref.value());
  }

  // Cone = everything the fragment's interface can observe, stopping at
  // cuts (they become free inputs).
  std::vector<NodeRef> roots;
  core::ForEachSignal(acc, [&](NodeRef ref) { roots.push_back(ref); });
  ir::MarkCone(parent, roots, plan.marked, plan.is_cut);

  for (const NodeRef state : parent.states()) {
    if (plan.marked[state] && !plan.is_cut[state]) {
      plan.claimed_states.push_back(state);
    }
  }

  // Parent environment assumptions travel with the fragment that contains
  // their whole support; extend the cone so they can be rebuilt.
  for (const NodeRef constraint : parent.constraints()) {
    if (!SupportInCone(parent, plan.is_cut, plan.marked, constraint)) continue;
    plan.carried_constraints.push_back(constraint);
    ir::MarkCone(parent, std::span(&constraint, 1), plan.marked, plan.is_cut);
  }
  return plan;
}

// Extracts the planned fragment into `frag` and wires its host interface.
// Nodes are rebuilt in ascending parent-NodeRef order, so isomorphic
// fragments register their leaves identically — the property
// ir::AnonymousStructuralDigest keys on.
core::AcceleratorInterface ExtractFragment(const TransitionSystem& parent,
                                           const NameMap& names,
                                           const FragmentPlan& plan,
                                           const SubAccelerator& sub,
                                           TransitionSystem& frag) {
  AQED_CHECK(frag.ctx().num_nodes() <= 1,
             "decomp: extraction into non-empty system");
  const Context& pctx = parent.ctx();
  Context& fctx = frag.ctx();
  std::vector<NodeRef> map(pctx.num_nodes(), ir::kNullNode);

  for (NodeRef ref = 1; ref < pctx.num_nodes(); ++ref) {
    if (!plan.marked[ref]) continue;
    // A cut is the boundary: whatever drove it upstream, the fragment sees
    // a free input — the over-approximated environment.
    map[ref] = plan.is_cut[ref]
                   ? frag.AddInput(plan.cut_name.at(ref), pctx.sort(ref))
                   : ir::CopyNode(parent, ref, map, frag);
  }

  for (const NodeRef state : plan.claimed_states) {
    frag.SetNext(map[state], map[parent.next(state)]);
  }
  for (const NodeRef constraint : plan.carried_constraints) {
    frag.AddConstraint(map[constraint]);
  }

  // Environment assumptions at the cut, evaluated over fragment nodes.
  const auto signal = [&](const std::string& name) -> NodeRef {
    const auto it = names.find(name);
    AQED_CHECK(it != names.end(),
               "decomp assumption: unknown parent signal '" + name + "'");
    const NodeRef mapped = map[it->second];
    AQED_CHECK(mapped != ir::kNullNode,
               "decomp assumption: signal '" + name +
                   "' is outside fragment '" + sub.name() + "'");
    return mapped;
  };
  for (const AssumeFn& assume : sub.assumes()) {
    frag.AddConstraint(assume(fctx, signal));
  }

  return fault::RemapInterface(plan.acc, map);
}

uint32_t SortBits(const ir::Sort& sort) {
  if (sort.is_bitvec()) return sort.width;
  return static_cast<uint32_t>(sort.elem_width * sort.num_elements());
}

}  // namespace

SubAccelerator& SubAccelerator::Cut(const std::string& signal) {
  cuts_.push_back(signal);
  return *this;
}

SubAccelerator& SubAccelerator::Cut(const std::vector<std::string>& signals) {
  cuts_.insert(cuts_.end(), signals.begin(), signals.end());
  return *this;
}

SubAccelerator& SubAccelerator::WithInValid(std::string signal) {
  in_valid_ = std::move(signal);
  return *this;
}

SubAccelerator& SubAccelerator::WithInReady(std::string signal) {
  in_ready_ = std::move(signal);
  return *this;
}

SubAccelerator& SubAccelerator::WithHostReady(std::string signal) {
  host_ready_ = std::move(signal);
  return *this;
}

SubAccelerator& SubAccelerator::WithOutValid(std::string signal) {
  out_valid_ = std::move(signal);
  return *this;
}

SubAccelerator& SubAccelerator::WithDataElem(std::vector<std::string> words) {
  data_elems_.push_back(std::move(words));
  return *this;
}

SubAccelerator& SubAccelerator::WithOutElem(std::vector<std::string> words) {
  out_elems_.push_back(std::move(words));
  return *this;
}

SubAccelerator& SubAccelerator::WithShared(std::vector<std::string> signals) {
  shared_.insert(shared_.end(), signals.begin(), signals.end());
  return *this;
}

SubAccelerator& SubAccelerator::Assume(AssumeFn assume) {
  assumes_.push_back(std::move(assume));
  return *this;
}

SubAccelerator& SubAccelerator::WithBound(uint32_t bound) {
  bound_ = bound;
  return *this;
}

Decomposition& Decomposition::Add(SubAccelerator sub) {
  subs_.push_back(std::move(sub));
  return *this;
}

Status Decomposition::Validate() const {
  return Analyze().status();
}

StatusOr<CutCoverage> Decomposition::Analyze() const {
  if (subs_.empty()) {
    return Status::Error("decomposition '" + name_ +
                         "': no sub-accelerators declared");
  }
  TransitionSystem parent;
  parent_(parent);
  if (Status s = parent.Validate(); !s.ok()) {
    return Status::Error("decomposition '" + name_ + "': parent invalid: " +
                         s.message());
  }
  const NameMap names = BuildNameMap(parent);

  CutCoverage coverage;
  // claims[state ordinal] = how many subs own this parent state.
  std::vector<uint32_t> claims(parent.states().size(), 0);
  std::unordered_map<NodeRef, size_t> state_ordinal;
  for (size_t i = 0; i < parent.states().size(); ++i) {
    state_ordinal.emplace(parent.states()[i], i);
    coverage.total_states++;
    coverage.total_state_bits += SortBits(parent.ctx().sort(parent.states()[i]));
  }

  for (size_t i = 0; i < subs_.size(); ++i) {
    const SubAccelerator& sub = subs_[i];
    for (size_t j = 0; j < i; ++j) {
      if (subs_[j].name() == sub.name()) {
        return Status::Error("decomposition '" + name_ +
                             "': duplicate sub-accelerator name '" +
                             sub.name() + "'");
      }
    }
    auto plan = PlanFragment(parent, names, sub);
    if (!plan.ok()) {
      return Status::Error("decomposition '" + name_ + "': " +
                           plan.status().message());
    }

    CutCoverage::Sub row;
    row.name = sub.name();
    for (const NodeRef state : plan.value().claimed_states) {
      claims[state_ordinal.at(state)]++;
      row.states_claimed++;
      row.state_bits += SortBits(parent.ctx().sort(state));
    }
    for (uint32_t ref = 0; ref < plan.value().is_cut.size(); ++ref) {
      if (!plan.value().is_cut[ref]) continue;
      row.cut_signals++;
      row.cut_bits += SortBits(parent.ctx().sort(ref));
    }
    row.assumptions = static_cast<uint32_t>(sub.assumes().size());
    row.constraints_carried =
        static_cast<uint32_t>(plan.value().carried_constraints.size());
    coverage.subs.push_back(std::move(row));

    // Rebuild the fragment and check it is a well-formed accelerator.
    TransitionSystem frag;
    const core::AcceleratorInterface acc =
        ExtractFragment(parent, names, plan.value(), sub, frag);
    if (Status s = frag.Validate(); !s.ok()) {
      return Status::Error("decomposition '" + name_ + "': fragment '" +
                           sub.name() + "' invalid: " + s.message());
    }
    if (Status s = acc.Validate(frag); !s.ok()) {
      return Status::Error("decomposition '" + name_ + "': fragment '" +
                           sub.name() + "' interface invalid: " + s.message());
    }
  }

  // The partition check: every parent state must belong to exactly one
  // fragment, or some logic is verified twice (wasteful, and cut-coverage
  // double counts) or — worse — never (a verification hole).
  std::string unclaimed, doubled;
  for (size_t i = 0; i < parent.states().size(); ++i) {
    const std::string& state_name =
        parent.ctx().node(parent.states()[i]).name;
    if (claims[i] == 0) {
      unclaimed += (unclaimed.empty() ? "" : ", ") + state_name;
    } else if (claims[i] > 1) {
      doubled += (doubled.empty() ? "" : ", ") + state_name;
    }
  }
  if (!unclaimed.empty() || !doubled.empty()) {
    std::string message = "decomposition '" + name_ +
                          "': cuts do not partition the design:";
    if (!unclaimed.empty()) {
      message += " unclaimed states [" + unclaimed + "]";
    }
    if (!doubled.empty()) {
      message += std::string(unclaimed.empty() ? " " : "; ") +
                 "states claimed by multiple sub-accelerators [" + doubled +
                 "]";
    }
    return Status::Error(message);
  }
  return coverage;
}

core::AcceleratorBuilder Decomposition::BuilderFor(size_t index) const {
  AQED_CHECK(index < subs_.size(), "decomp BuilderFor: index out of range");
  // Self-contained by copy: the returned builder must outlive this object
  // and run on session worker threads.
  return [parent = parent_, sub = subs_[index],
          dname = name_](TransitionSystem& frag) {
    TransitionSystem scratch;
    parent(scratch);
    const NameMap names = BuildNameMap(scratch);
    auto plan = PlanFragment(scratch, names, sub);
    AQED_CHECK(plan.ok(), "decomposition '" + dname + "': " +
                              (plan.ok() ? "" : plan.status().message()));
    return ExtractFragment(scratch, names, plan.value(), sub, frag);
  };
}

std::string CutCoverage::ToTable() const {
  std::ostringstream out;
  out << "sub-accelerator      states   bits    cuts  cut-bits  assume  "
         "constr\n";
  for (const Sub& sub : subs) {
    char line[128];
    std::snprintf(line, sizeof(line), "%-20s %6u %6u  %6u  %8u  %6u  %6u\n",
                  sub.name.c_str(), sub.states_claimed, sub.state_bits,
                  sub.cut_signals, sub.cut_bits, sub.assumptions,
                  sub.constraints_carried);
    out << line;
  }
  char total[96];
  std::snprintf(total, sizeof(total), "%-20s %6u %6u\n", "total (parent)",
                total_states, total_state_bits);
  out << total;
  return out.str();
}

}  // namespace aqed::decomp
