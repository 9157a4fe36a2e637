// Deterministic, seeded mutation engine over the word-level IR.
//
// A mutant is one small, realistic design defect injected into a built
// TransitionSystem — the synthetic analogue of the paper's injected-bug
// study (Table 1 / Fig. 5): stuck-at faults on next-state functions,
// swapped operators, perturbed constants, negated conditions, and off-by-one
// counter updates, i.e. exactly the logic-bug classes the tracked-repository
// catalog models by hand, generated mechanically and at scale.
//
// Every mutant is identified by a stable (op, node, seed) key: design
// builders are deterministic (the hash-consed Context interns nodes in
// build order), so a NodeRef names the same sub-expression in every fresh
// build of the same design, on every thread, in every process. The same
// --seed therefore yields byte-identical mutant sets and — because
// verification itself is deterministic — byte-identical campaign
// classifications regardless of worker count.
//
// Mutants are applied by *rebuilding* the design into a fresh context with
// the mutation spliced in (the hash-consed DAG is immutable by design), so
// a mutant transition system is a first-class, Validate()-clean system that
// every downstream layer (simulator, bit-blaster, A-QED instrumentation)
// consumes unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "aqed/checker.h"
#include "aqed/interface.h"
#include "ir/transition_system.h"

namespace aqed::fault {

enum class MutationOp : uint8_t {
  kStuckAtZero,   // next-state function of a register forced to 0
  kStuckAtOne,    // next-state function of a register forced to all-ones
  kOperatorSwap,  // kAdd<->kSub, kAnd<->kOr, kEq<->kNe, kUlt<->kUle, ...
  kConstPerturb,  // a design constant gets one (seeded) bit flipped
  kCondNegate,    // a 1-bit condition (comparison/logic) is inverted
  kOffByOne,      // the constant addend of a counter update is +1'd
};

const char* MutationOpName(MutationOp op);

// Stable identity of one mutant: the mutation operator, the target node in
// the *pristine* build's node numbering, and the campaign seed (which also
// parameterizes seed-dependent operators such as kConstPerturb's bit pick).
struct MutantKey {
  MutationOp op = MutationOp::kStuckAtZero;
  ir::NodeRef node = ir::kNullNode;
  uint64_t seed = 0;

  bool operator==(const MutantKey&) const = default;

  // Stable textual id, e.g. "op-swap@n42#seed=0xa9ed" — used in job labels
  // and campaign reports.
  std::string ToString() const;
};

// Enumerates every applicable mutation site of the design, in a
// deterministic order (ascending node index, fixed operator order per
// node). Only *live* nodes are considered — nodes in the transitive fanin
// of the next-state functions, constraints, outputs, and the accelerator
// interface — so mutants always touch logic the design actually uses.
// `seed` is stamped into the returned keys.
std::vector<MutantKey> EnumerateMutants(const ir::TransitionSystem& ts,
                                        const core::AcceleratorInterface& acc,
                                        uint64_t seed);

// Deterministically samples `count` distinct mutants from the enumeration
// (seeded Fisher-Yates; returns all sites when count >= #sites). The same
// (ts, seed, count) always yields the same keys in the same order.
std::vector<MutantKey> SampleMutants(const ir::TransitionSystem& ts,
                                     const core::AcceleratorInterface& acc,
                                     uint64_t seed, uint32_t count);

// Rebuilds `src` into the empty system `dst` with the mutation applied.
// Returns the old-ref -> new-ref map over src's node table (index 0 maps
// to kNullNode). The key must name an applicable site (as produced by
// EnumerateMutants); this is checked.
std::vector<ir::NodeRef> ApplyMutant(const ir::TransitionSystem& src,
                                     const MutantKey& key,
                                     ir::TransitionSystem& dst);

// Remaps every NodeRef of an interface through a rebuild's old-ref ->
// new-ref map (ApplyMutant's, or a decomposition fragment's).
core::AcceleratorInterface RemapInterface(const core::AcceleratorInterface& acc,
                                          const std::vector<ir::NodeRef>& map);

// Wraps an accelerator builder so it yields the mutated design: builds the
// pristine design into a scratch system, rebuilds it mutated into the
// requested one, and returns the remapped interface. The wrapper is pure
// and thread-safe (sessions call builders from worker threads).
core::AcceleratorBuilder MutantBuilder(core::AcceleratorBuilder build,
                                       MutantKey key);

}  // namespace aqed::fault
