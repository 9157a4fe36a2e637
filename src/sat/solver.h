// CDCL SAT solver in the MiniSat lineage.
//
// Features: two-watched-literal propagation with blockers, VSIDS decision
// heuristic with a binary order heap, phase saving, first-UIP conflict
// analysis with deep clause minimization (pruned by MiniSat's abstract
// decision levels), Luby restarts, activity-driven learnt-clause database
// reduction, incremental solving under assumptions with failed-assumption
// (unsat core over assumptions) extraction, and a model check through which
// a lazily refined encoding rejects spurious models inside Solve.
//
// Assignments live in a literal-indexed value table: both polarities of a
// variable are written on assignment and cleared on backtrack, so the value
// of a literal is one load with no negation on the propagation hot path.
//
// Every heuristic can be disabled through Options; the SAT-ablation benchmark
// (bench_ablation_sat) uses this to quantify each feature's contribution on
// A-QED BMC workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sat/types.h"
#include "sched/cancellation.h"

namespace aqed::sat {

// Reference to a clause in the arena (word offset). kCRefUndef = none.
using CRef = uint32_t;
inline constexpr CRef kCRefUndef = ~CRef{0};

// Per-call resource limits for Solver::Solve. Passed explicitly with every
// call so concurrent workers sharing one retry policy never race on hidden
// solver state (the removed predecessor, a stateful SetConflictBudget,
// applied to whichever Solve happened to run next).
struct SolveLimits {
  // Conflict cap for this call; Solve returns kUnknown with
  // UnknownReason::kConflictBudget when exceeded. Negative: unlimited.
  int64_t max_conflicts = -1;
};

class Solver {
 public:
  struct Options {
    bool use_vsids = true;           // false: lowest-index unassigned var
    bool use_phase_saving = true;    // false: always decide negative
    bool use_minimization = true;    // false: raw 1UIP clauses
    bool use_restarts = true;        // false: single unbounded search
    bool use_reduce_db = true;       // false: keep every learnt clause
    double var_decay = 0.95;
    double clause_decay = 0.999;
    int restart_base = 100;          // conflicts per Luby unit
    // Cooperative cancellation: Solve returns kUnknown soon after the
    // token's source is cancelled (polled once per search-loop iteration).
    // A default token never cancels.
    sched::CancellationToken cancel;
  };

  struct Statistics {
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t conflicts = 0;
    uint64_t restarts = 0;
    uint64_t learnt_literals = 0;
    uint64_t minimized_literals = 0;  // removed by clause minimization
    uint64_t reduce_db_rounds = 0;
    // Memory-pressure shed rounds (ShedLearnts + arena compaction) taken
    // because the session monitor published kShed or worse.
    uint64_t shed_rounds = 0;
    // Why the most recent Solve() returned kUnknown (kNone when it returned
    // kSat/kUnsat): conflict-budget exhaustion, a tripped deadline watchdog,
    // or cooperative cancellation.
    UnknownReason last_unknown = UnknownReason::kNone;
  };

  Solver() = default;
  explicit Solver(const Options& options) : options_(options) {}

  Solver(const Solver&) = delete;
  Solver& operator=(const Solver&) = delete;

  // Creates a fresh variable and returns it.
  Var NewVar();
  uint32_t num_vars() const {
    return static_cast<uint32_t>(values_.size() / 2);
  }

  // Adds a clause over existing variables. Returns false if the formula
  // became trivially unsatisfiable (empty clause / conflicting units).
  bool AddClause(std::span<const Lit> lits);
  bool AddClause(std::initializer_list<Lit> lits) {
    return AddClause(std::span<const Lit>(lits.begin(), lits.size()));
  }

  // Solves under the given assumptions and per-call limits. All assumption
  // literals must be over existing variables.
  SolveResult Solve(std::span<const Lit> assumptions,
                    const SolveLimits& limits);

  // Solves without an explicit limit (unbounded conflicts).
  SolveResult Solve(std::span<const Lit> assumptions = {}) {
    return Solve(assumptions, SolveLimits{});
  }

  // A check on every model the search finds, for lazily refined encodings
  // (bmc::Unroller's data-path abstraction). Solve calls it at decision
  // level 0 with the model; the check either accepts the model (returns
  // false) or adds clauses that exclude it (returns true), and then the
  // search goes on. So Solve returns only models the check accepts, and
  // kUnsat once the added clauses leave none. The model span is stale once
  // the check adds a variable. Clone does not copy the check.
  using ModelCheck = std::function<bool(std::span<const LBool> model)>;
  void SetModelCheck(ModelCheck check) { model_check_ = std::move(check); }

  // Deep-copies the full solver state — problem and learnt clauses, level-0
  // trail, VSIDS activities, saved phases — into a fresh solver running
  // under `options`. Must be called outside Solve (decision level 0); the
  // clone shares no state with the original. Cube-and-conquer workers use
  // this so every cube starts from an identical incremental solver and
  // diverges only in its assumption cube.
  std::unique_ptr<Solver> Clone(const Options& options) const;

  // The `n` unassigned variables with the highest VSIDS activity, ordered
  // activity-descending with index-ascending tie-break (deterministic for a
  // deterministic solve history). The cube splitter branches on these: they
  // are the variables the search itself judged most decision-worthy.
  std::vector<Var> TopActivityVars(uint32_t n) const;

  // Model access after kSat.
  const std::vector<LBool>& model() const { return model_; }
  LBool ModelValue(Var var) const { return model_[var]; }
  bool ModelBool(Var var) const { return model_[var] == LBool::kTrue; }
  LBool ModelValue(Lit lit) const {
    return lit.negated() ? Negate(model_[lit.var()]) : model_[lit.var()];
  }

  // After kUnsat under assumptions: the subset of assumptions (negated) that
  // formed the final conflict.
  const std::vector<Lit>& failed_assumptions() const { return conflict_; }

  const Statistics& stats() const { return stats_; }
  uint64_t num_clauses() const { return num_problem_clauses_; }
  uint64_t num_learnts() const { return learnts_.size(); }
  bool inconsistent() const { return !ok_; }

  // Constant-time estimate of the solver's heap footprint in bytes —
  // arena, clause lists, per-variable structures, watcher storage. This is
  // what Solve publishes to the session monitor at restart boundaries
  // (sched::PublishSolverMemory), so the monitor's heaviest-job choice
  // tracks the solvers that actually own the memory.
  uint64_t MemoryBytes() const;

 private:
  struct Watcher {
    CRef cref;
    Lit blocker;
  };

  // --- clause arena ----------------------------------------------------
  // Layout per clause: [size<<2 | removed<<1 | learnt][activity bits][lbd]
  // [lits ...]. A removed clause's words stay until CompactArena, which
  // slides the live clauses over them.
  static constexpr uint32_t kLearntBit = 1;
  static constexpr uint32_t kRemovedBit = 2;
  uint32_t ClauseSize(CRef cref) const { return arena_[cref] >> 2; }
  bool ClauseLearnt(CRef cref) const {
    return (arena_[cref] & kLearntBit) != 0;
  }
  Lit* ClauseLits(CRef cref) {
    return reinterpret_cast<Lit*>(&arena_[cref + 3]);
  }
  const Lit* ClauseLits(CRef cref) const {
    return reinterpret_cast<const Lit*>(&arena_[cref + 3]);
  }
  uint32_t ClauseLbd(CRef cref) const { return arena_[cref + 2]; }
  void SetClauseLbd(CRef cref, uint32_t lbd) { arena_[cref + 2] = lbd; }
  float ClauseActivity(CRef cref) const;
  void SetClauseActivity(CRef cref, float activity);
  static uint32_t ClauseWords(uint32_t size) { return 3 + size; }
  CRef AllocClause(std::span<const Lit> lits, bool learnt);

  // --- assignment / trail ----------------------------------------------
  LBool Value(Var var) const { return values_[Lit(var, false).index()]; }
  LBool Value(Lit lit) const { return values_[lit.index()]; }
  uint32_t DecisionLevel() const {
    return static_cast<uint32_t>(trail_lim_.size());
  }
  void NewDecisionLevel() {
    trail_lim_.push_back(static_cast<uint32_t>(trail_.size()));
  }
  void UncheckedEnqueue(Lit lit, CRef reason);
  CRef Propagate();
  void CancelUntil(uint32_t level);

  // --- conflict analysis -------------------------------------------------
  void Analyze(CRef confl, std::vector<Lit>& out_learnt,
               uint32_t& out_btlevel);
  // One bit per decision level (mod 32): the levels of a clause fold into
  // a mask that LitRedundant tests before following an antecedent.
  uint32_t AbstractLevel(Var var) const { return 1u << (level_[var] & 31); }
  bool LitRedundant(Lit lit, uint32_t abstract_levels);
  void AnalyzeFinal(Lit p, std::vector<Lit>& out_conflict);

  // --- heuristics --------------------------------------------------------
  void VarBumpActivity(Var var);
  void VarDecayActivity();
  void ClaBumpActivity(CRef cref);
  void ClaDecayActivity();
  Lit PickBranchLit();
  void InsertVarOrder(Var var);
  // Order heap (max-heap on activity).
  void HeapUp(uint32_t pos);
  void HeapDown(uint32_t pos);
  bool HeapLess(Var a, Var b) const;
  Var HeapPop();
  bool HeapInHeap(Var var) const { return heap_index_[var] != kVarUndef; }

  // --- clause management ---------------------------------------------------
  void AttachClause(CRef cref);
  void DetachClause(CRef cref);
  void RemoveClause(CRef cref);
  bool Locked(CRef cref) const;
  // Ranks the learnt clauses worst-first and drops those in the worse half
  // with LBD > 3.
  void ReduceDB();
  // Memory-pressure degradation (stage 1 of the memory-pressure ladder): drops
  // every removable learnt clause with LBD > 2, then always compacts and
  // shrinks the arena, so the bytes go back now. Runs even with
  // use_reduce_db off: under memory pressure, survival outranks the
  // ablation setting.
  void ShedLearnts();
  // The one removal routine behind ReduceDB and ShedLearnts: removes every
  // unlocked learnt clause of size > 2 for which `removable(position,
  // cref)` holds, keeping the survivors in order, then compacts the arena
  // when `compact` is set or garbage exceeds kGarbageFraction of it.
  template <typename Removable>
  void RemoveLearnts(Removable removable, bool compact);
  // Slides the live clauses down over the removed ones, in place and in
  // arena order, and repoints every clause list entry, watcher and reason
  // through forwarding CRefs written into the arena first. No list is
  // reordered, so the search after a compaction is the same as without one.
  void CompactArena();
  // MiniSat's garbage rule: compact once removed clauses hold this share
  // of the arena's words.
  static constexpr double kGarbageFraction = 0.2;

  // --- top-level search ---------------------------------------------------
  SolveResult Search(int64_t conflicts_budget);
  static uint64_t Luby(uint64_t i);

  Options options_;
  Statistics stats_;
  ModelCheck model_check_;

  std::vector<uint32_t> arena_;
  // Words of removed clauses still in arena_, reclaimed by CompactArena.
  uint64_t wasted_ = 0;
  std::vector<CRef> clauses_;  // problem clauses
  std::vector<CRef> learnts_;
  uint64_t num_problem_clauses_ = 0;

  std::vector<LBool> values_;  // indexed by Lit::index(), both polarities
  std::vector<LBool> model_;
  std::vector<uint8_t> polarity_;      // saved phase (1 = last was false)
  std::vector<double> activity_;
  std::vector<CRef> reason_;
  std::vector<uint32_t> level_;
  std::vector<std::vector<Watcher>> watches_;  // indexed by Lit::index()

  std::vector<Lit> trail_;
  std::vector<uint32_t> trail_lim_;
  uint32_t qhead_ = 0;

  // Order heap.
  std::vector<Var> heap_;
  std::vector<uint32_t> heap_index_;

  // Analysis scratch.
  std::vector<uint8_t> seen_;
  std::vector<uint32_t> lbd_levels_;
  std::vector<Lit> analyze_toclear_;
  std::vector<Lit> minimize_stack_;

  std::vector<Lit> assumptions_;
  std::vector<Lit> conflict_;

  double var_inc_ = 1.0;
  double cla_inc_ = 1.0;
  double max_learnts_ = 0;
  // Learnt count below which a shed round is pointless; re-armed after
  // each shed so sustained pressure can't thrash compaction.
  size_t shed_floor_ = 0;
  bool ok_ = true;
};

}  // namespace aqed::sat
