#include "sat/solver.h"

#include <algorithm>
#include <cstring>

#include "sched/memory_pressure.h"
#include "support/failpoint.h"
#include "support/status.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace aqed::sat {

// ---------------------------------------------------------------------------
// Clause arena
// ---------------------------------------------------------------------------

CRef Solver::AllocClause(std::span<const Lit> lits, bool learnt) {
  // Chaos site: an armed trigger can throw a simulated allocation failure
  // (or delay) out of the solver's hottest allocation path.
  (void)AQED_FAILPOINT("sat.alloc");
  const CRef cref = static_cast<CRef>(arena_.size());
  arena_.push_back((static_cast<uint32_t>(lits.size()) << 2) |
                   (learnt ? kLearntBit : 0u));
  arena_.push_back(0);  // activity bits
  arena_.push_back(0);  // literal block distance (learnt clauses)
  for (Lit lit : lits) arena_.push_back(lit.index());
  return cref;
}

float Solver::ClauseActivity(CRef cref) const {
  float activity;
  std::memcpy(&activity, &arena_[cref + 1], sizeof(activity));
  return activity;
}

void Solver::SetClauseActivity(CRef cref, float activity) {
  std::memcpy(&arena_[cref + 1], &activity, sizeof(activity));
}

// ---------------------------------------------------------------------------
// Variables and clauses
// ---------------------------------------------------------------------------

Var Solver::NewVar() {
  const Var var = num_vars();
  values_.push_back(LBool::kUndef);
  values_.push_back(LBool::kUndef);
  model_.push_back(LBool::kUndef);
  polarity_.push_back(1);  // default phase: false
  activity_.push_back(0.0);
  reason_.push_back(kCRefUndef);
  level_.push_back(0);
  seen_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_index_.push_back(kVarUndef);
  InsertVarOrder(var);
  return var;
}

bool Solver::AddClause(std::span<const Lit> lits) {
  AQED_CHECK(DecisionLevel() == 0, "AddClause requires decision level 0");
  if (!ok_) return false;

  // Sort, deduplicate, drop false literals, detect tautologies and
  // satisfied clauses.
  std::vector<Lit> cleaned(lits.begin(), lits.end());
  std::sort(cleaned.begin(), cleaned.end(),
            [](Lit a, Lit b) { return a.index() < b.index(); });
  std::vector<Lit> out;
  out.reserve(cleaned.size());
  Lit prev = kLitUndef;
  for (Lit lit : cleaned) {
    AQED_CHECK(lit.var() < num_vars(), "literal over unknown variable");
    if (Value(lit) == LBool::kTrue || lit == ~prev) return true;  // satisfied
    if (Value(lit) != LBool::kFalse && lit != prev) {
      out.push_back(lit);
      prev = lit;
    }
  }

  if (out.empty()) {
    ok_ = false;
    return false;
  }
  if (out.size() == 1) {
    UncheckedEnqueue(out[0], kCRefUndef);
    ok_ = (Propagate() == kCRefUndef);
    return ok_;
  }
  const CRef cref = AllocClause(out, /*learnt=*/false);
  clauses_.push_back(cref);
  ++num_problem_clauses_;
  AttachClause(cref);
  return true;
}

void Solver::AttachClause(CRef cref) {
  const Lit* lits = ClauseLits(cref);
  AQED_CHECK(ClauseSize(cref) >= 2, "attach on short clause");
  watches_[(~lits[0]).index()].push_back({cref, lits[1]});
  watches_[(~lits[1]).index()].push_back({cref, lits[0]});
}

void Solver::DetachClause(CRef cref) {
  const Lit* lits = ClauseLits(cref);
  for (int i = 0; i < 2; ++i) {
    auto& watch_list = watches_[(~lits[i]).index()];
    auto it = std::find_if(watch_list.begin(), watch_list.end(),
                           [&](const Watcher& w) { return w.cref == cref; });
    AQED_CHECK(it != watch_list.end(), "watcher missing in detach");
    *it = watch_list.back();
    watch_list.pop_back();
  }
}

bool Solver::Locked(CRef cref) const {
  const Lit first = ClauseLits(cref)[0];
  return Value(first) == LBool::kTrue && reason_[first.var()] == cref;
}

void Solver::RemoveClause(CRef cref) {
  DetachClause(cref);
  if (Locked(cref)) reason_[ClauseLits(cref)[0].var()] = kCRefUndef;
  // The words stay in the arena until the next CompactArena.
  arena_[cref] |= kRemovedBit;
  wasted_ += ClauseWords(ClauseSize(cref));
}

// ---------------------------------------------------------------------------
// Assignment trail and propagation
// ---------------------------------------------------------------------------

void Solver::UncheckedEnqueue(Lit lit, CRef reason) {
  AQED_CHECK(Value(lit) == LBool::kUndef, "enqueue of assigned literal");
  values_[lit.index()] = LBool::kTrue;
  values_[(~lit).index()] = LBool::kFalse;
  reason_[lit.var()] = reason;
  level_[lit.var()] = DecisionLevel();
  trail_.push_back(lit);
}

CRef Solver::Propagate() {
  CRef confl = kCRefUndef;
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];  // p is true; visit watchers of p.
    const Lit false_lit = ~p;
    ++stats_.propagations;
    // Survivors are compacted from `i` down to `j`. A moved watcher always
    // goes to another list (its new literal is not false, so it is not
    // ~p), so this list never reallocates under the pointers.
    std::vector<Watcher>& watch_list = watches_[p.index()];
    Watcher* i = watch_list.data();
    Watcher* j = i;
    Watcher* const end = i + watch_list.size();
    while (i != end) {
      const Lit blocker = i->blocker;
      if (Value(blocker) == LBool::kTrue) {
        *j++ = *i++;
        continue;
      }
      const CRef cref = i->cref;
      ++i;
      Lit* lits = ClauseLits(cref);
      const uint32_t size = ClauseSize(cref);
      // Ensure the false literal (~p) is at position 1.
      if (lits[0] == false_lit) std::swap(lits[0], lits[1]);
      AQED_CHECK(lits[1] == false_lit, "watch invariant violated");
      // If the other watched literal is true, the clause is satisfied. The
      // blocker was just found not true, so it needs no second look.
      const Lit first = lits[0];
      if (first != blocker && Value(first) == LBool::kTrue) {
        *j++ = {cref, first};
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (Value(lits[k]) != LBool::kFalse) {
          lits[1] = lits[k];
          lits[k] = false_lit;
          watches_[(~lits[1]).index()].push_back({cref, first});
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Clause is unit or conflicting.
      *j++ = {cref, first};
      if (Value(first) == LBool::kFalse) {
        confl = cref;
        qhead_ = static_cast<uint32_t>(trail_.size());
        // Copy back the remaining watchers and stop.
        while (i != end) *j++ = *i++;
        break;
      }
      UncheckedEnqueue(first, cref);
    }
    watch_list.resize(static_cast<size_t>(j - watch_list.data()));
    if (confl != kCRefUndef) break;
  }
  return confl;
}

void Solver::CancelUntil(uint32_t target_level) {
  if (DecisionLevel() <= target_level) return;
  for (size_t i = trail_.size(); i-- > trail_lim_[target_level];) {
    const Var var = trail_[i].var();
    values_[trail_[i].index()] = LBool::kUndef;
    values_[(~trail_[i]).index()] = LBool::kUndef;
    if (options_.use_phase_saving) {
      polarity_[var] = trail_[i].negated() ? 1 : 0;
    }
    InsertVarOrder(var);
  }
  qhead_ = trail_lim_[target_level];
  trail_.resize(trail_lim_[target_level]);
  trail_lim_.resize(target_level);
}

// ---------------------------------------------------------------------------
// Conflict analysis (first UIP with deep minimization)
// ---------------------------------------------------------------------------

void Solver::Analyze(CRef confl, std::vector<Lit>& out_learnt,
                     uint32_t& out_btlevel) {
  out_learnt.clear();
  out_learnt.push_back(kLitUndef);  // placeholder for the asserting literal

  Lit p = kLitUndef;
  int path_count = 0;
  size_t index = trail_.size();

  do {
    AQED_CHECK(confl != kCRefUndef, "missing antecedent in analysis");
    if (ClauseLearnt(confl)) ClaBumpActivity(confl);
    const Lit* lits = ClauseLits(confl);
    const uint32_t size = ClauseSize(confl);
    for (uint32_t j = (p == kLitUndef) ? 0 : 1; j < size; ++j) {
      const Lit q = lits[j];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      VarBumpActivity(q.var());
      seen_[q.var()] = 1;
      if (level_[q.var()] >= DecisionLevel()) {
        ++path_count;
      } else {
        out_learnt.push_back(q);
      }
    }
    // Select next literal on the current level to resolve on.
    while (!seen_[trail_[--index].var()]) {
    }
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = 0;
    --path_count;
  } while (path_count > 0);
  out_learnt[0] = ~p;

  // Minimize: remove literals whose negation is implied by the rest.
  analyze_toclear_.assign(out_learnt.begin(), out_learnt.end());
  uint32_t abstract_levels = 0;
  for (size_t i = 1; i < out_learnt.size(); ++i) {
    abstract_levels |= AbstractLevel(out_learnt[i].var());
  }
  size_t kept = 1;
  const size_t original_size = out_learnt.size();
  for (size_t i = 1; i < out_learnt.size(); ++i) {
    const Lit lit = out_learnt[i];
    if (!options_.use_minimization || reason_[lit.var()] == kCRefUndef ||
        !LitRedundant(lit, abstract_levels)) {
      out_learnt[kept++] = lit;
    }
  }
  out_learnt.resize(kept);
  stats_.minimized_literals += original_size - kept;
  stats_.learnt_literals += out_learnt.size();

  // Find backtrack level: highest level among out_learnt[1..].
  if (out_learnt.size() == 1) {
    out_btlevel = 0;
  } else {
    size_t max_pos = 1;
    for (size_t i = 2; i < out_learnt.size(); ++i) {
      if (level_[out_learnt[i].var()] > level_[out_learnt[max_pos].var()]) {
        max_pos = i;
      }
    }
    std::swap(out_learnt[1], out_learnt[max_pos]);
    out_btlevel = level_[out_learnt[1].var()];
  }

  for (Lit lit : analyze_toclear_) seen_[lit.var()] = 0;
}

// Checks whether `lit` (a non-asserting literal of the learnt clause) is
// implied by the remaining seen literals; iterative DFS over antecedents.
// `abstract_levels` holds the AbstractLevel bits of the clause's literals.
// The DFS gives up at a literal whose level bit is not in it: an implied
// literal leads back through its own level to that level's decision, and a
// level with no clause literal holds no seen literal to stop at, so the
// unpruned search would fail there too and the result is the same.
bool Solver::LitRedundant(Lit lit, uint32_t abstract_levels) {
  minimize_stack_.clear();
  minimize_stack_.push_back(lit);
  const size_t toclear_base = analyze_toclear_.size();
  while (!minimize_stack_.empty()) {
    const Lit current = minimize_stack_.back();
    minimize_stack_.pop_back();
    const CRef reason = reason_[current.var()];
    AQED_CHECK(reason != kCRefUndef, "redundancy check hit a decision");
    const Lit* lits = ClauseLits(reason);
    const uint32_t size = ClauseSize(reason);
    for (uint32_t i = 1; i < size; ++i) {
      const Lit q = lits[i];
      if (seen_[q.var()] || level_[q.var()] == 0) continue;
      if (reason_[q.var()] == kCRefUndef ||
          (AbstractLevel(q.var()) & abstract_levels) == 0) {
        // Reached a decision that is not part of the clause, or a level
        // that leads to one: not redundant.
        for (size_t j = toclear_base; j < analyze_toclear_.size(); ++j) {
          seen_[analyze_toclear_[j].var()] = 0;
        }
        analyze_toclear_.resize(toclear_base);
        return false;
      }
      seen_[q.var()] = 1;
      analyze_toclear_.push_back(q);
      minimize_stack_.push_back(q);
    }
  }
  return true;
}

// Computes which assumptions were responsible for forcing ~p.
void Solver::AnalyzeFinal(Lit p, std::vector<Lit>& out_conflict) {
  out_conflict.clear();
  out_conflict.push_back(p);
  if (DecisionLevel() == 0) return;
  seen_[p.var()] = 1;
  for (size_t i = trail_.size(); i-- > trail_lim_[0];) {
    const Var var = trail_[i].var();
    if (!seen_[var]) continue;
    if (reason_[var] == kCRefUndef) {
      AQED_CHECK(level_[var] > 0, "decision at level 0");
      out_conflict.push_back(~trail_[i]);
    } else {
      const Lit* lits = ClauseLits(reason_[var]);
      const uint32_t size = ClauseSize(reason_[var]);
      for (uint32_t j = 1; j < size; ++j) {
        if (level_[lits[j].var()] > 0) seen_[lits[j].var()] = 1;
      }
    }
    seen_[var] = 0;
  }
  seen_[p.var()] = 0;
}

// ---------------------------------------------------------------------------
// Heuristics
// ---------------------------------------------------------------------------

void Solver::VarBumpActivity(Var var) {
  if ((activity_[var] += var_inc_) > 1e100) {
    for (auto& activity : activity_) activity *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (HeapInHeap(var)) HeapUp(heap_index_[var]);
}

void Solver::VarDecayActivity() { var_inc_ /= options_.var_decay; }

void Solver::ClaBumpActivity(CRef cref) {
  float activity = ClauseActivity(cref) + static_cast<float>(cla_inc_);
  if (activity > 1e20f) {
    for (CRef learnt : learnts_) {
      SetClauseActivity(learnt, ClauseActivity(learnt) * 1e-20f);
    }
    cla_inc_ *= 1e-20;
    activity = ClauseActivity(cref) + static_cast<float>(cla_inc_);
  }
  SetClauseActivity(cref, activity);
}

void Solver::ClaDecayActivity() { cla_inc_ /= options_.clause_decay; }

bool Solver::HeapLess(Var a, Var b) const {
  return activity_[a] > activity_[b];
}

void Solver::HeapUp(uint32_t pos) {
  const Var var = heap_[pos];
  while (pos > 0) {
    const uint32_t parent = (pos - 1) >> 1;
    if (!HeapLess(var, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    heap_index_[heap_[pos]] = pos;
    pos = parent;
  }
  heap_[pos] = var;
  heap_index_[var] = pos;
}

void Solver::HeapDown(uint32_t pos) {
  const Var var = heap_[pos];
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  for (;;) {
    uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && HeapLess(heap_[child + 1], heap_[child])) ++child;
    if (!HeapLess(heap_[child], var)) break;
    heap_[pos] = heap_[child];
    heap_index_[heap_[pos]] = pos;
    pos = child;
  }
  heap_[pos] = var;
  heap_index_[var] = pos;
}

void Solver::InsertVarOrder(Var var) {
  if (HeapInHeap(var)) return;
  heap_.push_back(var);
  heap_index_[var] = static_cast<uint32_t>(heap_.size()) - 1;
  HeapUp(heap_index_[var]);
}

Var Solver::HeapPop() {
  const Var top = heap_[0];
  const Var last = heap_.back();
  heap_.pop_back();
  heap_index_[top] = kVarUndef;
  // When `top` was the last element, moving `last` into the root would mark
  // it as in the heap again, and it would never be reinserted.
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_index_[last] = 0;
    HeapDown(0);
  }
  return top;
}

Lit Solver::PickBranchLit() {
  Var next = kVarUndef;
  if (options_.use_vsids) {
    while (!heap_.empty()) {
      const Var candidate = HeapPop();
      if (Value(candidate) == LBool::kUndef) {
        next = candidate;
        break;
      }
    }
  } else {
    for (Var var = 0; var < num_vars(); ++var) {
      if (Value(var) == LBool::kUndef) {
        next = var;
        break;
      }
    }
  }
  if (next == kVarUndef) return kLitUndef;
  const bool negated =
      options_.use_phase_saving ? polarity_[next] != 0 : true;
  return Lit(next, negated);
}

// ---------------------------------------------------------------------------
// Learnt-clause database reduction
// ---------------------------------------------------------------------------

template <typename Removable>
void Solver::RemoveLearnts(Removable removable, bool compact) {
  size_t kept = 0;
  for (size_t i = 0; i < learnts_.size(); ++i) {
    const CRef cref = learnts_[i];
    if (ClauseSize(cref) > 2 && !Locked(cref) && removable(i, cref)) {
      RemoveClause(cref);
    } else {
      learnts_[kept++] = cref;
    }
  }
  learnts_.resize(kept);
  if (compact || static_cast<double>(wasted_) >
                     kGarbageFraction * static_cast<double>(arena_.size())) {
    CompactArena();
  }
}

void Solver::ReduceDB() {
  ++stats_.reduce_db_rounds;
  max_learnts_ *= 1.1;  // allow the database to grow over time
  // Glucose-style: clauses with small literal-block distance encode tight
  // dependencies between few decision levels and are kept unconditionally;
  // the rest are ranked worst-first (high LBD, then low activity).
  std::sort(learnts_.begin(), learnts_.end(), [&](CRef a, CRef b) {
    if (ClauseLbd(a) != ClauseLbd(b)) return ClauseLbd(a) > ClauseLbd(b);
    return ClauseActivity(a) < ClauseActivity(b);
  });
  const size_t half = learnts_.size() / 2;
  RemoveLearnts(
      [&](size_t position, CRef cref) {
        return position < half && ClauseLbd(cref) > 3;
      },
      /*compact=*/false);
}

void Solver::ShedLearnts() {
  ++stats_.shed_rounds;
  RemoveLearnts([&](size_t, CRef cref) { return ClauseLbd(cref) > 2; },
                /*compact=*/true);
  arena_.shrink_to_fit();  // return the bytes now, not when the solver dies
  // Keep the database small while pressure lasts; the next Solve call
  // resets this to the normal growth schedule.
  max_learnts_ =
      std::max<double>(static_cast<double>(learnts_.size()) + 512.0, 1024.0);
  shed_floor_ = 2 * learnts_.size() + 1024;
  telemetry::AddCounter("sat.shed_rounds", 1);
}

void Solver::CompactArena() {
  // Sliding compaction in place (the Lisp 2 collector): live clauses keep
  // their arena order and move down over the removed ones, so nothing is
  // allocated and the arena keeps its capacity for the clauses to come.
  // Pass 1 writes each live clause's new CRef into its activity word, which
  // it saves; pass 2 forwards every reference through that word; pass 3
  // slides the clauses down and restores the activities.
  std::vector<uint32_t> activities;
  activities.reserve(clauses_.size() + learnts_.size());
  CRef to = 0;
  for (CRef from = 0; from < arena_.size();
       from += ClauseWords(ClauseSize(from))) {
    if ((arena_[from] & kRemovedBit) != 0) continue;
    activities.push_back(arena_[from + 1]);
    arena_[from + 1] = to;
    to += ClauseWords(ClauseSize(from));
  }
  const auto forward = [&](CRef& cref, const char* what) {
    AQED_CHECK((arena_[cref] & kRemovedBit) == 0, what);
    cref = arena_[cref + 1];
  };
  for (CRef& cref : clauses_) forward(cref, "problem clause was removed");
  for (CRef& cref : learnts_) forward(cref, "listed learnt was removed");
  // Reasons: an assigned variable's reason clause is locked, so it
  // survived removal; unassigned variables may carry a stale reason from a
  // backtracked assignment — drop those.
  for (Var var = 0; var < num_vars(); ++var) {
    CRef& reason = reason_[var];
    if (Value(var) == LBool::kUndef) {
      reason = kCRefUndef;
    } else if (reason != kCRefUndef) {
      forward(reason, "reason clause lost in compaction");
    }
  }
  for (auto& watch_list : watches_) {
    for (Watcher& watcher : watch_list) {
      forward(watcher.cref, "watched clause lost in compaction");
    }
  }
  size_t next = 0;
  to = 0;
  for (CRef from = 0; from < arena_.size();) {
    const uint32_t words = ClauseWords(ClauseSize(from));
    if ((arena_[from] & kRemovedBit) == 0) {
      arena_[from + 1] = activities[next++];
      if (to != from) {
        std::copy(arena_.begin() + from, arena_.begin() + from + words,
                  arena_.begin() + to);
      }
      to += words;
    }
    from += words;
  }
  arena_.resize(to);
  wasted_ = 0;
}

uint64_t Solver::MemoryBytes() const {
  // Constant-time: capacities of the big flat arrays plus a per-variable
  // constant covering the two-entry value table, model, polarity,
  // activity, reason, level, heap, seen and the two watch-list headers,
  // plus two watchers per attached clause. An estimate — the monitor ranks
  // jobs, it doesn't bill them.
  const uint64_t per_var = 2 * sizeof(LBool) + sizeof(LBool) + 1 +
                           sizeof(double) + sizeof(CRef) + sizeof(uint32_t) +
                           sizeof(Var) + sizeof(uint32_t) + 1 +
                           2 * sizeof(std::vector<Watcher>);
  return arena_.capacity() * sizeof(uint32_t) +
         (clauses_.capacity() + learnts_.capacity()) * sizeof(CRef) +
         trail_.capacity() * sizeof(Lit) +
         static_cast<uint64_t>(num_vars()) * per_var +
         (num_problem_clauses_ + learnts_.size()) * 2 * sizeof(Watcher);
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

uint64_t Solver::Luby(uint64_t i) {
  // Finds the subsequence value for the Luby restart sequence
  // 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < i + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != i) {
    size = (size - 1) >> 1;
    --seq;
    i = i % size;
  }
  return uint64_t{1} << seq;
}

SolveResult Solver::Search(int64_t conflicts_budget) {
  int64_t conflicts_here = 0;
  std::vector<Lit> learnt;
  for (;;) {
    const CRef confl = Propagate();
    if (confl != kCRefUndef) {
      ++stats_.conflicts;
      ++conflicts_here;
      if (DecisionLevel() == 0) return SolveResult::kUnsat;
      uint32_t backtrack_level = 0;
      Analyze(confl, learnt, backtrack_level);
      CancelUntil(backtrack_level);
      if (learnt.size() == 1) {
        UncheckedEnqueue(learnt[0], kCRefUndef);
      } else {
        const CRef cref = AllocClause(learnt, /*learnt=*/true);
        // Literal block distance: number of distinct decision levels in the
        // clause (computed after backtracking bumps nothing, so use the
        // recorded levels).
        lbd_levels_.clear();
        for (const Lit lit : learnt) lbd_levels_.push_back(level_[lit.var()]);
        std::sort(lbd_levels_.begin(), lbd_levels_.end());
        const uint32_t lbd = static_cast<uint32_t>(
            std::unique(lbd_levels_.begin(), lbd_levels_.end()) -
            lbd_levels_.begin());
        SetClauseLbd(cref, lbd);
        learnts_.push_back(cref);
        AttachClause(cref);
        ClaBumpActivity(cref);
        UncheckedEnqueue(learnt[0], cref);
      }
      VarDecayActivity();
      ClaDecayActivity();
      continue;
    }

    // No conflict.
    if (options_.cancel.cancelled()) {
      CancelUntil(0);
      return SolveResult::kUnknown;  // cooperative cancellation
    }
    if (conflicts_budget >= 0 && conflicts_here >= conflicts_budget) {
      CancelUntil(0);
      return SolveResult::kUnknown;  // restart (or budget exhausted)
    }
    if (sched::CurrentMemoryPressure() >= sched::MemoryPressure::kShed &&
        learnts_.size() >= shed_floor_) {
      // Pressure stage 1: shed the learnt database and compact the arena
      // regardless of use_reduce_db — memory pressure outranks ablation.
      ShedLearnts();
    } else if (options_.use_reduce_db &&
               static_cast<double>(learnts_.size()) >=
                   max_learnts_ + trail_.size()) {
      ReduceDB();
    }

    Lit next = kLitUndef;
    while (DecisionLevel() < assumptions_.size()) {
      const Lit assumption = assumptions_[DecisionLevel()];
      if (Value(assumption) == LBool::kTrue) {
        NewDecisionLevel();  // dummy level, already satisfied
      } else if (Value(assumption) == LBool::kFalse) {
        AnalyzeFinal(~assumption, conflict_);
        return SolveResult::kUnsat;
      } else {
        next = assumption;
        break;
      }
    }
    if (next == kLitUndef) {
      ++stats_.decisions;
      next = PickBranchLit();
      if (next == kLitUndef) {
        // All variables assigned: model found.
        for (Var var = 0; var < num_vars(); ++var) model_[var] = Value(var);
        return SolveResult::kSat;
      }
    }
    NewDecisionLevel();
    UncheckedEnqueue(next, kCRefUndef);
  }
}

std::unique_ptr<Solver> Solver::Clone(const Options& options) const {
  AQED_CHECK(DecisionLevel() == 0, "Clone requires decision level 0");
  auto clone = std::make_unique<Solver>(options);
  clone->arena_ = arena_;
  clone->wasted_ = wasted_;
  clone->clauses_ = clauses_;
  clone->learnts_ = learnts_;
  clone->num_problem_clauses_ = num_problem_clauses_;
  clone->values_ = values_;
  clone->model_ = model_;
  clone->polarity_ = polarity_;
  clone->activity_ = activity_;
  clone->reason_ = reason_;
  clone->level_ = level_;
  clone->watches_ = watches_;
  clone->trail_ = trail_;
  clone->trail_lim_ = trail_lim_;
  clone->qhead_ = qhead_;
  clone->heap_ = heap_;
  clone->heap_index_ = heap_index_;
  clone->seen_ = seen_;
  clone->var_inc_ = var_inc_;
  clone->cla_inc_ = cla_inc_;
  clone->max_learnts_ = max_learnts_;
  clone->ok_ = ok_;
  return clone;
}

std::vector<Var> Solver::TopActivityVars(uint32_t n) const {
  std::vector<Var> free_vars;
  free_vars.reserve(num_vars());
  for (Var var = 0; var < num_vars(); ++var) {
    if (Value(var) == LBool::kUndef) free_vars.push_back(var);
  }
  const size_t count = std::min<size_t>(n, free_vars.size());
  std::partial_sort(free_vars.begin(), free_vars.begin() + count,
                    free_vars.end(), [&](Var a, Var b) {
                      if (activity_[a] != activity_[b]) {
                        return activity_[a] > activity_[b];
                      }
                      return a < b;
                    });
  free_vars.resize(count);
  return free_vars;
}

SolveResult Solver::Solve(std::span<const Lit> assumptions,
                          const SolveLimits& limits) {
  conflict_.clear();
  if (!ok_) return SolveResult::kUnsat;
  // One span per solve call; search-effort counters are accumulated in the
  // private stats_ as always and flushed to the metrics registry as deltas
  // below — no atomics inside the search loop.
  telemetry::Span span("sat.solve",
                       {{"vars", static_cast<int64_t>(num_vars())},
                        {"clauses",
                         static_cast<int64_t>(num_problem_clauses_)}});
  const Statistics before = stats_;
  assumptions_.assign(assumptions.begin(), assumptions.end());
  for (Lit assumption : assumptions_) {
    AQED_CHECK(assumption.var() < num_vars(), "assumption over unknown var");
  }
  max_learnts_ = std::max<double>(static_cast<double>(num_problem_clauses_) / 3.0, 1000.0);

  const int64_t budget = limits.max_conflicts;
  int64_t total_conflicts = 0;
  SolveResult result = SolveResult::kUnknown;
  for (uint64_t restart = 0; result == SolveResult::kUnknown; ++restart) {
    if (options_.cancel.cancelled()) break;
    // Refresh the monitor's view of this job's footprint once per
    // restart: frequent enough to rank jobs honestly, far off the
    // per-decision hot path.
    sched::PublishSolverMemory(MemoryBytes());
    int64_t this_restart = options_.use_restarts
                               ? static_cast<int64_t>(Luby(restart)) *
                                     options_.restart_base
                               : -1;
    if (budget >= 0) {
      const int64_t remaining = budget - total_conflicts;
      if (remaining <= 0) break;
      this_restart = this_restart < 0
                         ? remaining
                         : std::min<int64_t>(this_restart, remaining);
    }
    const uint64_t conflicts_before = stats_.conflicts;
    result = Search(this_restart);
    total_conflicts +=
        static_cast<int64_t>(stats_.conflicts - conflicts_before);
    if (result == SolveResult::kUnknown) ++stats_.restarts;
    if (result == SolveResult::kSat && model_check_) {
      // The check adds clauses, which needs decision level 0.
      CancelUntil(0);
      if (model_check_(model_)) {
        result = ok_ ? SolveResult::kUnknown : SolveResult::kUnsat;
      }
    }
  }
  CancelUntil(0);
  // Record why an inconclusive solve stopped: the only ways out of the
  // restart loop with kUnknown are a fired cancellation token (which knows
  // whether a deadline or a sibling tripped it) or budget exhaustion.
  stats_.last_unknown =
      result != SolveResult::kUnknown ? UnknownReason::kNone
      : options_.cancel.cancelled()
          ? sched::UnknownReasonFromCancel(options_.cancel.reason())
          : UnknownReason::kConflictBudget;
  if (telemetry::Enabled()) {
    telemetry::AddCounter("sat.solves", 1);
    // Formula-size gauges for the flight recorder: sampled mid-run they
    // show clause-database growth across BMC depths — the memory half of
    // the BMC blow-up story. Set once per solve, never in the search loop.
    telemetry::SetGauge("sat.vars", static_cast<int64_t>(num_vars()));
    telemetry::SetGauge("sat.clauses", static_cast<int64_t>(
                                           num_problem_clauses_ +
                                           learnts_.size()));
    telemetry::AddCounter("sat.decisions", stats_.decisions - before.decisions);
    telemetry::AddCounter("sat.propagations",
                          stats_.propagations - before.propagations);
    telemetry::AddCounter("sat.conflicts", stats_.conflicts - before.conflicts);
    telemetry::AddCounter("sat.restarts", stats_.restarts - before.restarts);
    span.AddArg("conflicts",
                static_cast<int64_t>(stats_.conflicts - before.conflicts));
    span.AddArg("result", static_cast<int64_t>(result));
  }
  return result;
}

}  // namespace aqed::sat
