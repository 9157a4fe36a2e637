// Unit and randomized differential tests for the CDCL SAT solver.
#include "sat/solver.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "sat/dimacs.h"
#include "sched/cancellation.h"
#include "support/rng.h"

namespace aqed::sat {
namespace {

Lit Pos(Var v) { return Lit(v, false); }
Lit NegL(Var v) { return Lit(v, true); }

TEST(LitTest, EncodingRoundTrip) {
  const Lit a = Pos(7);
  EXPECT_EQ(a.var(), 7u);
  EXPECT_FALSE(a.negated());
  EXPECT_TRUE((~a).negated());
  EXPECT_EQ((~~a), a);
  EXPECT_EQ(a.index(), 14u);
  EXPECT_EQ((~a).index(), 15u);
}

TEST(SolverTest, EmptyFormulaIsSat) {
  Solver solver;
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SingleUnitClause) {
  Solver solver;
  const Var x = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(x), LBool::kTrue);
}

TEST(SolverTest, ContradictingUnitsAreUnsat) {
  Solver solver;
  const Var x = solver.NewVar();
  EXPECT_TRUE(solver.AddClause({Pos(x)}));
  EXPECT_FALSE(solver.AddClause({NegL(x)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, EmptyClauseIsUnsat) {
  Solver solver;
  EXPECT_FALSE(solver.AddClause(std::span<const Lit>{}));
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, TautologyIsDropped) {
  Solver solver;
  const Var x = solver.NewVar();
  EXPECT_TRUE(solver.AddClause({Pos(x), NegL(x)}));
  EXPECT_EQ(solver.num_clauses(), 0u);
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, DuplicateLiteralsAreMerged) {
  Solver solver;
  const Var x = solver.NewVar();
  const Var y = solver.NewVar();
  EXPECT_TRUE(solver.AddClause({Pos(x), Pos(x), Pos(y)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, SimpleImplicationChain) {
  Solver solver;
  std::vector<Var> vars;
  for (int i = 0; i < 10; ++i) vars.push_back(solver.NewVar());
  for (int i = 0; i + 1 < 10; ++i) {
    ASSERT_TRUE(solver.AddClause({NegL(vars[i]), Pos(vars[i + 1])}));
  }
  ASSERT_TRUE(solver.AddClause({Pos(vars[0])}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(solver.ModelValue(vars[i]), LBool::kTrue) << i;
  }
}

TEST(SolverTest, XorChainUnsat) {
  // x1 xor x2 = 1, x2 xor x3 = 1, x3 xor x1 = 1 is UNSAT (odd cycle).
  Solver solver;
  const Var a = solver.NewVar(), b = solver.NewVar(), c = solver.NewVar();
  auto add_xor_true = [&](Var x, Var y) {
    EXPECT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
    EXPECT_TRUE(solver.AddClause({NegL(x), NegL(y)}));
  };
  add_xor_true(a, b);
  add_xor_true(b, c);
  add_xor_true(c, a);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

// Pigeonhole: n+1 pigeons into n holes, classic hard UNSAT family.
void AddPigeonhole(Solver& solver, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> at(pigeons, std::vector<Var>(holes));
  for (auto& row : at) {
    for (auto& var : row) var = solver.NewVar();
  }
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    for (int h = 0; h < holes; ++h) clause.push_back(Pos(at[p][h]));
    ASSERT_TRUE(solver.AddClause(clause));
  }
  for (int h = 0; h < holes; ++h) {
    for (int p1 = 0; p1 < pigeons; ++p1) {
      for (int p2 = p1 + 1; p2 < pigeons; ++p2) {
        ASSERT_TRUE(solver.AddClause({NegL(at[p1][h]), NegL(at[p2][h])}));
      }
    }
  }
}

TEST(SolverTest, PigeonholeUnsat) {
  for (int holes = 2; holes <= 6; ++holes) {
    Solver solver;
    AddPigeonhole(solver, holes);
    EXPECT_EQ(solver.Solve(), SolveResult::kUnsat) << holes;
  }
}

TEST(SolverTest, AssumptionsFlipOutcome) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  const Lit assume_both_false[] = {NegL(x), NegL(y)};
  EXPECT_EQ(solver.Solve(assume_both_false), SolveResult::kUnsat);
  EXPECT_FALSE(solver.failed_assumptions().empty());
  // Solver is reusable after an assumption failure.
  const Lit assume_x[] = {Pos(x)};
  EXPECT_EQ(solver.Solve(assume_x), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(x), LBool::kTrue);
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
}

TEST(SolverTest, FailedAssumptionCore) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar(), z = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({NegL(x), Pos(y)}));  // x -> y
  const Lit assumptions[] = {Pos(z), Pos(x), NegL(y)};
  EXPECT_EQ(solver.Solve(assumptions), SolveResult::kUnsat);
  // z is irrelevant; the core must mention x or y only.
  for (Lit lit : solver.failed_assumptions()) {
    EXPECT_NE(lit.var(), z);
  }
}

TEST(SolverTest, ConflictLimitReturnsUnknown) {
  Solver solver;
  AddPigeonhole(solver, 8);  // hard enough to exceed a tiny budget
  EXPECT_EQ(solver.Solve({}, SolveLimits{.max_conflicts = 10}),
            SolveResult::kUnknown);
  // The limit applies to one call only; an unlimited solve finishes.
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

TEST(SolverTest, IncrementalClauseAddition) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  ASSERT_TRUE(solver.AddClause({NegL(x)}));
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(y), LBool::kTrue);
  solver.AddClause({NegL(y)});
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
}

// Every Solve that ends kSat assigns every variable. The order heap once
// lost the last variable it handed out on each satisfiable solve, so the
// third solve here left a and b unassigned and (a | b) unsatisfied.
TEST(SolverTest, RepeatedSolvesReturnCompleteModels) {
  Solver solver;
  const Var a = solver.NewVar(), b = solver.NewVar(), c = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(a), Pos(b)}));
  for (int solve = 0; solve < 4; ++solve) {
    ASSERT_EQ(solver.Solve(), SolveResult::kSat) << solve;
    for (const Var var : {a, b, c}) {
      EXPECT_NE(solver.ModelValue(var), LBool::kUndef) << solve;
    }
    EXPECT_TRUE(solver.ModelValue(a) == LBool::kTrue ||
                solver.ModelValue(b) == LBool::kTrue)
        << solve;
  }
}

// --- model check (lazily refined encodings) ----------------------------------

// Rejects every model with `x` false by adding, through a fresh variable v,
// the clauses (v) and (~v | x); accepts the rest. Counts its calls.
struct RequireX {
  Solver& solver;
  Var x;
  int calls = 0;
  bool operator()(std::span<const LBool> model) {
    ++calls;
    if (model[x] == LBool::kTrue) return false;
    const Var v = solver.NewVar();
    solver.AddClause({Pos(v)});
    solver.AddClause({NegL(v), Pos(x)});
    return true;
  }
};

TEST(ModelCheckTest, RejectedModelIsRefinedAway) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  RequireX check{solver, x};
  solver.SetModelCheck([&](std::span<const LBool> model) {
    return check(model);
  });
  // The default phase is false, so the first model has x false.
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(check.calls, 2);
  EXPECT_EQ(solver.ModelValue(x), LBool::kTrue);
  EXPECT_EQ(solver.model().size(), solver.num_vars());
}

TEST(ModelCheckTest, ContradictoryRefinementIsUnsat) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  solver.SetModelCheck([&](std::span<const LBool>) {
    solver.AddClause({NegL(x)});
    solver.AddClause({NegL(y)});
    return true;
  });
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_TRUE(solver.inconsistent());
}

TEST(ModelCheckTest, RefinementContradictingAnAssumptionIsUnsatUnderIt) {
  Solver solver;
  const Var a = solver.NewVar(), x = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({NegL(a), Pos(x)}));  // a -> x
  solver.SetModelCheck([&](std::span<const LBool> model) {
    if (model[x] != LBool::kTrue) return false;
    solver.AddClause({NegL(x)});
    return true;
  });
  const Lit assume_a[] = {Pos(a)};
  EXPECT_EQ(solver.Solve(assume_a), SolveResult::kUnsat);
  EXPECT_FALSE(solver.failed_assumptions().empty());
  EXPECT_EQ(solver.Solve(), SolveResult::kSat);
  EXPECT_EQ(solver.ModelValue(a), LBool::kFalse);
}

// A check that blocks every model it sees, so only the budget or a cancel
// ends the search.
void BlockEveryModel(Solver& solver, int& calls) {
  solver.SetModelCheck([&solver, &calls](std::span<const LBool> model) {
    ++calls;
    std::vector<Lit> blocking;
    for (Var var = 0; var < model.size(); ++var) {
      blocking.push_back(Lit(var, model[var] == LBool::kTrue));
    }
    solver.AddClause(blocking);
    return true;
  });
}

TEST(ModelCheckTest, ConflictBudgetStillEndsTheSolveUnknown) {
  Solver solver;
  for (int i = 0; i < 12; ++i) solver.NewVar();
  int calls = 0;
  BlockEveryModel(solver, calls);
  EXPECT_EQ(solver.Solve({}, SolveLimits{.max_conflicts = 5}),
            SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().last_unknown, UnknownReason::kConflictBudget);
  EXPECT_GT(calls, 1);
}

TEST(ModelCheckTest, CancellationStillEndsTheSolveUnknown) {
  sched::CancellationSource source;
  Solver::Options options;
  options.cancel = source.token();
  Solver solver(options);
  const Var x = solver.NewVar();
  int calls = 0;
  solver.SetModelCheck([&](std::span<const LBool>) {
    ++calls;
    source.Cancel();
    solver.AddClause({Pos(x)});
    return true;
  });
  EXPECT_EQ(solver.Solve(), SolveResult::kUnknown);
  EXPECT_EQ(solver.stats().last_unknown, UnknownReason::kCancelled);
  EXPECT_EQ(calls, 1);
}

TEST(ModelCheckTest, CloneCarriesNoCheck) {
  Solver solver;
  const Var x = solver.NewVar(), y = solver.NewVar();
  ASSERT_TRUE(solver.AddClause({Pos(x), Pos(y)}));
  RequireX check{solver, x};
  solver.SetModelCheck([&](std::span<const LBool> model) {
    return check(model);
  });
  const std::unique_ptr<Solver> clone = solver.Clone(Solver::Options{});
  EXPECT_EQ(clone->Solve(), SolveResult::kSat);
  EXPECT_EQ(clone->ModelValue(x), LBool::kFalse);
  EXPECT_EQ(check.calls, 0);
}

// --- randomized differential testing vs brute force ------------------------

// Evaluates a CNF under an assignment given as bit i of `assignment`.
bool EvalCnf(const Cnf& cnf, uint64_t assignment) {
  for (const auto& clause : cnf.clauses) {
    bool satisfied = false;
    for (Lit lit : clause) {
      const bool value = ((assignment >> lit.var()) & 1) != 0;
      if (value != lit.negated()) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) return false;
  }
  return true;
}

bool BruteForceSat(const Cnf& cnf) {
  for (uint64_t assignment = 0; assignment < (uint64_t{1} << cnf.num_vars);
       ++assignment) {
    if (EvalCnf(cnf, assignment)) return true;
  }
  return false;
}

Cnf RandomCnf(Rng& rng, uint32_t num_vars, uint32_t num_clauses,
              uint32_t max_len) {
  Cnf cnf;
  cnf.num_vars = num_vars;
  for (uint32_t c = 0; c < num_clauses; ++c) {
    const uint32_t len = 1 + static_cast<uint32_t>(rng.NextBelow(max_len));
    std::vector<Lit> clause;
    for (uint32_t l = 0; l < len; ++l) {
      clause.emplace_back(static_cast<Var>(rng.NextBelow(num_vars)),
                          rng.Chance(1, 2));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

class RandomCnfTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCnfTest, MatchesBruteForceAndModelIsValid) {
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.NextBelow(10));
    const uint32_t num_clauses =
        2 + static_cast<uint32_t>(rng.NextBelow(5 * num_vars));
    const Cnf cnf = RandomCnf(rng, num_vars, num_clauses, 4);

    Solver solver;
    const bool consistent = LoadCnf(cnf, solver);
    const SolveResult result =
        consistent ? solver.Solve() : SolveResult::kUnsat;
    const bool expected = BruteForceSat(cnf);
    ASSERT_EQ(result == SolveResult::kSat, expected)
        << "seed " << GetParam() << " round " << round << "\n"
        << ToDimacs(cnf);
    if (result == SolveResult::kSat) {
      uint64_t assignment = 0;
      for (Var v = 0; v < cnf.num_vars; ++v) {
        if (solver.ModelValue(v) == LBool::kTrue) assignment |= 1ull << v;
      }
      EXPECT_TRUE(EvalCnf(cnf, assignment)) << "model does not satisfy CNF";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Feature ablations must not change outcomes, only performance.
class AblationTest : public ::testing::TestWithParam<int> {};

TEST_P(AblationTest, AblatedSolverAgreesWithBruteForce) {
  Solver::Options options;
  switch (GetParam()) {
    case 0: options.use_vsids = false; break;
    case 1: options.use_phase_saving = false; break;
    case 2: options.use_minimization = false; break;
    case 3: options.use_restarts = false; break;
    case 4: options.use_reduce_db = false; break;
  }
  Rng rng(99);
  for (int round = 0; round < 25; ++round) {
    const uint32_t num_vars = 3 + static_cast<uint32_t>(rng.NextBelow(8));
    const uint32_t num_clauses =
        2 + static_cast<uint32_t>(rng.NextBelow(4 * num_vars));
    const Cnf cnf = RandomCnf(rng, num_vars, num_clauses, 4);
    Solver solver(options);
    const bool consistent = LoadCnf(cnf, solver);
    const SolveResult result =
        consistent ? solver.Solve() : SolveResult::kUnsat;
    ASSERT_EQ(result == SolveResult::kSat, BruteForceSat(cnf))
        << "ablation " << GetParam() << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Features, AblationTest, ::testing::Range(0, 5));

TEST(DimacsTest, RoundTrip) {
  Cnf cnf;
  cnf.num_vars = 3;
  cnf.clauses = {{Pos(0), NegL(2)}, {Pos(1)}, {NegL(0), NegL(1), Pos(2)}};
  const std::string text = ToDimacs(cnf);
  auto parsed = ParseDimacsString(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().num_vars, 3u);
  ASSERT_EQ(parsed.value().clauses.size(), 3u);
  EXPECT_EQ(parsed.value().clauses[0][1], NegL(2));
}

TEST(DimacsTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseDimacsString("p cnf x y\n1 0\n").ok());
  EXPECT_FALSE(ParseDimacsString("1 2 0\n").ok());             // no header
  EXPECT_FALSE(ParseDimacsString("p cnf 2 1\n1 3 0\n").ok());  // var range
  EXPECT_FALSE(ParseDimacsString("p cnf 2 2\n1 2 0\n").ok());  // count
  EXPECT_FALSE(ParseDimacsString("p cnf 2 1\n1 2\n").ok());    // unterminated
  EXPECT_FALSE(ParseDimacsString("p cnf 2 1\n1 x 0\n2 0\n").ok());  // token
  EXPECT_FALSE(ParseDimacsString("p cnf 2 1 7\n1 0\n").ok());  // header junk
  EXPECT_FALSE(  // variable count truncated by a uint32_t cast
      ParseDimacsString("p cnf 4294967297 1\n1 0\n").ok());
  EXPECT_FALSE(  // literal index 2 * var overflows uint32_t
      ParseDimacsString("p cnf 3000000000 1\n2500000000 0\n").ok());
  EXPECT_FALSE(  // negating INT64_MIN is signed overflow
      ParseDimacsString("p cnf 2 1\n-9223372036854775808 0\n").ok());
  EXPECT_FALSE(  // out of int64_t range
      ParseDimacsString("p cnf 2 1\n99999999999999999999 0\n").ok());
}

TEST(SolverStatsTest, CountersAdvance) {
  Solver solver;
  AddPigeonhole(solver, 5);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().decisions, 0u);
  EXPECT_GT(solver.stats().propagations, 0u);
}

// Clauses that ReduceDB deletes give their arena words back: after a long
// refutation the solver holds less than the literals it ever learnt.
TEST(SolverStatsTest, ReducedLearntsLeaveTheArena) {
  Solver solver;
  AddPigeonhole(solver, 8);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_GE(solver.stats().reduce_db_rounds, 10u);
  EXPECT_LT(solver.MemoryBytes(),
            solver.stats().learnt_literals * sizeof(uint32_t));
}

// Clause minimization prunes its antecedent search by decision level; the
// pruning must drop exactly the literals the unpruned search drops. These
// counts were recorded before the pruning existed.
TEST(SolverStatsTest, MinimizationIsPinned) {
  Solver solver;
  AddPigeonhole(solver, 8);
  EXPECT_EQ(solver.Solve(), SolveResult::kUnsat);
  EXPECT_EQ(solver.stats().learnt_literals, 898525u);
  EXPECT_EQ(solver.stats().minimized_literals, 182704u);
}

}  // namespace
}  // namespace aqed::sat
