//===- tests/dependence/FMEquivalenceTest.cpp - FMSystem vs reference ----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins FMSystem's answers to a reference Fourier-Motzkin solver: the
/// vector-of-rows implementation FMSystem replaced, kept here verbatim
/// (only renamed). Over seeded random systems - rational and integer
/// modes, sparse and dense rows, systems past the 2,000-row cap, and
/// coefficients near the int64 limits under an OverflowGuard - every
/// feasible(), every rangeOf(v) and every guard trip must agree. The
/// dependence sets the analyzers build on FMSystem are pinned separately
/// by the generated-nest golden (tests/deps/DepsetGoldenTest.cpp).
///
//===----------------------------------------------------------------------===//

#include "dependence/FMSolver.h"

#include "fuzz/Rng.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <climits>
#include <sstream>

using namespace irlt;

namespace {

//===----------------------------------------------------------------------===
// The reference solver (verbatim, renamed; members public for the tests)
//===----------------------------------------------------------------------===

class RefFMSystem {
public:
  explicit RefFMSystem(unsigned NumVars, bool IntegerVars = false)
      : NumVars(NumVars), IntegerVars(IntegerVars) {}

  unsigned numVars() const { return NumVars; }

  /// Adds sum Coef[i]*x_i <= Rhs.
  void addLE(std::vector<int64_t> Coef, int64_t Rhs);

  /// Adds sum Coef[i]*x_i >= Rhs.
  void addGE(std::vector<int64_t> Coef, int64_t Rhs);

  /// Adds sum Coef[i]*x_i == Rhs (as a pair of inequalities).
  void addEQ(const std::vector<int64_t> &Coef, int64_t Rhs);

  /// Fixes variable \p Var to \p Value.
  void fixVar(unsigned Var, int64_t Value);

  /// True if the rational relaxation has a solution.
  bool feasible() const;

  /// Projects onto variable \p Var: eliminates all others and reports the
  /// variable's feasible range (rational). Infeasible systems report
  /// Feasible = false.
  VarRange rangeOf(unsigned Var) const;

  size_t numConstraints() const { return Rows.size(); }

  struct Row {
    std::vector<int64_t> Coef; // length NumVars
    int64_t Rhs;
  };

  /// Divides by the gcd of all coefficients and the rhs-compatible factor
  /// (flooring the rhs instead under \p IntegerVars), then returns false
  /// if the row is a tautology (all-zero, 0 <= Rhs with Rhs >= 0) and
  /// flags contradictions.
  static bool normalizeRow(Row &R, bool &Contradiction, bool IntegerVars);

  enum class ElimResult { Ok, Contradiction, Overflow };

  /// Eliminates variable \p Var from \p Rows (classic FM pairing).
  /// Overflow reports that the quadratic pairing exceeded the row cap -
  /// callers must fall back conservatively (assume feasible/unbounded).
  static ElimResult eliminate(std::vector<Row> &Rows, unsigned Var,
                              bool IntegerVars);

  std::vector<Row> Rows; // all rows mean  sum Coef*x <= Rhs
  unsigned NumVars;
  bool IntegerVars;
  bool HardInfeasible = false; // a contradiction was added directly
};

void RefFMSystem::addLE(std::vector<int64_t> Coef, int64_t Rhs) {
  assert(Coef.size() == NumVars && "coefficient arity mismatch");
  Row R{std::move(Coef), Rhs};
  bool Contradiction = false;
  if (normalizeRow(R, Contradiction, IntegerVars))
    Rows.push_back(std::move(R));
  if (Contradiction)
    HardInfeasible = true;
}

void RefFMSystem::addGE(std::vector<int64_t> Coef, int64_t Rhs) {
  for (int64_t &C : Coef)
    C = negChecked(C);
  addLE(std::move(Coef), negChecked(Rhs));
}

void RefFMSystem::addEQ(const std::vector<int64_t> &Coef, int64_t Rhs) {
  addLE(Coef, Rhs);
  addGE(Coef, Rhs);
}

void RefFMSystem::fixVar(unsigned Var, int64_t Value) {
  std::vector<int64_t> Coef(NumVars, 0);
  Coef[Var] = 1;
  addEQ(Coef, Value);
}

bool RefFMSystem::normalizeRow(Row &R, bool &Contradiction, bool IntegerVars) {
  int64_t G = 0;
  for (int64_t C : R.Coef)
    G = gcd(G, C);
  if (G == 0) {
    // Constant row: 0 <= Rhs.
    if (R.Rhs < 0)
      Contradiction = true;
    return false; // never keep constant rows
  }
  if (G > 1) {
    for (int64_t &C : R.Coef)
      C /= G;
    if (IntegerVars) {
      // Integral variables: sum (Coef/g)*x is an integer, so the bound
      // floors exactly. This keeps every integer solution and cuts the
      // purely-rational slack (an equality whose rhs g does not divide
      // becomes a contradictory <=/>= pair, i.e. the GCD test).
      R.Rhs = floorDiv(R.Rhs, G);
    } else if (R.Rhs % G == 0) {
      // Rational variables: divide the rhs only when it stays exact
      // (flooring would cut rational solutions).
      R.Rhs /= G;
    } else {
      // Re-scale coefficients back; keep the row unreduced.
      for (int64_t &C : R.Coef)
        C *= G;
    }
  }
  return true;
}

RefFMSystem::ElimResult RefFMSystem::eliminate(std::vector<Row> &Rows,
                                               unsigned Var,
                                               bool IntegerVars) {
  // Bail out before the pairing step can square the row count into
  // pathological territory; callers treat Overflow as "unknown".
  constexpr size_t RowCap = 2000;
  std::vector<Row> Lower, Upper, Rest;
  for (Row &R : Rows) {
    if (R.Coef[Var] < 0)
      Lower.push_back(std::move(R));
    else if (R.Coef[Var] > 0)
      Upper.push_back(std::move(R));
    else
      Rest.push_back(std::move(R));
  }
  if (Rest.size() + Lower.size() * Upper.size() > RowCap)
    return ElimResult::Overflow;
  Rows = std::move(Rest);
  for (const Row &L : Lower) {
    for (const Row &U : Upper) {
      // L: cL*v + a.x <= rL (cL < 0);  U: cU*v + b.x <= rU (cU > 0).
      // cU*L + (-cL)*U eliminates v.
      int64_t FL = U.Coef[Var];            // > 0
      int64_t FU = negChecked(L.Coef[Var]); // > 0
      Row N;
      N.Coef.resize(L.Coef.size());
      for (size_t I = 0; I < L.Coef.size(); ++I)
        N.Coef[I] =
            addChecked(mulChecked(FL, L.Coef[I]), mulChecked(FU, U.Coef[I]));
      N.Rhs = addChecked(mulChecked(FL, L.Rhs), mulChecked(FU, U.Rhs));
      if (N.Coef[Var] != 0) {
        // Identically zero in exact arithmetic; a residue means the
        // checked ops saturated under an OverflowGuard. Record and treat
        // the elimination as overflowed so the caller rejects cleanly.
        bool Guarded = OverflowGuard::record();
        assert(Guarded && "variable survived elimination");
        (void)Guarded;
        return ElimResult::Overflow;
      }
      bool Contradiction = false;
      if (normalizeRow(N, Contradiction, IntegerVars))
        Rows.push_back(std::move(N));
      if (Contradiction)
        return ElimResult::Contradiction;
    }
  }
  // Deduplicate to curb FM blowup.
  std::sort(Rows.begin(), Rows.end(), [](const Row &A, const Row &B) {
    if (A.Coef != B.Coef)
      return A.Coef < B.Coef;
    return A.Rhs < B.Rhs;
  });
  Rows.erase(std::unique(Rows.begin(), Rows.end(),
                         [](const Row &A, const Row &B) {
                           return A.Coef == B.Coef && A.Rhs == B.Rhs;
                         }),
             Rows.end());
  return ElimResult::Ok;
}

bool RefFMSystem::feasible() const {
  if (HardInfeasible)
    return false;
  std::vector<Row> Work = Rows;
  for (unsigned V = 0; V < NumVars; ++V) {
    switch (eliminate(Work, V, IntegerVars)) {
    case ElimResult::Contradiction:
      return false;
    case ElimResult::Overflow:
      return true; // unknown: conservative for every caller
    case ElimResult::Ok:
      break;
    }
  }
  return true; // only tautological constant rows remained
}

VarRange RefFMSystem::rangeOf(unsigned Var) const {
  VarRange Out;
  if (HardInfeasible)
    return Out;
  std::vector<Row> Work = Rows;
  for (unsigned V = 0; V < NumVars; ++V) {
    if (V == Var)
      continue;
    switch (eliminate(Work, V, IntegerVars)) {
    case ElimResult::Contradiction:
      return Out;
    case ElimResult::Overflow:
      Out.Feasible = true; // unknown: report an unbounded range
      return Out;
    case ElimResult::Ok:
      break;
    }
  }
  Out.Feasible = true;
  for (const Row &R : Work) {
    int64_t C = R.Coef[Var];
    assert(C != 0 && "constant rows are never stored");
    Rational Bound(R.Rhs, C);
    if (C > 0) { // v <= Rhs/C
      if (!Out.Hi || Bound < *Out.Hi)
        Out.Hi = Bound;
    } else { // v >= Rhs/C (division by negative flips)
      if (!Out.Lo || Bound > *Out.Lo)
        Out.Lo = Bound;
    }
  }
  if (Out.Lo && Out.Hi && *Out.Hi < *Out.Lo)
    Out.Feasible = false;
  return Out;
}

//===----------------------------------------------------------------------===
// Seeded random systems
//===----------------------------------------------------------------------===

/// One constraint of a recipe, replayed identically into both solvers.
struct Op {
  enum Kind { LE, GE, EQ, Fix } K = LE;
  std::vector<int64_t> Coef; // Fix: Coef[0] is the variable
  int64_t Rhs = 0;
};

struct Recipe {
  unsigned NumVars = 0;
  bool IntegerVars = false;
  std::vector<Op> Ops;

  std::string str() const {
    std::ostringstream OS;
    OS << "vars " << NumVars << (IntegerVars ? " integer" : " rational")
       << "\n";
    static const char *Names[] = {"le", "ge", "eq", "fix"};
    for (const Op &O : Ops) {
      OS << Names[O.K];
      for (int64_t C : O.Coef)
        OS << " " << C;
      OS << " | " << O.Rhs << "\n";
    }
    return OS.str();
  }
};

template <typename Sys> void replay(const Recipe &R, Sys &S) {
  for (const Op &O : R.Ops) {
    switch (O.K) {
    case Op::LE:
      S.addLE(O.Coef, O.Rhs);
      break;
    case Op::GE:
      S.addGE(O.Coef, O.Rhs);
      break;
    case Op::EQ:
      S.addEQ(O.Coef, O.Rhs);
      break;
    case Op::Fix:
      S.fixVar(static_cast<unsigned>(O.Coef[0]), O.Rhs);
      break;
    }
  }
}

/// Shapes of generated systems.
enum class Shape { Sparse, Dense, Capped, Extreme };

/// A value near an int64 limit, or a small one.
int64_t extremeValue(fuzz::Rng &R) {
  switch (R.below(6)) {
  case 0:
    return INT64_MAX - R.range(0, 3);
  case 1:
    return INT64_MIN + R.range(0, 3);
  case 2:
    return (int64_t(1) << 62) + R.range(-2, 2);
  case 3:
    return -(int64_t(1) << 62) + R.range(-2, 2);
  case 4:
    return (int64_t(1) << 32) * R.range(-3, 3);
  default:
    return R.range(-5, 5);
  }
}

int64_t coefFor(fuzz::Rng &R, Shape S) {
  switch (S) {
  case Shape::Sparse:
    return R.percent(35) ? R.range(-4, 4) : 0;
  case Shape::Dense:
    return R.range(-6, 6);
  case Shape::Capped:
    return R.percent(60) ? R.range(-3, 3) : 0;
  case Shape::Extreme:
    return R.percent(30) ? extremeValue(R) : R.range(-2, 2);
  }
  return 0;
}

int64_t rhsFor(fuzz::Rng &R, Shape S) {
  if (S == Shape::Extreme && R.percent(30))
    return extremeValue(R);
  return R.range(-12, 12);
}

Recipe makeRecipe(fuzz::Rng &R, Shape S) {
  Recipe Rc;
  Rc.IntegerVars = R.flip();
  unsigned NumRows = 0;
  switch (S) {
  case Shape::Sparse:
    Rc.NumVars = static_cast<unsigned>(R.range(1, 9));
    NumRows = static_cast<unsigned>(R.range(0, 16));
    break;
  case Shape::Dense:
    Rc.NumVars = static_cast<unsigned>(R.range(1, 5));
    NumRows = static_cast<unsigned>(R.range(1, 9));
    break;
  case Shape::Capped:
    Rc.NumVars = static_cast<unsigned>(R.range(2, 4));
    NumRows = static_cast<unsigned>(R.range(60, 110));
    break;
  case Shape::Extreme:
    Rc.NumVars = static_cast<unsigned>(R.range(1, 5));
    NumRows = static_cast<unsigned>(R.range(1, 8));
    break;
  }
  for (unsigned I = 0; I < NumRows; ++I) {
    Op O;
    unsigned Pick = static_cast<unsigned>(R.below(10));
    O.K = Pick < 5 ? Op::LE : Pick < 8 ? Op::GE : Pick < 9 ? Op::EQ : Op::Fix;
    if (O.K == Op::Fix) {
      O.Coef = {static_cast<int64_t>(R.below(Rc.NumVars))};
    } else {
      O.Coef.resize(Rc.NumVars);
      for (int64_t &C : O.Coef)
        C = coefFor(R, S);
      if (S == Shape::Capped)
        O.Coef[0] = R.flip() ? R.range(1, 3) : R.range(-3, -1);
    }
    O.Rhs = rhsFor(R, S);
    Rc.Ops.push_back(std::move(O));
  }
  return Rc;
}

std::string rangeStr(const VarRange &V) {
  std::string S = V.Feasible ? "feasible" : "infeasible";
  S += " [" + (V.Lo ? V.Lo->str() : std::string("-inf")) + ", " +
       (V.Hi ? V.Hi->str() : std::string("+inf")) + "]";
  return S;
}

/// Every answer \p S gives - feasible() and rangeOf(v) for v >= \p From,
/// labelled v - From - each with whether it tripped an OverflowGuard.
template <typename Sys>
std::vector<std::string> queries(const Sys &S, unsigned From = 0) {
  std::vector<std::string> Out;
  {
    OverflowGuard G;
    bool F = S.feasible();
    Out.push_back("feasible " + std::to_string(F) + " trip " +
                  std::to_string(G.triggered()));
  }
  for (unsigned V = From; V < S.numVars(); ++V) {
    OverflowGuard G;
    VarRange R = S.rangeOf(V);
    Out.push_back("range x" + std::to_string(V - From) + " " + rangeStr(R) +
                  " trip " + std::to_string(G.triggered()));
  }
  return Out;
}

/// Every answer a solver gives for one recipe, after whether building it
/// tripped a guard.
template <typename Sys> std::vector<std::string> answers(const Recipe &Rc) {
  OverflowGuard Build;
  Sys S(Rc.NumVars, Rc.IntegerVars);
  replay(Rc, S);
  std::vector<std::string> Out = {"build trip " +
                                  std::to_string(Build.triggered())};
  for (std::string &A : queries(S))
    Out.push_back(std::move(A));
  return Out;
}

/// What a corpus exercised, so each test can check that its cases reach
/// both sides of every verdict they are meant to pin.
struct Coverage {
  unsigned Feasible = 0, Infeasible = 0, Tripped = 0;
};

Coverage expectEquivalent(Shape S, uint64_t Seed, unsigned Cases) {
  Coverage Cov;
  for (unsigned Case = 0; Case < Cases; ++Case) {
    fuzz::Rng R(fuzz::caseSeed(Seed, Case));
    Recipe Rc = makeRecipe(R, S);
    std::vector<std::string> Want = answers<RefFMSystem>(Rc);
    std::vector<std::string> Got = answers<FMSystem>(Rc);
    EXPECT_EQ(Want, Got) << "case " << Case << "\n" << Rc.str();
    if (Want != Got)
      break;
    (Want[1].rfind("feasible 1", 0) == 0 ? Cov.Feasible : Cov.Infeasible) += 1;
    for (const std::string &A : Want)
      if (A.find("trip 1") != std::string::npos) {
        ++Cov.Tripped;
        break;
      }
  }
  return Cov;
}

TEST(FMEquivalence, SparseRows) {
  Coverage C = expectEquivalent(Shape::Sparse, 0xf5a1, 3000);
  EXPECT_GT(C.Feasible, 300u);
  EXPECT_GT(C.Infeasible, 300u);
}

TEST(FMEquivalence, DenseRows) {
  Coverage C = expectEquivalent(Shape::Dense, 0xde75, 2000);
  EXPECT_GT(C.Feasible, 200u);
  EXPECT_GT(C.Infeasible, 200u);
}

TEST(FMEquivalence, RowCap) {
  // 60-110 rows with mixed signs on x0: the first pairing step lands on
  // either side of the 2,000-row cap.
  unsigned Over = 0, Under = 0;
  for (unsigned Case = 0; Case < 60; ++Case) {
    fuzz::Rng R(fuzz::caseSeed(0xca9, Case));
    Recipe Rc = makeRecipe(R, Shape::Capped);
    RefFMSystem S(Rc.NumVars, Rc.IntegerVars);
    replay(Rc, S);
    size_t L = 0, U = 0, Rest = 0;
    for (const RefFMSystem::Row &Row : S.Rows)
      (Row.Coef[0] < 0 ? L : Row.Coef[0] > 0 ? U : Rest) += 1;
    (Rest + L * U > 2000 ? Over : Under) += 1;
  }
  EXPECT_GT(Over, 5u);
  EXPECT_GT(Under, 5u);
  expectEquivalent(Shape::Capped, 0xca9, 60);
}

TEST(FMEquivalence, NearInt64Limits) {
  Coverage C = expectEquivalent(Shape::Extreme, 0xe8, 2000);
  EXPECT_GT(C.Tripped, 100u);
  EXPECT_LT(C.Tripped, 1900u);
}

//===----------------------------------------------------------------------===
// The eliminatedBelow contract
//===----------------------------------------------------------------------===

/// The largest step count (rows without the variable plus lower x upper
/// pairs) over the reference's first \p K elimination steps, up to where
/// the reference stops; \p Tripped reports whether those steps tripped
/// an OverflowGuard.
size_t maxStepCount(const RefFMSystem &S, unsigned K, bool &Tripped) {
  OverflowGuard G;
  size_t Max = 0;
  std::vector<RefFMSystem::Row> Work = S.Rows;
  for (unsigned V = 0; V < K && !S.HardInfeasible; ++V) {
    size_t L = 0, U = 0, Rest = 0;
    for (const RefFMSystem::Row &R : Work)
      (R.Coef[V] < 0 ? L : R.Coef[V] > 0 ? U : Rest) += 1;
    Max = std::max(Max, Rest + L * U);
    if (RefFMSystem::eliminate(Work, V, S.IntegerVars) !=
        RefFMSystem::ElimResult::Ok)
      break;
  }
  Tripped = G.triggered();
  return Max;
}

/// Up to \p Margin rows with zero coefficients on x0 .. x(K-1): the rows
/// a refinement node adds to a shared elimination.
Recipe makeLateRows(fuzz::Rng &R, const Recipe &Base, unsigned K,
                    size_t Margin, Shape S) {
  Recipe Late;
  Late.NumVars = Base.NumVars;
  Late.IntegerVars = Base.IntegerVars;
  size_t Rows = 0;
  while (Rows < Margin && !R.percent(15)) {
    Op O;
    O.K = Rows + 2 <= Margin && R.percent(30) ? Op::EQ
          : R.flip()                          ? Op::LE
                                              : Op::GE;
    O.Coef.assign(Base.NumVars, 0);
    for (unsigned V = K; V < Base.NumVars; ++V)
      O.Coef[V] = coefFor(R, S == Shape::Capped ? Shape::Dense : S);
    O.Rhs = rhsFor(R, S);
    Rows += O.K == Op::EQ ? 2 : 1;
    Late.Ops.push_back(std::move(O));
  }
  return Late;
}

/// The first column of this system that the result of eliminatedBelow(K,
/// ...) keeps: x(K-1), or x0 when K is 0.
unsigned keptFrom(unsigned K) { return K == 0 ? 0 : K - 1; }

/// \p Late over the columns the shared result of eliminatedBelow(K, ...)
/// keeps: the rows as that result takes them.
Recipe narrowed(const Recipe &Late, unsigned K) {
  Recipe Out = Late;
  Out.NumVars -= keptFrom(K);
  for (Op &O : Out.Ops)
    O.Coef.erase(O.Coef.begin(), O.Coef.begin() + keptFrom(K));
  return Out;
}

TEST(FMEquivalence, EliminatedBelowContract) {
  // For random S, K, Margin and late rows R (at most Margin, none over
  // x0 .. x(K-1)): S.eliminatedBelow(K, Margin) is refused exactly when
  // some step's count plus Margin passes the cap or a step tripped a
  // guard, and otherwise S + R and the shared result + R (over x(K-1)
  // and after, renumbered from 0) agree on feasible(), rangeOf(v) for
  // v >= K (the shared result's v - keptFrom(K)), and every guard trip.
  const Shape Shapes[] = {Shape::Sparse, Shape::Dense, Shape::Capped,
                          Shape::Extreme};
  unsigned Shared = 0, RefusedAtCap = 0, RefusedTripped = 0;
  for (unsigned Case = 0; Case < 4000; ++Case) {
    fuzz::Rng R(fuzz::caseSeed(0xeb1, Case));
    Shape S = Shapes[Case % 4];
    Recipe Base = makeRecipe(R, S);
    unsigned K = static_cast<unsigned>(R.below(Base.NumVars + 1));
    if (S == Shape::Capped && K == 0)
      K = 1;
    size_t Margin = R.below(9);
    Recipe Late = makeLateRows(R, Base, K, Margin, S);

    OverflowGuard Outer;
    RefFMSystem Ref(Base.NumVars, Base.IntegerVars);
    replay(Base, Ref);
    FMSystem Sys(Base.NumVars, Base.IntegerVars);
    replay(Base, Sys);
    bool StepsTripped = false;
    size_t Count = maxStepCount(Ref, K, StepsTripped);
    bool AtCap = Count + Margin > 2000;

    std::optional<FMSystem> E = Sys.eliminatedBelow(K, Margin);
    ASSERT_EQ(!E, AtCap || StepsTripped)
        << "case " << Case << " K " << K << " margin " << Margin
        << " count " << Count << "\n" << Base.str();
    if (!E) {
      (AtCap ? RefusedAtCap : RefusedTripped) += 1;
      continue;
    }
    ++Shared;
    RefFMSystem RefFull = Ref;
    replay(Late, RefFull);
    ASSERT_EQ(E->numVars(), Base.NumVars - keptFrom(K)) << "case " << Case;
    replay(narrowed(Late, K), *E);
    std::vector<std::string> Want = queries(RefFull, K);
    ASSERT_EQ(Want, queries(*E, K - keptFrom(K)))
        << "case " << Case << " K " << K << "\n"
        << Base.str() << "late rows:\n"
        << Late.str();
    FMSystem Full = Sys;
    replay(Late, Full);
    ASSERT_EQ(Want, queries(Full, K)) << "case " << Case;
  }
  EXPECT_GT(Shared, 2500u);
  EXPECT_GT(RefusedAtCap, 20u);
  EXPECT_GT(RefusedTripped, 20u);
}

TEST(FMEquivalence, EliminatedBelowMarginAtTheCap) {
  // 37 lower and 54 upper rows on x0: the first step's count is 1,998,
  // and its first pair (x0 >= 10, x0 <= 5) is a contradiction.
  FMSystem S(3);
  RefFMSystem Ref(3);
  for (int64_t I = 0; I < 37; ++I) {
    S.addLE({-1, I, 0}, -10);
    Ref.addLE({-1, I, 0}, -10);
  }
  for (int64_t J = 0; J < 54; ++J) {
    S.addLE({1, J, 0}, 5);
    Ref.addLE({1, J, 0}, 5);
  }
  EXPECT_FALSE(S.feasible());
  // Two late rows keep the count at the cap; a third passes it, and the
  // full system's first step then overflows and answers "feasible"
  // (unknown), which a shared elimination would not. The shared result
  // keeps x0, now zero in every row, in front of x1 and x2.
  auto late = [](auto &Sys, unsigned Rows) {
    Sys.addLE({0, 1, 0}, 100);
    Sys.addLE({0, 0, 1}, 7);
    if (Rows == 3)
      Sys.addGE({0, 1, 0}, -100);
  };
  for (unsigned Rows : {2u, 3u}) {
    std::optional<FMSystem> E = S.eliminatedBelow(1, Rows);
    RefFMSystem RefFull = Ref;
    late(RefFull, Rows);
    EXPECT_EQ(RefFull.feasible(), Rows == 3) << Rows;
    ASSERT_EQ(E.has_value(), Rows == 2) << Rows;
    if (E) {
      ASSERT_EQ(E->numVars(), 3u);
      late(*E, Rows);
      EXPECT_EQ(queries(*E, 1), queries(RefFull, 1));
    }
  }

  // 40 lower and 50 upper rows on x0: a first step of 2,000 rows whose
  // pair of the first lower and the last upper row saturates on x1.
  FMSystem T(2);
  RefFMSystem RefT(2);
  auto both = [&](std::vector<int64_t> Coef, int64_t Rhs) {
    T.addLE(Coef, Rhs);
    RefT.addLE(Coef, Rhs);
  };
  both({-1, INT64_MAX - 1}, 0);
  for (int64_t I = 1; I < 40; ++I)
    both({-1, I}, 0);
  for (int64_t J = 0; J < 49; ++J)
    both({1, -J}, 5);
  both({1, 2}, 5);
  // With no margin the step runs, as the full system's does, and its
  // trip reaches the caller's guard.
  {
    OverflowGuard Outer;
    EXPECT_FALSE(T.eliminatedBelow(1, 0).has_value());
    EXPECT_TRUE(Outer.triggered());
    OverflowGuard RefOuter;
    RefT.feasible();
    EXPECT_TRUE(RefOuter.triggered());
  }
  // With a margin of one the step is refused before it pairs: the full
  // system plus one late row stops at the cap without pairing, so
  // neither trips the caller's guard.
  {
    OverflowGuard Outer;
    EXPECT_FALSE(T.eliminatedBelow(1, 1).has_value());
    EXPECT_FALSE(Outer.triggered());
    RefFMSystem RefFull = RefT;
    RefFull.addLE({0, 1}, 100);
    OverflowGuard RefOuter;
    EXPECT_TRUE(RefFull.feasible());
    EXPECT_FALSE(RefOuter.triggered());
  }
}

} // namespace
