//===- dependence/FMSolver.cpp - Rational Fourier-Motzkin elimination ----===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "dependence/FMSolver.h"

#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace irlt;

namespace {

/// Bail out before a pairing step can square the row count into
/// pathological territory; queries treat the overflow as "unknown".
constexpr size_t RowCap = 2000;

/// Scratch a thread keeps between queries. A typical analyzer system is
/// a dozen rows of about 20 columns (2 KiB); the cap admits 2,000 rows.
constexpr size_t RetainedScratchBytes = 64 * 1024;

enum class ElimResult { Ok, Contradiction, Overflow };

/// Divides row \p R (\p NumVars coefficients, then the rhs) by the gcd g
/// of its coefficients: the rhs floors under \p IntegerVars, and in the
/// rational mode divides only when g divides it (otherwise the row stays
/// unreduced). \returns false for a constant row (never kept), setting
/// \p Contradiction when it reads 0 <= Rhs with Rhs < 0.
bool normalizeRow(int64_t *R, unsigned NumVars, bool &Contradiction,
                  bool IntegerVars) {
  int64_t &Rhs = R[NumVars];
  int64_t G = 0;
  // gcd(G, 0) == G and gcd(1, C) == 1, neither recording an overflow, so
  // zero coefficients and everything after a unit gcd can be skipped.
  for (unsigned I = 0; I < NumVars && G != 1; ++I)
    if (R[I] != 0)
      G = gcd(G, R[I]);
  if (G == 0) {
    // Constant row: 0 <= Rhs.
    if (Rhs < 0)
      Contradiction = true;
    return false; // never keep constant rows
  }
  if (G > 1) {
    for (unsigned I = 0; I < NumVars; ++I)
      R[I] /= G;
    if (IntegerVars) {
      // Integral variables: sum (Coef/g)*x is an integer, so the bound
      // floors exactly. This keeps every integer solution and cuts the
      // purely-rational slack (an equality whose rhs g does not divide
      // becomes a contradictory <=/>= pair, i.e. the GCD test).
      Rhs = floorDiv(Rhs, G);
    } else if (Rhs % G == 0) {
      // Rational variables: divide the rhs only when it stays exact
      // (flooring would cut rational solutions).
      Rhs /= G;
    } else {
      // Re-scale coefficients back; keep the row unreduced.
      for (unsigned I = 0; I < NumVars; ++I)
        R[I] *= G;
    }
  }
  return true;
}

/// Three-way lexicographic comparison of two rows of \p W entries: the
/// order the row set is kept in after every elimination step.
int compareRows(const int64_t *A, const int64_t *B, unsigned W) {
  for (unsigned I = 0; I < W; ++I)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

/// Per-thread elimination buffers. Queries never nest, so one set per
/// thread serves every FMSystem.
struct Scratch {
  std::vector<int64_t> Rows, Next; // flat rows: this step's and the next's
  std::vector<uint32_t> Lower, Upper, Order; // row indices
  bool InUse = false;

  /// Frees the buffers when they hold more than RetainedScratchBytes.
  void trim() {
    size_t Bytes =
        (Rows.capacity() + Next.capacity()) * sizeof(int64_t) +
        (Lower.capacity() + Upper.capacity() + Order.capacity()) *
            sizeof(uint32_t);
    if (Bytes > RetainedScratchBytes)
      *this = Scratch();
  }
};

Scratch &threadScratch() {
  thread_local Scratch S;
  return S;
}

/// One query's elimination steps over a copy of a system's rows, in the
/// calling thread's scratch.
class Eliminator {
public:
  Eliminator(const std::vector<int64_t> &Data, unsigned NumVars,
             bool IntegerVars, bool Sorted)
      : S(threadScratch()), NumVars(NumVars), W(NumVars + 1),
        IntegerVars(IntegerVars), Sorted(Sorted) {
    assert(!S.InUse && "nested FM queries on one thread");
    S.InUse = true;
    S.Rows.assign(Data.begin(), Data.end());
  }
  ~Eliminator() {
    S.InUse = false;
    S.trim();
  }
  Eliminator(const Eliminator &) = delete;
  Eliminator &operator=(const Eliminator &) = delete;

  /// Eliminates \p Var by the classic pairing: rows without it are kept,
  /// each lower-bound row (negative coefficient) is combined with each
  /// upper-bound row, in row order, and the result is sorted and
  /// deduplicated. Overflow reports that the step's row count before
  /// deduplication (rows without the variable plus lower x upper pairs)
  /// plus \p Margin would exceed the row cap, which is checked before any
  /// pairing, or that the combination saturated (recorded on the active
  /// OverflowGuard); callers must fall back conservatively.
  ElimResult eliminate(unsigned Var, size_t Margin = 0);

  size_t numRows() const { return S.Rows.size() / W; }
  const int64_t *row(size_t I) const { return S.Rows.data() + I * W; }
  const std::vector<int64_t> &rows() const { return S.Rows; }
  bool sorted() const { return Sorted; }

private:
  /// Sorts and deduplicates the rows of S.Next into S.Rows. The first
  /// \p NumRest rows are the previous set's rows without the eliminated
  /// variable: already sorted and unique when that set was, so only the
  /// combined rows need sorting before the merge.
  void canonicalize(size_t NumRest);

  Scratch &S;
  unsigned NumVars;
  unsigned W; // NumVars coefficients and the rhs
  bool IntegerVars;
  bool Sorted;
};

ElimResult Eliminator::eliminate(unsigned Var, size_t Margin) {
  size_t NumRows = numRows();
  S.Lower.clear();
  S.Upper.clear();
  for (size_t I = 0; I < NumRows; ++I) {
    int64_t C = S.Rows[I * W + Var];
    if (C < 0)
      S.Lower.push_back(static_cast<uint32_t>(I));
    else if (C > 0)
      S.Upper.push_back(static_cast<uint32_t>(I));
  }
  size_t NumRest = NumRows - S.Lower.size() - S.Upper.size();
  size_t Count = NumRest + S.Lower.size() * S.Upper.size();
  if (Count + Margin > RowCap)
    return ElimResult::Overflow;
  if (S.Lower.empty() && S.Upper.empty() && Sorted)
    return ElimResult::Ok; // a canonical set without the variable

  S.Next.clear();
  S.Next.reserve(Count * W);
  for (size_t I = 0; I < NumRows; ++I)
    if (S.Rows[I * W + Var] == 0)
      S.Next.insert(S.Next.end(), row(I), row(I) + W);
  for (uint32_t LI : S.Lower) {
    const int64_t *L = row(LI);
    for (uint32_t UI : S.Upper) {
      const int64_t *U = row(UI);
      // L: cL*v + a.x <= rL (cL < 0);  U: cU*v + b.x <= rU (cU > 0).
      // cU*L + (-cL)*U eliminates v.
      int64_t FL = U[Var];            // > 0
      int64_t FU = negChecked(L[Var]); // > 0
      size_t Off = S.Next.size();
      S.Next.resize(Off + W);
      int64_t *N = S.Next.data() + Off;
      for (unsigned I = 0; I < W; ++I)
        N[I] = addChecked(mulChecked(FL, L[I]), mulChecked(FU, U[I]));
      if (N[Var] != 0) {
        // Identically zero in exact arithmetic; a residue means the
        // checked ops saturated under an OverflowGuard. Record and treat
        // the elimination as overflowed so the caller rejects cleanly.
        bool Guarded = OverflowGuard::record();
        assert(Guarded && "variable survived elimination");
        (void)Guarded;
        return ElimResult::Overflow;
      }
      bool Contradiction = false;
      if (!normalizeRow(N, NumVars, Contradiction, IntegerVars))
        S.Next.resize(Off);
      if (Contradiction)
        return ElimResult::Contradiction;
    }
  }
  canonicalize(NumRest);
  return ElimResult::Ok;
}

void Eliminator::canonicalize(size_t NumRest) {
  size_t Total = S.Next.size() / W;
  size_t Merged = Sorted ? NumRest : 0; // rows already in order
  auto At = [&](size_t I) { return S.Next.data() + I * W; };
  S.Order.clear();
  for (size_t I = Merged; I < Total; ++I)
    S.Order.push_back(static_cast<uint32_t>(I));
  std::sort(S.Order.begin(), S.Order.end(), [&](uint32_t A, uint32_t B) {
    return compareRows(At(A), At(B), W) < 0;
  });
  S.Order.erase(std::unique(S.Order.begin(), S.Order.end(),
                            [&](uint32_t A, uint32_t B) {
                              return compareRows(At(A), At(B), W) == 0;
                            }),
                S.Order.end());
  S.Rows.clear();
  size_t R = 0, O = 0;
  while (R < Merged || O < S.Order.size()) {
    int Cmp = R == Merged           ? 1
              : O == S.Order.size() ? -1
                                    : compareRows(At(R), At(S.Order[O]), W);
    const int64_t *Pick = Cmp <= 0 ? At(R) : At(S.Order[O]);
    S.Rows.insert(S.Rows.end(), Pick, Pick + W);
    R += Cmp <= 0;
    O += Cmp >= 0;
  }
  Sorted = true;
}

} // namespace

void FMSystem::addLE(std::vector<int64_t> Coef, int64_t Rhs) {
  assert(Coef.size() == NumVars && "coefficient arity mismatch");
  size_t Off = Data.size();
  Data.insert(Data.end(), Coef.begin(), Coef.end());
  Data.push_back(Rhs);
  bool Contradiction = false;
  if (normalizeRow(Data.data() + Off, NumVars, Contradiction, IntegerVars))
    Sorted = false;
  else
    Data.resize(Off);
  if (Contradiction)
    HardInfeasible = true;
}

void FMSystem::addGE(std::vector<int64_t> Coef, int64_t Rhs) {
  for (int64_t &C : Coef)
    C = negChecked(C);
  addLE(std::move(Coef), negChecked(Rhs));
}

void FMSystem::addEQ(const std::vector<int64_t> &Coef, int64_t Rhs) {
  addLE(Coef, Rhs);
  addGE(Coef, Rhs);
}

void FMSystem::fixVar(unsigned Var, int64_t Value) {
  std::vector<int64_t> Coef(NumVars, 0);
  Coef[Var] = 1;
  addEQ(Coef, Value);
}

bool FMSystem::feasible() const {
  if (HardInfeasible)
    return false;
  Eliminator E(Data, NumVars, IntegerVars, Sorted);
  for (unsigned V = 0; V < NumVars; ++V) {
    switch (E.eliminate(V)) {
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

VarRange FMSystem::rangeOf(unsigned Var) const {
  VarRange Out;
  if (HardInfeasible)
    return Out;
  Eliminator E(Data, NumVars, IntegerVars, Sorted);
  for (unsigned V = 0; V < NumVars; ++V) {
    if (V == Var)
      continue;
    switch (E.eliminate(V)) {
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
  for (size_t I = 0; I < E.numRows(); ++I) {
    const int64_t *R = E.row(I);
    int64_t C = R[Var];
    assert(C != 0 && "constant rows are never stored");
    Rational Bound(R[NumVars], C);
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

std::optional<FMSystem> FMSystem::eliminatedBelow(unsigned K,
                                                  size_t Margin) const {
  assert(K <= NumVars && "eliminating past the last variable");
  FMSystem Out(NumVars, IntegerVars);
  Out.HardInfeasible = HardInfeasible;
  if (HardInfeasible)
    return Out;
  // Under a caller's guard, watch the steps with an inner one: a step
  // that saturated makes the shared result unusable, and its trip is
  // passed on to the caller's guard. A step within Margin rows of the cap
  // is refused before it pairs, so it neither runs nor trips.
  std::optional<OverflowGuard> Watch;
  if (OverflowGuard::active())
    Watch.emplace();
  bool Usable = true;
  {
    Eliminator E(Data, NumVars, IntegerVars, Sorted);
    for (unsigned V = 0; V < K && Usable && !Out.HardInfeasible; ++V) {
      ElimResult R = E.eliminate(V, Margin);
      if (R == ElimResult::Overflow)
        Usable = false;
      else if (R == ElimResult::Contradiction)
        Out.HardInfeasible = true;
    }
    if (Usable && !Out.HardInfeasible) {
      Out.Data = E.rows();
      Out.Sorted = E.sorted();
    }
  }
  if (Watch && Watch->triggered()) {
    Watch.reset();
    OverflowGuard::record();
    return std::nullopt;
  }
  if (!Usable)
    return std::nullopt;
  return Out;
}
