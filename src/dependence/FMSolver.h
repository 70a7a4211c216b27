//===- dependence/FMSolver.h - Rational Fourier-Motzkin elimination ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small exact Fourier-Motzkin solver over rational variables. The
/// dependence analyzer uses it as the "fast and practical integer
/// programming" backend the paper cites (Pugh's Omega test [12]): after
/// the analyzer's ZIV and GCD filters, every reference pair is decided
/// here, the rational relaxation being a conservative feasibility test.
/// It also computes variable ranges, which the analyzer uses to refine
/// direction entries into exact distances.
///
/// The engine (docs/DEPENDENCE.md, "FM engine"): rows live in one flat
/// int64 buffer, each row its coefficients followed by its right-hand
/// side. Queries eliminate x0, x1, ... in order inside a per-thread
/// scratch buffer, of which at most 64 KiB is kept between calls. Each
/// step pairs every lower-bound row with every upper-bound row in row
/// order and leaves the rows sorted and deduplicated; a step whose
/// pairing would exceed 2,000 rows stops the query with a conservative
/// answer. eliminatedBelow() runs a prefix of those steps once for
/// callers that query many extensions of one system.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_DEPENDENCE_FMSOLVER_H
#define IRLT_DEPENDENCE_FMSOLVER_H

#include "support/Rational.h"

#include <optional>
#include <vector>

namespace irlt {

/// Result of projecting a system onto one variable.
struct VarRange {
  bool Feasible = false;
  std::optional<Rational> Lo; ///< empty = unbounded below
  std::optional<Rational> Hi; ///< empty = unbounded above
};

/// A conjunction of linear constraints  sum_i Coef[i]*x_i <= Rhs  (and
/// equalities) over \p NumVars rational variables. Coefficients are kept
/// as integers (every client has integer coefficients); right-hand sides
/// too.
///
/// With \p IntegerVars the variables are declared integral and row
/// normalization tightens: after dividing a row by the gcd g of its
/// coefficients, the right-hand side becomes floor(Rhs/g) - exact over
/// integer points, strictly tighter than the rational relaxation when g
/// does not divide Rhs. In particular an integrally unsatisfiable
/// equality (g does not divide its rhs) normalizes to a contradictory
/// inequality pair, so the classic GCD test is subsumed structurally.
/// The elimination itself remains Fourier-Motzkin, so feasibility is
/// still a (tighter) relaxation of integer feasibility.
class FMSystem {
public:
  explicit FMSystem(unsigned NumVars, bool IntegerVars = false)
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

  /// This system after the first \p K elimination steps (x0 .. x(K-1)),
  /// run once exactly as feasible() and rangeOf() run them. For any rows
  /// R, at most \p Margin of them, none with a nonzero coefficient on
  /// x0 .. x(K-1), the result plus R answers feasible() and rangeOf(v),
  /// v >= K, exactly as this system plus R does, OverflowGuard trips
  /// included: R never pairs in those steps and only adds to their row
  /// counts. \returns nullopt when that cannot be promised: some step's
  /// row count plus \p Margin exceeds the 2,000-row cap (that step is
  /// refused before it pairs, so it trips no guard), or a step's
  /// arithmetic saturated (the trip is passed on to the caller's guard).
  std::optional<FMSystem> eliminatedBelow(unsigned K, size_t Margin) const;

  size_t numConstraints() const { return Data.size() / (NumVars + 1); }

private:
  std::vector<int64_t> Data; // rows of NumVars coefficients, then the rhs
  unsigned NumVars;
  bool IntegerVars;
  bool Sorted = false;         // rows sorted and unique (after any step)
  bool HardInfeasible = false; // a contradiction was added directly
};

} // namespace irlt

#endif // IRLT_DEPENDENCE_FMSOLVER_H
