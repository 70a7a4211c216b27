//===- transform/TypeState.h - Type propagation for fast legality --------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4.3's efficiency device: "when testing for legality, we do not
/// actually generate the new loop bounds expressions and initialization
/// statements for each t_i in the sequence T; instead, we use a
/// matrix-based representation to carry sufficient information to
/// evaluate the type predicates in the preconditions."
///
/// NestTypeState is that sufficient information: per loop, the
/// const/invar/linear/nonlinear classification of its lower, upper, and
/// step expressions with respect to every index-variable position, plus
/// the step's constancy/sign and the loop kind. Each kernel template has
/// a *type mapping rule* that produces the output state from the input
/// state (conservatively: the predicted type is an upper bound of the
/// generated expression's true type, which the test suite checks against
/// full code generation).
///
/// isLegalFast() runs the uniform legality test on type states alone,
/// falling back to full bounds mapping only for extension templates
/// without a type rule.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_TRANSFORM_TYPESTATE_H
#define IRLT_TRANSFORM_TYPESTATE_H

#include "bounds/TypeLattice.h"
#include "transform/Sequence.h"

#include <map>
#include <optional>
#include <vector>

namespace irlt {

/// Type summary of one bound/step expression relative to the nest's
/// index-variable *positions* (0-based, outermost = 0).
class ExprTypes {
public:
  /// A compile-time constant expression.
  static ExprTypes constant() {
    ExprTypes T;
    T.IsConst = true;
    return T;
  }
  /// Invariant in every index variable, but not a constant.
  static ExprTypes invariant() { return ExprTypes(); }

  bool isConst() const { return IsConst; }

  /// Classification with respect to the variable at \p Pos.
  BoundType wrt(unsigned Pos) const {
    auto It = PerLoop.find(Pos);
    if (It != PerLoop.end())
      return It->second;
    return IsConst ? BoundType::Const : BoundType::Invar;
  }

  /// Raises the classification at \p Pos to at least \p T.
  void raise(unsigned Pos, BoundType T) {
    if (T == BoundType::Const || T == BoundType::Invar)
      return; // defaults cover these
    BoundType &Slot = PerLoop[Pos];
    Slot = typeJoin(Slot, T);
    IsConst = false;
  }

  void clearConst() { IsConst = false; }

  /// Pointwise join (used when an output bound combines several input
  /// expressions).
  ExprTypes joinedWith(const ExprTypes &O) const;

  /// Repositions every per-variable entry through \p Remap (entries whose
  /// position maps to nullopt are dropped - their variable disappeared,
  /// i.e. was substituted by something accounted for separately).
  ExprTypes
  remapped(const std::vector<std::optional<unsigned>> &Remap) const;

private:
  bool IsConst = false;
  std::map<unsigned, BoundType> PerLoop;
};

/// Per-loop summary.
struct LoopTypeInfo {
  ExprTypes LB, UB, Step;
  LoopKind Kind = LoopKind::Do;
  /// Step constant value when compile-time constant.
  std::optional<int64_t> StepConst;
  /// True when the start bound is a splittable max/min list (affects the
  /// Unimodular normalization precondition).
  bool StartComposite = false;
  /// Same for the end bound; a reversal turns the end into the start, so
  /// compositeness must be tracked on both sides.
  bool EndComposite = false;
};

/// The whole nest's type state.
struct NestTypeState {
  std::vector<LoopTypeInfo> Loops;

  unsigned numLoops() const { return static_cast<unsigned>(Loops.size()); }

  /// Builds the state of a concrete nest (the entry point of the fast
  /// path; transformed states come from mapTypes).
  static NestTypeState fromNest(const LoopNest &Nest);
};

/// Propagates \p State through template \p T, checking T's loop-bounds
/// preconditions against the state. \returns the output state, a failure
/// with the precondition diagnostic, or nullopt when \p T has no type
/// rule (extension templates) - callers fall back to full bounds mapping.
std::optional<ErrorOr<NestTypeState>> mapTypes(const TransformTemplate &T,
                                               const NestTypeState &State);

/// The anchor-dependence side condition that keeps the Table 2 mapping
/// rules consistent (Definition 3.4). Block/Interleave/StripMine anchor
/// their block grids / phase classes at the start bounds of the affected
/// loops, and Coalesce's linearization radix is its band's trip counts;
/// when such an anchor expression varies with another loop variable x_h
/// *and* some current dependence can be non-zero at position h, the
/// published mapping rules can under-cover the transformed dependences
/// (found by the randomized soundness suite; see DESIGN.md §5). This
/// check - part of both legality drivers, evaluated against the current
/// stage's dependence set - rejects exactly those combinations.
/// \returns empty when fine, else a diagnostic.
std::string checkAnchorDependence(const TransformTemplate &T,
                                  const NestTypeState &State, const DepSet &D);

/// The uniform legality test on type states: per-stage precondition
/// checks via mapTypes (falling back to apply() for templates without a
/// type rule) plus the anchor-dependence condition, then the
/// lexicographic test on the final mapped dependence set. Equivalent in
/// verdict to isLegal() on the supported corpus; the test suite asserts
/// agreement. One uncached walk, like isLegal(); the prefix-memoized
/// engine (legality/IncrementalEngine.h) runs it stage by stage in
/// Mode::Fast.
LegalityResult isLegalFast(const TransformSequence &T, const LoopNest &Nest,
                           const DepSet &D);

} // namespace irlt

#endif // IRLT_TRANSFORM_TYPESTATE_H
