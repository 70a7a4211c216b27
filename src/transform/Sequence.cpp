//===- transform/Sequence.cpp - Transformation sequences ------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "transform/Sequence.h"

#include "support/Casting.h"
#include "support/MathUtils.h"
#include "support/Printing.h"
#include "transform/Templates.h"
#include "transform/TypeState.h"

#include <cassert>

using namespace irlt;

TransformSequence
TransformSequence::composedWith(const TransformSequence &U) const {
  std::vector<TemplateRef> All = Steps;
  All.insert(All.end(), U.Steps.begin(), U.Steps.end());
  return TransformSequence(std::move(All));
}

namespace {

/// The signed permutation matrix of a ReversePermute: loop k reversed
/// when rev[k] and moved to position perm[k] is exactly y[perm[k]] =
/// +-x[k], so an RP adjacent to a Unimodular fuses into one matrix.
UnimodularMatrix signedPermMatrix(const ReversePermuteTemplate &R) {
  unsigned N = R.inputSize();
  UnimodularMatrix M(N);
  for (unsigned K = 0; K < N; ++K)
    M.set(R.perm()[K], K, R.rev()[K] ? -1 : 1);
  return M;
}

/// Fuses \p A followed by \p B when both are instances of the same
/// fusable kind (or an RP/Unimodular mix); returns null when no fusion
/// applies.
TemplateRef fuseAdjacent(const TemplateRef &A, const TemplateRef &B) {
  // Mixed RP/Unimodular adjacency, either order.
  if (A->kind() == TransformTemplate::Kind::ReversePermute &&
      B->kind() == TransformTemplate::Kind::Unimodular) {
    const auto *RA = cast<ReversePermuteTemplate>(A.get());
    const auto *UB = cast<UnimodularTemplate>(B.get());
    if (RA->outputSize() != UB->inputSize())
      return nullptr;
    return makeUnimodular(RA->inputSize(),
                          UB->matrix() * signedPermMatrix(*RA));
  }
  if (A->kind() == TransformTemplate::Kind::Unimodular &&
      B->kind() == TransformTemplate::Kind::ReversePermute) {
    const auto *UA = cast<UnimodularTemplate>(A.get());
    const auto *RB = cast<ReversePermuteTemplate>(B.get());
    if (UA->outputSize() != RB->inputSize())
      return nullptr;
    return makeUnimodular(UA->inputSize(),
                          signedPermMatrix(*RB) * UA->matrix());
  }
  if (A->kind() != B->kind())
    return nullptr;
  switch (A->kind()) {
  case TransformTemplate::Kind::Unimodular: {
    const auto *UA = cast<UnimodularTemplate>(A.get());
    const auto *UB = cast<UnimodularTemplate>(B.get());
    if (UA->outputSize() != UB->inputSize())
      return nullptr;
    // Applying A first, then B: combined matrix is M_B * M_A.
    return makeUnimodular(UA->inputSize(), UB->matrix() * UA->matrix());
  }
  case TransformTemplate::Kind::ReversePermute: {
    const auto *RA = cast<ReversePermuteTemplate>(A.get());
    const auto *RB = cast<ReversePermuteTemplate>(B.get());
    unsigned N = RA->inputSize();
    if (RB->inputSize() != N)
      return nullptr;
    // A moves loop k to p1[k], reversing when r1[k]; B then moves the
    // loop at position q to p2[q], reversing when r2[q]. Combined:
    //   k -> p2[p1[k]],  reversed iff r1[k] xor r2[p1[k]].
    std::vector<unsigned> Perm(N);
    std::vector<bool> Rev(N);
    for (unsigned K = 0; K < N; ++K) {
      unsigned Mid = RA->perm()[K];
      Perm[K] = RB->perm()[Mid];
      Rev[K] = RA->rev()[K] != RB->rev()[Mid];
    }
    return makeReversePermute(N, std::move(Rev), std::move(Perm));
  }
  case TransformTemplate::Kind::Parallelize: {
    const auto *PA = cast<ParallelizeTemplate>(A.get());
    const auto *PB = cast<ParallelizeTemplate>(B.get());
    unsigned N = PA->inputSize();
    if (PB->inputSize() != N)
      return nullptr;
    std::vector<bool> Flags(N);
    for (unsigned K = 0; K < N; ++K)
      Flags[K] = PA->parFlag()[K] || PB->parFlag()[K];
    return makeParallelize(N, std::move(Flags));
  }
  default:
    return nullptr;
  }
}

} // namespace

TransformSequence TransformSequence::reduced() const {
  std::vector<TemplateRef> Out;
  for (const TemplateRef &T : Steps) {
    // Cascade: a fusion can enable another with the new predecessor
    // (e.g. RP;RP;Unimodular collapses right to left), so re-try until
    // the tail is stable - this is what makes reduced() idempotent.
    TemplateRef Cur = T;
    while (!Out.empty()) {
      TemplateRef Fused = fuseAdjacent(Out.back(), Cur);
      if (!Fused)
        break;
      Out.pop_back();
      Cur = std::move(Fused);
    }
    Out.push_back(std::move(Cur));
  }
  return TransformSequence(std::move(Out));
}

const char *irlt::rejectKindName(LegalityResult::RejectKind K) {
  switch (K) {
  case LegalityResult::RejectKind::None:
    return "none";
  case LegalityResult::RejectKind::BoundsPrecondition:
    return "bounds-precondition";
  case LegalityResult::RejectKind::DependencePrecondition:
    return "dependence-precondition";
  case LegalityResult::RejectKind::LexNegative:
    return "lex-negative";
  case LegalityResult::RejectKind::ApplyFailure:
    return "apply-failure";
  case LegalityResult::RejectKind::Overflow:
    return "overflow";
  }
  return "?";
}

std::string TransformSequence::str() const {
  std::vector<std::string> Parts;
  Parts.reserve(Steps.size());
  for (const TemplateRef &T : Steps)
    Parts.push_back(T->str());
  return "<" + join(Parts, ", ") + ">";
}

DepSet irlt::mapDependences(const TransformSequence &T, const DepSet &D) {
  DepSet Cur = D;
  for (const TemplateRef &Step : T.steps())
    Cur = Step->mapDependences(Cur);
  return Cur;
}

ErrorOr<LoopNest> irlt::applySequence(const TransformSequence &T,
                                      const LoopNest &Nest) {
  LoopNest Cur = Nest;
  unsigned Stage = 0;
  for (const TemplateRef &Step : T.steps()) {
    ++Stage;
    // Huge coefficients (fuzzer-sized skew factors, block sizes) can
    // overflow the bounds pipeline; degrade to a structured rejection.
    OverflowGuard Guard;
    ErrorOr<LoopNest> Next = Step->apply(Cur);
    if (Guard.triggered())
      return Failure(Diag::error("arithmetic overflow in the bounds pipeline")
                         .atStage(Stage)
                         .inTemplate(Step->str()));
    if (!Next)
      return Failure(Diag::error(Next.message())
                         .atStage(Stage)
                         .inTemplate(Step->str()));
    Cur = Next.take();
  }
  return Cur;
}

// The uniform legality test as one uncached walk. legality::stepStage()
// runs one stage exactly as this loop does - same operation order, same
// Diag strings, same stage attribution - and the IncrementalEquivalence
// suite holds the prefix engine to this walk, so a change to either side
// must be made to both.
LegalityResult irlt::isLegal(const TransformSequence &T, const LoopNest &Nest,
                             const DepSet &D) {
  LegalityResult R;
  using RK = LegalityResult::RejectKind;

  // Part (b): loop-bounds preconditions, stage by stage. Each stage's
  // preconditions are evaluated against the nest produced by the previous
  // stages, so the bounds pipeline runs alongside; the dependence set is
  // threaded along for the anchor-dependence side condition (see
  // checkAnchorDependence). Coefficient overflow at any stage degrades to
  // a clean Overflow rejection rather than UB.
  LoopNest Cur = Nest;
  DepSet CurDeps = D;
  unsigned Stage = 0;
  for (const TemplateRef &Step : T.steps()) {
    ++Stage;
    OverflowGuard Guard;
    auto overflowed = [&]() {
      if (!Guard.triggered())
        return false;
      R.reject(RK::Overflow,
               Diag::error("coefficient arithmetic overflows the int64 "
                           "range (bounds overflow)")
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return true;
    };
    std::string E = Step->checkPreconditions(Cur);
    if (overflowed())
      return R;
    if (!E.empty()) {
      R.reject(RK::BoundsPrecondition,
               Diag::error("bounds precondition violated: " + E)
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return R;
    }
    E = checkAnchorDependence(*Step, NestTypeState::fromNest(Cur), CurDeps);
    if (overflowed())
      return R;
    if (!E.empty()) {
      R.reject(RK::DependencePrecondition,
               Diag::error("dependence precondition violated: " + E)
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return R;
    }
    ErrorOr<LoopNest> Next = Step->apply(Cur);
    if (overflowed())
      return R;
    if (!Next) {
      R.reject(RK::ApplyFailure, Diag::error(Next.message())
                                     .atStage(Stage)
                                     .inTemplate(Step->str()));
      return R;
    }
    Cur = Next.take();
    CurDeps = Step->mapDependences(CurDeps);
    if (overflowed())
      return R;
  }

  // Part (a): the dependence test on the *final* mapped set only -
  // intermediate sets may be lexicographically negative (Section 3.2).
  R.FinalDeps = std::move(CurDeps);
  for (const DepVector &V : R.FinalDeps.vectors()) {
    if (V.canBeLexNegative()) {
      R.reject(RK::LexNegative,
               Diag::error("transformed dependence vector " + V.str() +
                           " admits a lexicographically negative tuple"));
      return R;
    }
  }
  R.Legal = true;
  return R;
}
