//===- transform/TypeState.cpp - Type propagation for fast legality ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "transform/TypeState.h"

#include "support/Casting.h"
#include "support/MathUtils.h"
#include "support/Printing.h"
#include "transform/Templates.h"

#include <cassert>

using namespace irlt;

//===----------------------------------------------------------------------===
// ExprTypes
//===----------------------------------------------------------------------===

ExprTypes ExprTypes::joinedWith(const ExprTypes &O) const {
  ExprTypes R = *this;
  if (!O.IsConst)
    R.IsConst = false;
  for (const auto &[Pos, T] : O.PerLoop)
    R.raise(Pos, T);
  return R;
}

ExprTypes
ExprTypes::remapped(const std::vector<std::optional<unsigned>> &Remap) const {
  ExprTypes R;
  R.IsConst = IsConst;
  for (const auto &[Pos, T] : PerLoop) {
    assert(Pos < Remap.size() && "position outside remap table");
    if (Remap[Pos])
      R.raise(*Remap[Pos], T);
  }
  return R;
}

//===----------------------------------------------------------------------===
// fromNest
//===----------------------------------------------------------------------===

NestTypeState NestTypeState::fromNest(const LoopNest &Nest) {
  NestTypeState S;
  unsigned N = Nest.numLoops();
  S.Loops.resize(N);
  for (unsigned K = 0; K < N; ++K) {
    const Loop &L = Nest.Loops[K];
    LoopTypeInfo &Info = S.Loops[K];
    Info.Kind = L.Kind;
    Info.StepConst = L.Step->constValue();
    int SSign =
        Info.StepConst ? (*Info.StepConst > 0 ? 1 : -1) : 0;

    Expr::Kind StartSplit = Expr::Kind::Call;
    Expr::Kind EndSplit = Expr::Kind::Call;
    if (SSign > 0) {
      StartSplit = Expr::Kind::Max;
      EndSplit = Expr::Kind::Min;
    } else if (SSign < 0) {
      StartSplit = Expr::Kind::Min;
      EndSplit = Expr::Kind::Max;
    }
    Info.StartComposite = L.Lower->kind() == StartSplit;
    Info.EndComposite = L.Upper->kind() == EndSplit;

    if (isCompileTimeConst(L.Lower))
      Info.LB = ExprTypes::constant();
    if (isCompileTimeConst(L.Upper))
      Info.UB = ExprTypes::constant();
    if (Info.StepConst)
      Info.Step = ExprTypes::constant();
    for (unsigned I = 0; I < K; ++I) {
      const std::string &Xi = Nest.Loops[I].IndexVar;
      Info.LB.raise(I, typeOfBound(L.Lower, Xi, BoundSide::Lower, SSign));
      Info.UB.raise(I, typeOfBound(L.Upper, Xi, BoundSide::Upper, SSign));
      Info.Step.raise(I, typeOf(L.Step, Xi));
    }
  }
  return S;
}

//===----------------------------------------------------------------------===
// Per-template type rules
//===----------------------------------------------------------------------===

namespace {

using MaybeState = std::optional<ErrorOr<NestTypeState>>;

ErrorOr<NestTypeState> fail(std::string Msg) {
  return ErrorOr<NestTypeState>(Failure(std::move(Msg)));
}

ErrorOr<NestTypeState> mapReversePermute(const ReversePermuteTemplate &T,
                                         const NestTypeState &S) {
  unsigned N = S.numLoops();
  if (N != T.inputSize())
    return fail(formatStr("ReversePermute: state has %u loops, template "
                          "expects %u",
                          N, T.inputSize()));
  // Preconditions: reordered pairs must be invariant.
  for (unsigned K = 0; K < N; ++K)
    for (unsigned I = 0; I < K; ++I) {
      if (T.perm()[I] < T.perm()[K])
        continue;
      for (const ExprTypes *E :
           {&S.Loops[K].LB, &S.Loops[K].UB, &S.Loops[K].Step})
        if (!typeLE(E->wrt(I), BoundType::Invar))
          return fail(formatStr(
              "ReversePermute: loops %u and %u are reordered but a bound of "
              "loop %u is %s in the loop-%u variable",
              I + 1, K + 1, K + 1, typeName(E->wrt(I)), I + 1));
    }

  std::vector<std::optional<unsigned>> Remap(N);
  for (unsigned K = 0; K < N; ++K)
    Remap[K] = T.perm()[K];

  NestTypeState Out;
  Out.Loops.resize(N);
  for (unsigned K = 0; K < N; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    LoopTypeInfo &O = Out.Loops[T.perm()[K]];
    O.Kind = In.Kind;
    if (!T.rev()[K]) {
      O.LB = In.LB.remapped(Remap);
      O.UB = In.UB.remapped(Remap);
      O.Step = In.Step.remapped(Remap);
      O.StepConst = In.StepConst;
      O.StartComposite = In.StartComposite;
      O.EndComposite = In.EndComposite;
      continue;
    }
    // Reversal: unit steps swap the bounds exactly; otherwise the new
    // start is l + floor((u-l)/s)*s, whose linear dependences degrade to
    // nonlinear under the flooring division.
    bool UnitStep = In.StepConst && (*In.StepConst == 1 || *In.StepConst == -1);
    if (UnitStep) {
      O.LB = In.UB.remapped(Remap);
      // The old end bound becomes the new start: a min/max list there
      // survives the swap as a composite start.
      O.StartComposite = In.EndComposite;
    } else {
      ExprTypes J = In.LB.joinedWith(In.UB).joinedWith(In.Step);
      ExprTypes Degraded = ExprTypes::invariant();
      if (J.isConst())
        Degraded = ExprTypes::constant();
      for (unsigned I = 0; I < N; ++I) {
        BoundType W = J.wrt(I);
        if (typeLE(W, BoundType::Invar))
          continue;
        Degraded.raise(I, BoundType::Nonlinear);
      }
      O.LB = Degraded.remapped(Remap);
      O.StartComposite = false; // l + floor((u-l)/s)*s is a single term
    }
    O.UB = In.LB.remapped(Remap);
    O.Step = In.Step.remapped(Remap);
    O.StepConst = In.StepConst
                      ? std::optional<int64_t>(negChecked(*In.StepConst))
                      : std::nullopt;
    O.EndComposite = In.StartComposite; // old start becomes the new end
  }
  return Out;
}

ErrorOr<NestTypeState> mapUnimodular(const UnimodularTemplate &T,
                                     const NestTypeState &S) {
  unsigned N = S.numLoops();
  if (N != T.inputSize())
    return fail(formatStr("Unimodular: state has %u loops, template "
                          "expects %u",
                          N, T.inputSize()));
  bool AllConst = true;
  for (unsigned K = 0; K < N; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    if (In.Kind != LoopKind::Do)
      return fail(formatStr("Unimodular: loop %u is parallel", K + 1));
    if (!In.StepConst || *In.StepConst == 0)
      return fail(formatStr(
          "Unimodular: step of loop %u is not a non-zero constant", K + 1));
    if (*In.StepConst != 1 && In.StartComposite)
      return fail(formatStr(
          "Unimodular: loop %u has a non-unit step with a composite start "
          "bound",
          K + 1));
    for (unsigned I = 0; I < K; ++I) {
      if (!typeLE(In.LB.wrt(I), BoundType::Linear))
        return fail(formatStr("Unimodular: type(l_%u, x_%u) = %s exceeds "
                              "linear",
                              K + 1, I + 1, typeName(In.LB.wrt(I))));
      if (!typeLE(In.UB.wrt(I), BoundType::Linear))
        return fail(formatStr("Unimodular: type(u_%u, x_%u) = %s exceeds "
                              "linear",
                              K + 1, I + 1, typeName(In.UB.wrt(I))));
    }
    AllConst &= In.LB.isConst() && In.UB.isConst();
  }

  // Which output variables can each generated bound reference? Mirror the
  // Fourier-Motzkin pipeline on *variable masks*: every input inequality
  // touches its own loop variable plus the variables its bound is linear
  // in; the basis change x = Minv y rewrites masks; eliminating y_k fuses
  // mask pairs that share it. The per-mask Sym flag tracks non-constant
  // invariant parts.
  struct Mask {
    std::vector<bool> Vars;
    bool HasSym;
    /// Some coefficient of this (abstract) inequality may have magnitude
    /// > 1. When such a row bounds a variable, the generated bound
    /// divides by the coefficient - a flooring division that degrades
    /// every variable reference to nonlinear.
    bool NonUnit;
    bool operator==(const Mask &O) const {
      return Vars == O.Vars && HasSym == O.HasSym && NonUnit == O.NonUnit;
    }
  };
  UnimodularMatrix Minv = T.matrix().inverse();
  std::vector<Mask> Masks;
  constexpr size_t MaskCap = 512; // blow-up guard; fall back when exceeded
  bool Overflow = false;
  // Resolution closure: apply() normalizes every loop whose step is not
  // the constant 1 to a 0-based counter xh_i with x_i = l_i + s_i*xh_i,
  // and *resolves* references to x_i in later bounds through that
  // substitution. A reference to x_i therefore pulls in l_i's own
  // (recursively resolved) references and symbols. Precompute, per loop,
  // the variable set and symbol flag a reference to it expands to.
  std::vector<std::vector<bool>> RRefs(N, std::vector<bool>(N, false));
  std::vector<bool> RSym(N, false);
  for (unsigned I = 0; I < N; ++I) {
    RRefs[I][I] = true;
    bool NormI = !S.Loops[I].StepConst || *S.Loops[I].StepConst != 1;
    if (!NormI)
      continue;
    RSym[I] = !S.Loops[I].LB.isConst();
    for (unsigned H = 0; H < I; ++H)
      if (S.Loops[I].LB.wrt(H) == BoundType::Linear) {
        for (unsigned G = 0; G <= H; ++G)
          RRefs[I][G] = RRefs[I][G] || RRefs[H][G];
        RSym[I] = RSym[I] || RSym[H];
      }
  }

  for (unsigned K = 0; K < N && !Overflow; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    // Non-unit-step loops are normalized by apply() to a 0-based counter
    // xh_k with x_k = l_k + s_k*xh_k, so the rows entering FM are
    //   xh_k >= 0                      (constant lower row)
    //   s_k * xh_k <= u_k - l_k        (end row: u's AND l's references,
    //                                   coefficient s_k)
    // StepConst == -1 is normalized too, but with a unit coefficient.
    bool Normalized = !In.StepConst || *In.StepConst != 1;
    bool StepDivides =
        In.StepConst && *In.StepConst != 1 && *In.StepConst != -1;
    for (const ExprTypes *E : {&In.LB, &In.UB}) {
      bool IsLBRow = E == &In.LB;
      Mask M;
      M.Vars.assign(N, false);
      M.HasSym = false;
      // x-space involvement: own variable + resolved linear references.
      std::vector<bool> XVars(N, false);
      XVars[K] = true;
      bool AnyLinearRef = false;
      auto foldRefs = [&](const ExprTypes &Src) {
        for (unsigned I = 0; I < K; ++I)
          if (Src.wrt(I) == BoundType::Linear) {
            for (unsigned G = 0; G <= I; ++G)
              if (RRefs[I][G])
                XVars[G] = true;
            M.HasSym = M.HasSym || RSym[I];
            AnyLinearRef = true;
          }
      };
      if (Normalized && IsLBRow) {
        // Lower row of a normalized loop: xh_k >= 0, nothing else.
      } else if (Normalized) {
        // End row of a normalized loop: references from both original
        // bounds, and the step coefficient divides on elimination.
        M.HasSym = !In.UB.isConst() || !In.LB.isConst();
        foldRefs(In.UB);
        foldRefs(In.LB);
        if (StepDivides)
          AnyLinearRef = true; // forces NonUnit below
      } else {
        M.HasSym = !E->isConst();
        foldRefs(*E);
      }
      // y-space: x_r = sum Minv[r][c] y_c. Coefficient magnitudes are
      // exact only when the row involves just its own variable (then the
      // y-coefficients are the Minv entries); a linear reference has an
      // unknown coefficient, so the row may be non-unit.
      M.NonUnit = AnyLinearRef;
      for (unsigned R = 0; R < N; ++R)
        if (XVars[R])
          for (unsigned C = 0; C < N; ++C)
            if (Minv.at(R, C) != 0) {
              M.Vars[C] = true;
              if (Minv.at(R, C) != 1 && Minv.at(R, C) != -1)
                M.NonUnit = true;
            }
      Masks.push_back(std::move(M));
    }
  }

  NestTypeState Out;
  Out.Loops.resize(N);
  for (unsigned K = N; K-- > 0;) {
    // Bounds of y_k come from the masks still mentioning it.
    std::vector<bool> Refs(N, false);
    bool RefSym = false;
    bool Any = false;
    bool AnyNonUnit = false;
    unsigned TouchCount = 0;
    for (const Mask &M : Masks) {
      if (!M.Vars[K])
        continue;
      Any = true;
      ++TouchCount;
      RefSym |= M.HasSym;
      AnyNonUnit |= M.NonUnit;
      for (unsigned I = 0; I < K; ++I)
        if (M.Vars[I])
          Refs[I] = true;
    }
    LoopTypeInfo &O = Out.Loops[K];
    O.Kind = LoopKind::Do;
    O.StepConst = 1;
    O.Step = ExprTypes::constant();
    (void)AllConst;
    ExprTypes B =
        (!RefSym && Any) ? ExprTypes::constant() : ExprTypes::invariant();
    bool AnyRef = false;
    // A non-unit row bounds y_k through a flooring division, which
    // degrades every variable reference in the generated bound beyond
    // linear (the fast path found accepting such bounds as linear while
    // the materialized nest classifies them nonlinear).
    BoundType RefType = AnyNonUnit ? BoundType::Nonlinear : BoundType::Linear;
    for (unsigned I = 0; I < K; ++I)
      if (Refs[I]) {
        B.raise(I, RefType);
        AnyRef = true;
      }
    if (Overflow || !Any) {
      // Blow-up guard (or a one-sided system the real FM would reject):
      // fall back to the coarse blanket rule.
      B = ExprTypes::invariant();
      for (unsigned I = 0; I < K; ++I)
        B.raise(I, BoundType::Nonlinear);
      AnyRef = K > 0;
    }
    O.LB = B;
    O.UB = B;
    // With exactly two constraints touching y_k (one lower, one upper in
    // any bounded system), the generated bounds are single terms; more
    // constraints may form max/min lists on either side.
    O.StartComposite = Overflow || !Any || TouchCount > 2;
    O.EndComposite = O.StartComposite;
    (void)AnyRef;
    // Eliminate y_k: fuse mask pairs sharing it.
    std::vector<Mask> Next;
    std::vector<Mask> WithK;
    for (Mask &M : Masks) {
      if (M.Vars[K])
        WithK.push_back(std::move(M));
      else
        Next.push_back(std::move(M));
    }
    for (size_t A = 0; A < WithK.size() && !Overflow; ++A)
      for (size_t Bb = A + 1; Bb < WithK.size(); ++Bb) {
        Mask F;
        F.Vars.assign(N, false);
        bool NonEmpty = false;
        bool Shared = false;
        for (unsigned I = 0; I < N; ++I) {
          F.Vars[I] = (WithK[A].Vars[I] || WithK[Bb].Vars[I]) && I != K;
          NonEmpty |= F.Vars[I];
          Shared |= I != K && WithK[A].Vars[I] && WithK[Bb].Vars[I];
        }
        F.HasSym = WithK[A].HasSym || WithK[Bb].HasSym;
        // Fusing two unit rows that share a surviving variable can sum
        // its coefficients to +-2; fusing anything non-unit stays
        // non-unit (the multipliers are the eliminated coefficients).
        F.NonUnit = WithK[A].NonUnit || WithK[Bb].NonUnit || Shared;
        if (!NonEmpty)
          continue;
        bool Dup = false;
        for (const Mask &Seen : Next)
          if (Seen == F) {
            Dup = true;
            break;
          }
        if (!Dup)
          Next.push_back(std::move(F));
        if (Next.size() > MaskCap) {
          Overflow = true;
          break;
        }
      }
    Masks = std::move(Next);
  }
  return Out;
}

ErrorOr<NestTypeState> mapParallelize(const ParallelizeTemplate &T,
                                      const NestTypeState &S) {
  if (S.numLoops() != T.inputSize())
    return fail(formatStr("Parallelize: state has %u loops, template "
                          "expects %u",
                          S.numLoops(), T.inputSize()));
  NestTypeState Out = S;
  for (unsigned K = 0; K < Out.numLoops(); ++K)
    if (T.parFlag()[K])
      Out.Loops[K].Kind = LoopKind::ParDo;
  return Out;
}

/// The [lo..hi] -> block/element position remaps shared by Block and
/// Interleave: outer vars keep their position; range vars move to the
/// element positions; trailing vars shift by the span.
std::vector<std::optional<unsigned>> elementRemap(unsigned N, unsigned Lo,
                                                  unsigned Hi) {
  unsigned Span = Hi - Lo + 1;
  std::vector<std::optional<unsigned>> Remap(N);
  for (unsigned P = 0; P < N; ++P) {
    if (P < Lo)
      Remap[P] = P;
    else if (P <= Hi)
      Remap[P] = Hi + 1 + (P - Lo);
    else
      Remap[P] = P + Span;
  }
  return Remap;
}

ErrorOr<NestTypeState> mapBlock(const BlockTemplate &T,
                                const NestTypeState &S) {
  unsigned N = S.numLoops();
  if (N != T.inputSize())
    return fail(formatStr("Block: state has %u loops, template expects %u", N,
                          T.inputSize()));
  unsigned Lo = T.rangeBegin() - 1, Hi = T.rangeEnd() - 1;
  for (unsigned K = Lo; K <= Hi; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    if (!In.StepConst || *In.StepConst == 0)
      return fail(formatStr(
          "Block: step of loop %u is not a non-zero constant", K + 1));
    if (*In.StepConst != 1 && *In.StepConst != -1)
      for (unsigned H = Lo; H < K; ++H)
        if (!typeLE(In.LB.wrt(H), BoundType::Invar))
          return fail(formatStr(
              "Block: loop %u has a non-unit stride and a start bound "
              "varying in blocked variable at position %u",
              K + 1, H + 1));
    for (unsigned H = Lo; H < K; ++H) {
      if (!typeLE(In.LB.wrt(H), BoundType::Linear) ||
          !typeLE(In.UB.wrt(H), BoundType::Linear))
        return fail(formatStr("Block: bounds of loop %u exceed linear in "
                              "blocked variable at position %u",
                              K + 1, H + 1));
      if (!typeLE(In.Step.wrt(H), BoundType::Const))
        return fail(formatStr("Block: step of loop %u exceeds const in "
                              "blocked variable at position %u",
                              K + 1, H + 1));
    }
  }

  unsigned Span = Hi - Lo + 1;
  bool BsizeConst = true;
  for (const ExprRef &B : T.bsize())
    BsizeConst &= isCompileTimeConst(B);

  std::vector<std::optional<unsigned>> RemapElem = elementRemap(N, Lo, Hi);
  // Block rows see the substituted range variables at the *block*
  // positions, which coincide with the original positions.
  std::vector<std::optional<unsigned>> RemapBlockRow(N);
  for (unsigned P = 0; P < N; ++P)
    RemapBlockRow[P] = P <= Hi ? std::optional<unsigned>(P)
                               : std::optional<unsigned>(P + Span);

  NestTypeState Out;
  Out.Loops.resize(N + Span);
  for (unsigned K = 0; K < Lo; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    LoopTypeInfo &O = Out.Loops[K];
    O = In;
    O.LB = In.LB.remapped(RemapElem);
    O.UB = In.UB.remapped(RemapElem);
    O.Step = In.Step.remapped(RemapElem);
  }
  for (unsigned K = Lo; K <= Hi; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    // Block loop at position K.
    LoopTypeInfo &B = Out.Loops[K];
    B.Kind = In.Kind;
    B.LB = In.LB.remapped(RemapBlockRow);
    B.UB = In.UB.remapped(RemapBlockRow);
    if (!BsizeConst) {
      B.LB.clearConst();
      B.UB.clearConst();
    }
    B.StartComposite = In.StartComposite;
    B.EndComposite = In.EndComposite;
    std::optional<int64_t> BV = T.bsize()[K - Lo]->constValue();
    if (In.StepConst && BV) {
      B.StepConst = mulChecked(*In.StepConst, *BV);
      B.Step = ExprTypes::constant();
    } else {
      B.StepConst = std::nullopt;
      B.Step = ExprTypes::invariant();
    }
    // Element loop at position Hi + 1 + (K - Lo): clamped to its block.
    LoopTypeInfo &E = Out.Loops[Hi + 1 + (K - Lo)];
    E.Kind = In.Kind;
    E.LB = In.LB.remapped(RemapElem);
    E.LB.raise(K, BoundType::Linear); // max(x''_k, l_k)
    E.LB.clearConst();
    E.UB = In.UB.remapped(RemapElem);
    E.UB.raise(K, BoundType::Linear);
    E.UB.clearConst();
    E.Step = In.Step.remapped(RemapElem);
    E.StepConst = In.StepConst;
    E.StartComposite = true; // the clamp is a max/min list
    E.EndComposite = true;
  }
  for (unsigned K = Hi + 1; K < N; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    LoopTypeInfo &O = Out.Loops[K + Span];
    O = In;
    O.LB = In.LB.remapped(RemapElem);
    O.UB = In.UB.remapped(RemapElem);
    O.Step = In.Step.remapped(RemapElem);
  }
  return Out;
}

ErrorOr<NestTypeState> mapCoalesce(const CoalesceTemplate &T,
                                   const NestTypeState &S) {
  unsigned N = S.numLoops();
  if (N != T.inputSize())
    return fail(formatStr("Coalesce: state has %u loops, template expects %u",
                          N, T.inputSize()));
  unsigned Lo = T.rangeBegin() - 1, Hi = T.rangeEnd() - 1;
  for (unsigned K = Lo; K <= Hi; ++K)
    for (unsigned Mm = K + 1; Mm <= Hi; ++Mm)
      for (const ExprTypes *E :
           {&S.Loops[Mm].LB, &S.Loops[Mm].UB, &S.Loops[Mm].Step})
        if (!typeLE(E->wrt(K), BoundType::Invar))
          return fail(formatStr("Coalesce: a bound of loop %u is %s in the "
                                "coalesced variable at position %u",
                                Mm + 1, typeName(E->wrt(K)), K + 1));

  unsigned Span = Hi - Lo + 1;
  std::vector<std::optional<unsigned>> Remap(N);
  for (unsigned P = 0; P < N; ++P) {
    if (P < Lo)
      Remap[P] = P;
    else if (P <= Hi)
      Remap[P] = std::nullopt; // substituted by recovery expressions
    else
      Remap[P] = P - (Span - 1);
  }

  NestTypeState Out;
  Out.Loops.resize(N - (Span - 1));
  for (unsigned K = 0; K < Lo; ++K) {
    Out.Loops[K] = S.Loops[K];
    Out.Loops[K].LB = S.Loops[K].LB.remapped(Remap);
    Out.Loops[K].UB = S.Loops[K].UB.remapped(Remap);
    Out.Loops[K].Step = S.Loops[K].Step.remapped(Remap);
  }

  // The coalesced loop. Its upper bound is the product of the band's trip
  // counts N_k = (u_k - l_k)/s_k + 1:
  //  - a unit step keeps the count as linear as its bounds; other steps
  //    floor-divide (nonlinear in anything the bounds vary with);
  //  - the product is linear in v only while at most one factor varies
  //    with v and every other factor is a compile-time constant.
  LoopTypeInfo &C = Out.Loops[Lo];
  C.Kind = LoopKind::ParDo;
  bool AllConst = true;
  std::vector<ExprTypes> CountTypes;
  std::vector<bool> CountConst;
  for (unsigned K = Lo; K <= Hi; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    if (In.Kind != LoopKind::ParDo)
      C.Kind = LoopKind::Do;
    bool UnitStep =
        In.StepConst && (*In.StepConst == 1 || *In.StepConst == -1);
    ExprTypes CT = In.LB.joinedWith(In.UB).joinedWith(In.Step);
    if (!UnitStep) {
      // Flooring division degrades every varying position to nonlinear.
      ExprTypes D2 = CT.isConst() ? ExprTypes::constant()
                                  : ExprTypes::invariant();
      for (unsigned V = 0; V < N; ++V)
        if (!typeLE(CT.wrt(V), BoundType::Invar))
          D2.raise(V, BoundType::Nonlinear);
      CT = D2;
    }
    bool IsC = CT.isConst();
    AllConst &= IsC;
    CountConst.push_back(IsC);
    CountTypes.push_back(std::move(CT));
  }
  ExprTypes UB = AllConst ? ExprTypes::constant() : ExprTypes::invariant();
  for (unsigned V = 0; V < Lo; ++V) {
    // Factors varying with v, and whether all *other* factors are const.
    unsigned Varying = 0;
    BoundType VType = BoundType::Const;
    bool OthersConst = true;
    for (size_t F = 0; F < CountTypes.size(); ++F) {
      BoundType W = CountTypes[F].wrt(V);
      if (!typeLE(W, BoundType::Invar)) {
        ++Varying;
        VType = typeJoin(VType, W);
      } else if (!CountConst[F]) {
        OthersConst = false;
      }
    }
    if (Varying == 0)
      continue;
    if (Varying == 1 && OthersConst)
      UB.raise(V, VType);
    else
      UB.raise(V, BoundType::Nonlinear);
  }
  C.LB = ExprTypes::constant();
  C.UB = UB.remapped(Remap);
  C.Step = ExprTypes::constant();
  C.StepConst = 1;
  C.StartComposite = false;
  C.EndComposite = false; // the trip-count product is a single term

  // Trailing loops: references to coalesced variables become div/mod of
  // the new variable - except for a single-loop band with a constant
  // step, whose recovery x = l + (c - 1)*s is affine (codegen simplifies
  // it), so linear references stay linear (and inherit l's own
  // dependences).
  bool AffineRecovery = Span == 1 && S.Loops[Lo].StepConst.has_value();
  const ExprTypes &BandLB = S.Loops[Lo].LB;
  for (unsigned K = Hi + 1; K < N; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    LoopTypeInfo &O = Out.Loops[K - (Span - 1)];
    O = In;
    auto degrade = [&](const ExprTypes &E) {
      ExprTypes R = E.remapped(Remap);
      for (unsigned P = Lo; P <= Hi; ++P) {
        BoundType RT = E.wrt(P);
        if (typeLE(RT, BoundType::Invar))
          continue;
        R.clearConst();
        if (AffineRecovery && RT == BoundType::Linear) {
          R.raise(Lo, BoundType::Linear);
          for (unsigned V = 0; V < Lo; ++V) {
            BoundType LV = BandLB.wrt(V);
            if (!typeLE(LV, BoundType::Invar))
              R.raise(V, LV);
          }
        } else {
          R.raise(Lo, BoundType::Nonlinear);
        }
      }
      return R;
    };
    O.LB = degrade(In.LB);
    O.UB = degrade(In.UB);
    O.Step = degrade(In.Step);
  }
  return Out;
}

ErrorOr<NestTypeState> mapInterleave(const InterleaveTemplate &T,
                                     const NestTypeState &S) {
  unsigned N = S.numLoops();
  if (N != T.inputSize())
    return fail(formatStr("Interleave: state has %u loops, template "
                          "expects %u",
                          N, T.inputSize()));
  unsigned Lo = T.rangeBegin() - 1, Hi = T.rangeEnd() - 1;
  for (unsigned K = Lo; K <= Hi; ++K)
    for (unsigned Mm = K + 1; Mm <= Hi; ++Mm) {
      const LoopTypeInfo &In = S.Loops[Mm];
      if (!typeLE(In.LB.wrt(K), BoundType::Linear) ||
          !typeLE(In.UB.wrt(K), BoundType::Linear))
        return fail(formatStr("Interleave: bounds of loop %u exceed linear "
                              "in variable at position %u",
                              Mm + 1, K + 1));
      if (!typeLE(In.Step.wrt(K), BoundType::Const))
        return fail(formatStr("Interleave: step of loop %u exceeds const in "
                              "variable at position %u",
                              Mm + 1, K + 1));
    }

  unsigned Span = Hi - Lo + 1;
  bool IsizeConst = true;
  for (const ExprRef &I : T.isize())
    IsizeConst &= isCompileTimeConst(I);

  std::vector<std::optional<unsigned>> RemapElem = elementRemap(N, Lo, Hi);

  NestTypeState Out;
  Out.Loops.resize(N + Span);
  for (unsigned K = 0; K < Lo; ++K) {
    Out.Loops[K] = S.Loops[K];
    Out.Loops[K].LB = S.Loops[K].LB.remapped(RemapElem);
    Out.Loops[K].UB = S.Loops[K].UB.remapped(RemapElem);
    Out.Loops[K].Step = S.Loops[K].Step.remapped(RemapElem);
  }
  for (unsigned K = Lo; K <= Hi; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    // Phase loop at position K: 0 .. isize-1 step 1.
    LoopTypeInfo &P = Out.Loops[K];
    P.Kind = In.Kind;
    P.LB = ExprTypes::constant();
    P.UB = IsizeConst ? ExprTypes::constant() : ExprTypes::invariant();
    P.Step = ExprTypes::constant();
    P.StepConst = 1;
    // Element loop: l_k + x'_k * s_k .. u_k step isize*s_k.
    LoopTypeInfo &E = Out.Loops[Hi + 1 + (K - Lo)];
    E.Kind = In.Kind;
    E.LB = In.LB.remapped(RemapElem).joinedWith(In.Step.remapped(RemapElem));
    E.LB.raise(K, BoundType::Linear); // the phase variable
    E.LB.clearConst();
    E.UB = In.UB.remapped(RemapElem);
    E.Step = In.Step.remapped(RemapElem);
    std::optional<int64_t> IV = T.isize()[K - Lo]->constValue();
    if (In.StepConst && IV) {
      E.StepConst = mulChecked(*In.StepConst, *IV);
    } else {
      E.StepConst = std::nullopt;
      E.Step.clearConst();
    }
    E.StartComposite = false;
    E.EndComposite = In.EndComposite; // the end bound is carried over
  }
  for (unsigned K = Hi + 1; K < N; ++K) {
    const LoopTypeInfo &In = S.Loops[K];
    LoopTypeInfo &O = Out.Loops[K + Span];
    O = In;
    O.LB = In.LB.remapped(RemapElem);
    O.UB = In.UB.remapped(RemapElem);
    O.Step = In.Step.remapped(RemapElem);
  }
  return Out;
}

} // namespace

std::string irlt::checkAnchorDependence(const TransformTemplate &T,
                                        const NestTypeState &State,
                                        const DepSet &D) {
  // Which loops' anchor expressions matter, and which expressions.
  unsigned Lo = 0, Hi = 0;
  bool CheckUB = false, CheckStep = false;
  switch (T.kind()) {
  case TransformTemplate::Kind::Block: {
    const auto &B = cast<BlockTemplate>(T);
    Lo = B.rangeBegin() - 1;
    Hi = B.rangeEnd() - 1;
    CheckStep = true;
    break;
  }
  case TransformTemplate::Kind::Interleave: {
    const auto &I = cast<InterleaveTemplate>(T);
    Lo = I.rangeBegin() - 1;
    Hi = I.rangeEnd() - 1;
    CheckStep = true;
    break;
  }
  case TransformTemplate::Kind::Coalesce: {
    const auto &C = cast<CoalesceTemplate>(T);
    Lo = C.rangeBegin() - 1;
    Hi = C.rangeEnd() - 1;
    CheckUB = true; // the radix (trip counts) uses l, u, and s
    CheckStep = true;
    break;
  }
  case TransformTemplate::Kind::Custom: {
    if (const auto *SM = dyn_cast<StripMineTemplate>(&T)) {
      Lo = Hi = SM->position() - 1;
      break;
    }
    return std::string(); // unknown extension: nothing to check here
  }
  default:
    return std::string(); // value-space maps have no anchors
  }

  if (State.numLoops() != T.inputSize() || D.empty())
    return std::string();

  // Position h can carry a dependence unless every vector is exactly 0
  // there.
  auto mayCarry = [&D](unsigned H) {
    for (const DepVector &V : D.vectors()) {
      const DepElem &E = V[H];
      if (!(E.isDistance() && E.dist() == 0))
        return true;
    }
    return false;
  };

  for (unsigned K = Lo; K <= Hi && K < State.numLoops(); ++K) {
    const LoopTypeInfo &In = State.Loops[K];
    for (unsigned H = 0; H < K; ++H) {
      bool Varies = !typeLE(In.LB.wrt(H), BoundType::Invar);
      if (CheckUB)
        Varies |= !typeLE(In.UB.wrt(H), BoundType::Invar);
      if (CheckStep)
        Varies |= !typeLE(In.Step.wrt(H), BoundType::Invar);
      if (!Varies || !mayCarry(H))
        continue;
      return formatStr(
          "%s: the anchor bound of loop %u varies with the loop at "
          "position %u, which carries a dependence - the Table 2 mapping "
          "rule would under-cover the transformed dependences",
          T.name().c_str(), K + 1, H + 1);
    }
  }
  return std::string();
}

MaybeState irlt::mapTypes(const TransformTemplate &T,
                          const NestTypeState &State) {
  switch (T.kind()) {
  case TransformTemplate::Kind::ReversePermute:
    return mapReversePermute(cast<ReversePermuteTemplate>(T), State);
  case TransformTemplate::Kind::Unimodular:
    return mapUnimodular(cast<UnimodularTemplate>(T), State);
  case TransformTemplate::Kind::Parallelize:
    return mapParallelize(cast<ParallelizeTemplate>(T), State);
  case TransformTemplate::Kind::Block:
    return mapBlock(cast<BlockTemplate>(T), State);
  case TransformTemplate::Kind::Coalesce:
    return mapCoalesce(cast<CoalesceTemplate>(T), State);
  case TransformTemplate::Kind::Interleave:
    return mapInterleave(cast<InterleaveTemplate>(T), State);
  case TransformTemplate::Kind::Custom:
    return std::nullopt; // extension templates: no type rule
  }
  return std::nullopt;
}

// isLegalFast() is defined in src/legality/IncrementalEngine.cpp as a
// shim over the prefix-memoized engine; the legacy walk (anchor-first
// order, lazy Applied/AppliedThrough materialization) lives there
// verbatim as IncrementalEngine::reference(Mode::Fast).
