//===- dependence/DepAnalysis.cpp - Array dependence analysis -------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"

#include "dependence/FMSolver.h"
#include "ir/LinExpr.h"
#include "support/MathUtils.h"

#include <cassert>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

using namespace irlt;

//===----------------------------------------------------------------------===
// Classic filters
//===----------------------------------------------------------------------===

bool deptest::zivEqual(int64_t CA, int64_t CB) { return CA == CB; }

bool deptest::gcdFeasible(const std::vector<int64_t> &Coefs, int64_t C0) {
  int64_t G = 0;
  for (int64_t C : Coefs)
    G = gcd(G, C);
  if (G == 0)
    return C0 == 0;
  return C0 % G == 0;
}

//===----------------------------------------------------------------------===
// The FM-driven analyzer
//===----------------------------------------------------------------------===

namespace {

/// Subscripts equal dimension by dimension as trees.
bool sameSubscripts(const irlt::ArrayRef &A, const irlt::ArrayRef &B) {
  if (A.Subscripts.size() != B.Subscripts.size())
    return false;
  for (size_t D = 0; D < A.Subscripts.size(); ++D)
    if (!A.Subscripts[D]->equals(*B.Subscripts[D]))
      return false;
  return true;
}

/// One array reference occurrence in the body.
struct RefOcc {
  const irlt::ArrayRef *Ref;
  bool IsWrite;
  unsigned Index; ///< occurrence position (writes first, then reads)
};

/// Per-level direction states during hierarchical refinement.
enum class DirState { Eq, Gt, Lt };

/// Shared analysis context for one loop nest.
class Analyzer {
public:
  Analyzer(const LoopNest &Nest, const DepAnalysisOptions &Opts,
           std::vector<DepPairInfo> *Prov = nullptr)
      : Nest(Nest), Opts(Opts), Prov(Prov), N(Nest.numLoops()) {}

  DepSet run();

private:
  // Variable layout in FM systems, with M symbols and S strided loops:
  //   [0, N)             source iteration I (index values)
  //   [N, 2N)            target iteration J (index values)
  //   [2N, 2N+M)         invariant symbolic atoms (n, block sizes, ...)
  //   [2N+M, 3N+M)       difference variables d_k
  //   [3N+M, 3N+M+S)     source trip counters cI_k of the strided loops
  //   [3N+M+S, 3N+M+2S)  target trip counters cJ_k of the strided loops
  //
  // d_k is measured in the units transformations act on (the normalized
  // "hat" space of Section 4): for a unit-step loop d_k = J_k - I_k, and
  // for a constant-step loop with an analyzable affine start bound
  // d_k = cJ_k - cI_k where x_k = l_k + s_k * c_k, c_k >= 0. Loops whose
  // step or start bound cannot be analyzed leave d_k unconstrained.
  unsigned varI(unsigned K) const { return K; }
  unsigned varJ(unsigned K) const { return N + K; }
  unsigned varD(unsigned K) const { return 2 * N + NumSyms + K; }
  unsigned varCI(unsigned K) const {
    return 3 * N + NumSyms + Strides[K].Slot;
  }
  unsigned varCJ(unsigned K) const {
    return 3 * N + NumSyms + NumStrided + Strides[K].Slot;
  }
  unsigned totalVars() const { return 3 * N + NumSyms + 2 * NumStrided; }

  /// Registers invariant atoms of \p L into the symbol table; returns
  /// false if \p L has an atom containing an index variable (nonlinear).
  bool registerAtoms(const LinExpr &L);

  /// Writes \p L's terms into a coefficient row. \p VarOf maps an index
  /// variable's loop position to an FM variable (source or target side).
  /// \returns false on nonlinear terms.
  bool emitLin(const LinExpr &L, bool TargetSide, std::vector<int64_t> &Coef,
               int64_t &Const) const;

  /// Adds the loop-bound constraints for one side (source or target).
  void addBoundConstraints(FMSystem &Sys, bool TargetSide) const;

  /// Analyzes one ordered reference pair: inserts its vectors into \p Out
  /// and returns its provenance.
  DepPairInfo analyzePair(const RefOcc &A, const RefOcc &B, DepSet &Out);

  /// The pair analysis proper: fills \p Out with this pair's vectors and
  /// reports which test decided.
  DepDecision analyzePairImpl(const RefOcc &A, const RefOcc &B, DepSet &Out);

  /// Emits the fully-conservative vector family (0,..,0,+,*,..,*).
  void emitConservative(DepSet &Out) const;

  /// Hierarchical refinement over direction states; d_k is column
  /// \p D0 + k of \p Sys, which tryState() has found feasible.
  void refine(const FMSystem &Sys, unsigned D0, std::vector<DirState> &Prefix,
              bool SeenGt, DepSet &Out);

  const LoopNest &Nest;
  const DepAnalysisOptions &Opts;
  std::vector<DepPairInfo> *Prov;
  unsigned N;

  std::map<std::string, unsigned> SymIndex; // atom key -> sym slot
  std::vector<ExprRef> SymAtoms;
  unsigned NumSyms = 0;

  // Cached per-loop affine bounds (lower-max terms / upper-min terms);
  // empty when unanalyzable.
  struct LoopBounds {
    std::vector<LinExpr> Lowers;
    std::vector<LinExpr> Uppers;
  };
  std::vector<LoopBounds> Bounds;

  // Per-loop execution-order model. Unit loops use the index value
  // directly; strided loops (any constant step != 1, including -1) are
  // modelled through a trip counter so that d_k agrees with both the
  // execution order and the normalized space transformations act on.
  struct StrideInfo {
    enum class Kind { Unit, Strided, Opaque };
    Kind K = Kind::Opaque;
    int64_t Step = 1;          // valid unless Opaque
    LinExpr Start;             // single affine start bound (Strided only)
    std::vector<LinExpr> Ends; // end pieces: s>0: x <= E; s<0: x >= E
    unsigned Slot = 0;         // trip-counter slot (Strided only)
  };
  std::vector<StrideInfo> Strides;
  unsigned NumStrided = 0;
};

bool Analyzer::registerAtoms(const LinExpr &L) {
  for (const auto &[Key, T] : L.terms()) {
    if (isa<VarExpr>(T.Atom.get())) {
      const auto *V = cast<VarExpr>(T.Atom.get());
      if (Nest.bindsVar(V->name()))
        continue; // index variable: handled positionally
      // Invariant scalar (e.g. the symbolic n): register as atom.
    } else {
      // Opaque atom: only usable if it is invariant in the nest.
      std::set<std::string> Vars;
      T.Atom->collectVars(Vars);
      for (const std::string &V : Vars)
        if (Nest.bindsVar(V))
          return false;
    }
    if (!SymIndex.count(Key)) {
      SymIndex.emplace(Key, NumSyms++);
      SymAtoms.push_back(T.Atom);
    }
  }
  return true;
}

bool Analyzer::emitLin(const LinExpr &L, bool TargetSide,
                       std::vector<int64_t> &Coef, int64_t &Const) const {
  Const = addChecked(Const, L.constant());
  for (const auto &[Key, T] : L.terms()) {
    if (const auto *V = dyn_cast<VarExpr>(T.Atom.get())) {
      int Pos = Nest.loopIndexOf(V->name());
      if (Pos >= 0) {
        unsigned Var = TargetSide ? varJ(static_cast<unsigned>(Pos))
                                  : varI(static_cast<unsigned>(Pos));
        Coef[Var] = addChecked(Coef[Var], T.Coef);
        continue;
      }
    }
    auto It = SymIndex.find(Key);
    if (It == SymIndex.end())
      return false; // unregistered (nonlinear) atom
    Coef[2 * N + It->second] = addChecked(Coef[2 * N + It->second], T.Coef);
  }
  return true;
}

void Analyzer::addBoundConstraints(FMSystem &Sys, bool TargetSide) const {
  for (unsigned K = 0; K < N; ++K) {
    unsigned V = TargetSide ? varJ(K) : varI(K);
    for (const LinExpr &LB : Bounds[K].Lowers) {
      // x_k >= LB  <=>  x_k - LB >= 0.
      std::vector<int64_t> Coef(totalVars(), 0);
      int64_t C = 0;
      if (!emitLin(LB, TargetSide, Coef, C))
        continue;
      for (int64_t &Cf : Coef)
        Cf = -Cf;
      Coef[V] = addChecked(Coef[V], 1);
      Sys.addGE(std::move(Coef), C);
    }
    for (const LinExpr &UB : Bounds[K].Uppers) {
      std::vector<int64_t> Coef(totalVars(), 0);
      int64_t C = 0;
      if (!emitLin(UB, TargetSide, Coef, C))
        continue;
      for (int64_t &Cf : Coef)
        Cf = -Cf;
      Coef[V] = addChecked(Coef[V], 1);
      Sys.addLE(std::move(Coef), C);
    }

    // Strided loops: tie the index value to its trip counter,
    //   x_k == start + s * c_k,  c_k >= 0,
    // and bound the value by the end pieces. Without these the index of
    // a strided loop (and its counter) would float free.
    const StrideInfo &SI = Strides[K];
    if (SI.K != StrideInfo::Kind::Strided)
      continue;
    unsigned CV = TargetSide ? varCJ(K) : varCI(K);
    {
      std::vector<int64_t> Coef(totalVars(), 0);
      int64_t C = 0;
      if (emitLin(SI.Start, TargetSide, Coef, C)) {
        for (int64_t &Cf : Coef)
          Cf = -Cf;
        Coef[V] = addChecked(Coef[V], 1);
        Coef[CV] = addChecked(Coef[CV], -SI.Step);
        Sys.addEQ(std::move(Coef), C); // x - s*c - start == 0
        std::vector<int64_t> CPos(totalVars(), 0);
        CPos[CV] = 1;
        Sys.addGE(std::move(CPos), 0); // c >= 0
      }
    }
    for (const LinExpr &E : SI.Ends) {
      std::vector<int64_t> Coef(totalVars(), 0);
      int64_t C = 0;
      if (!emitLin(E, TargetSide, Coef, C))
        continue;
      for (int64_t &Cf : Coef)
        Cf = -Cf;
      Coef[V] = addChecked(Coef[V], 1);
      if (SI.Step > 0)
        Sys.addLE(std::move(Coef), C); // x <= end piece
      else
        Sys.addGE(std::move(Coef), C); // x >= end piece
    }
  }
}

void Analyzer::emitConservative(DepSet &Out) const {
  for (unsigned K = 0; K < N; ++K) {
    std::vector<DepElem> Elems;
    Elems.reserve(N);
    for (unsigned J = 0; J < K; ++J)
      Elems.push_back(DepElem::zero());
    Elems.push_back(DepElem::pos());
    for (unsigned J = K + 1; J < N; ++J)
      Elems.push_back(DepElem::any());
    Out.insert(DepVector(std::move(Elems)));
  }
}

void Analyzer::refine(const FMSystem &Sys, unsigned D0,
                      std::vector<DirState> &Prefix, bool SeenGt,
                      DepSet &Out) {
  unsigned Level = static_cast<unsigned>(Prefix.size());
  if (Level == N) {
    if (!SeenGt)
      return; // all-equal: no cross-iteration dependence
    std::vector<DepElem> Elems;
    Elems.reserve(N);
    for (unsigned K = 0; K < N; ++K) {
      switch (Prefix[K]) {
      case DirState::Eq:
        Elems.push_back(DepElem::zero());
        break;
      case DirState::Gt:
      case DirState::Lt: {
        DepElem E =
            Prefix[K] == DirState::Gt ? DepElem::pos() : DepElem::neg();
        if (Opts.RefineDistances) {
          VarRange R = Sys.rangeOf(D0 + K);
          if (R.Feasible && R.Lo && R.Hi && *R.Lo == *R.Hi &&
              R.Lo->isInteger())
            E = DepElem::distance(R.Lo->num());
        }
        Elems.push_back(E);
        break;
      }
      }
    }
    Out.insert(DepVector(std::move(Elems)));
    return;
  }

  auto tryState = [&](DirState S) {
    FMSystem Child = Sys;
    std::vector<int64_t> Coef(Sys.numVars(), 0);
    Coef[D0 + Level] = 1;
    switch (S) {
    case DirState::Eq:
      Child.addEQ(Coef, 0);
      break;
    case DirState::Gt:
      Child.addGE(std::move(Coef), 1);
      break;
    case DirState::Lt:
      Child.addLE(std::move(Coef), -1);
      break;
    }
    if (!Child.feasible())
      return; // prune the whole subtree
    Prefix.push_back(S);
    refine(Child, D0, Prefix, SeenGt || S == DirState::Gt, Out);
    Prefix.pop_back();
  };

  tryState(DirState::Eq);
  tryState(DirState::Gt);
  if (SeenGt)
    tryState(DirState::Lt); // lex-non-negative prefixes only
}

DepPairInfo Analyzer::analyzePair(const RefOcc &A, const RefOcc &B,
                                  DepSet &Out) {
  // Analyze into a local set so the pair's own contribution is visible
  // for provenance; DepSet insertion is canonical (sorted, deduplicated),
  // so merging per-pair sets yields the same set as direct insertion.
  DepSet Local;
  DepPairInfo I;
  I.Array = A.Ref->Array;
  I.SrcOcc = A.Index;
  I.DstOcc = B.Index;
  I.SrcIsWrite = A.IsWrite;
  I.DstIsWrite = B.IsWrite;
  I.Decided = analyzePairImpl(A, B, Local);
  I.NumVectors = static_cast<unsigned>(Local.size());
  I.Independent = Local.empty();
  I.Exact = !Local.empty();
  for (const DepVector &V : Local.vectors())
    I.Exact = I.Exact && V.allDistances();
  Out.insertAll(Local.vectors());
  return I;
}

DepDecision Analyzer::analyzePairImpl(const RefOcc &A, const RefOcc &B,
                                      DepSet &Out) {
  assert(A.Ref->Array == B.Ref->Array);
  if (A.Ref->Subscripts.size() != B.Ref->Subscripts.size()) {
    emitConservative(Out); // ill-typed access: be safe
    return DepDecision::IllTyped;
  }

  // Linearize all subscripts; bail to the conservative family when a
  // dimension is nonlinear in the index variables.
  struct Dim {
    LinExpr FA, FB;
    bool Analyzable;
  };
  std::vector<Dim> Dims;
  bool AnyAnalyzable = false;
  for (size_t D = 0; D < A.Ref->Subscripts.size(); ++D) {
    Dim Dm;
    Dm.FA = LinExpr::fromExpr(A.Ref->Subscripts[D]);
    Dm.FB = LinExpr::fromExpr(B.Ref->Subscripts[D]);
    Dm.Analyzable = registerAtoms(Dm.FA) && registerAtoms(Dm.FB);
    AnyAnalyzable |= Dm.Analyzable;
    Dims.push_back(std::move(Dm));
  }
  if (!AnyAnalyzable) {
    emitConservative(Out);
    return DepDecision::NonLinear;
  }

  FMSystem Sys(totalVars());

  // Subscript equations f_A(I) == f_B(J), with classic prefilters.
  for (const Dim &Dm : Dims) {
    if (!Dm.Analyzable)
      continue;
    std::vector<int64_t> Coef(totalVars(), 0);
    int64_t CA = 0, CB = 0;
    std::vector<int64_t> CoefB(totalVars(), 0);
    if (!emitLin(Dm.FA, /*TargetSide=*/false, Coef, CA) ||
        !emitLin(Dm.FB, /*TargetSide=*/true, CoefB, CB))
      continue;
    // Equation: f_A - f_B == 0  =>  Coef - CoefB row, rhs CB - CA.
    for (size_t I = 0; I < Coef.size(); ++I)
      Coef[I] = addChecked(Coef[I], -CoefB[I]);
    int64_t Rhs = addChecked(CB, -CA);

    if (Opts.UseFastTests) {
      bool AllZero = true;
      for (int64_t C : Coef)
        if (C != 0) {
          AllZero = false;
          break;
        }
      if (AllZero) {
        // ZIV: constant subscripts on both sides.
        if (!deptest::zivEqual(0, Rhs))
          return DepDecision::ZIV; // provably independent in this dimension
        continue;  // trivially satisfied; no constraint
      }
      // GCD filter over all integer variables in the equation.
      if (!deptest::gcdFeasible(Coef, Rhs))
        return DepDecision::GCD;
    }
    Sys.addEQ(Coef, Rhs);
  }

  // Loop-bound constraints for both sides, difference-variable defs.
  // Unit loops: d_k = J_k - I_k (index values). Strided loops: d_k =
  // cJ_k - cI_k (trip counters), which is both the execution-order
  // distance and the distance in the normalized space transformations
  // act on. Opaque loops leave d_k unconstrained (conservative).
  addBoundConstraints(Sys, /*TargetSide=*/false);
  addBoundConstraints(Sys, /*TargetSide=*/true);
  for (unsigned K = 0; K < N; ++K) {
    std::vector<int64_t> Coef(totalVars(), 0);
    Coef[varD(K)] = 1;
    switch (Strides[K].K) {
    case StrideInfo::Kind::Unit:
      Coef[varJ(K)] = -1;
      Coef[varI(K)] = 1;
      Sys.addEQ(Coef, 0); // d_k - J_k + I_k == 0
      break;
    case StrideInfo::Kind::Strided:
      Coef[varCJ(K)] = -1;
      Coef[varCI(K)] = 1;
      Sys.addEQ(Coef, 0); // d_k - cJ_k + cI_k == 0
      break;
    case StrideInfo::Kind::Opaque:
      break; // d_k free
    }
  }

  // Every refinement node adds at most 2N rows, all over the d columns,
  // and the source, target and symbol eliminations never pair those
  // rows; so each node can start from one shared elimination of those
  // columns and take exactly the steps it would take from Sys, over the
  // last eliminated column (zero in every row) and the d and trip-counter
  // columns alone (d_k at column 1 + k).
  std::optional<FMSystem> Shared = Sys.eliminatedBelow(varD(0), 2 * N);
  std::vector<DirState> Prefix;
  if (Shared)
    refine(*Shared, 1, Prefix, /*SeenGt=*/false, Out);
  else
    refine(Sys, varD(0), Prefix, /*SeenGt=*/false, Out);
  return DepDecision::FM;
}

DepSet Analyzer::run() {
  // Pre-compute analyzable loop bounds and stride models.
  Bounds.resize(N);
  Strides.resize(N);
  for (unsigned K = 0; K < N; ++K) {
    const Loop &L = Nest.Loops[K];
    auto gatherTerms = [&](const ExprRef &E, Expr::Kind Splittable,
                           std::vector<LinExpr> &Out) {
      // max-of lower bounds and min-of upper bounds (mirrored for
      // negative steps) decompose into conjunctions of simple affine
      // constraints.
      std::vector<ExprRef> Pieces;
      if (E->kind() == Splittable) {
        const auto *M = cast<MinMaxExpr>(E.get());
        Pieces.assign(M->operands().begin(), M->operands().end());
      } else {
        Pieces.push_back(E);
      }
      for (const ExprRef &P : Pieces) {
        LinExpr LE = LinExpr::fromExpr(P);
        if (registerAtoms(LE))
          Out.push_back(std::move(LE));
      }
    };
    std::optional<int64_t> StepC = L.Step->constValue();
    if (StepC && *StepC == 1) {
      // Unit step: index value == trip count up to the start offset;
      // d_k stays in index-value units.
      Strides[K].K = StrideInfo::Kind::Unit;
      Strides[K].Step = 1;
      gatherTerms(L.Lower, Expr::Kind::Max, Bounds[K].Lowers);
      gatherTerms(L.Upper, Expr::Kind::Min, Bounds[K].Uppers);
    } else if (StepC && *StepC != 0 && L.Lower->kind() != Expr::Kind::Max &&
               L.Lower->kind() != Expr::Kind::Min) {
      // Constant non-unit step with a single (non-composite) start
      // bound: model through a trip counter if the start is affine.
      LinExpr Start = LinExpr::fromExpr(L.Lower);
      if (registerAtoms(Start)) {
        StrideInfo &SI = Strides[K];
        SI.K = StrideInfo::Kind::Strided;
        SI.Step = *StepC;
        SI.Slot = NumStrided++;
        SI.Start = std::move(Start);
        gatherTerms(L.Upper, *StepC > 0 ? Expr::Kind::Min : Expr::Kind::Max,
                    SI.Ends);
      }
    }
    // Everything else (non-constant or zero step, composite/nonlinear
    // start): Opaque, no constraints, d_k unconstrained.
  }

  // Collect reference occurrences.
  std::vector<irlt::ArrayRef> Writes, Reads;
  Nest.collectWrites(Writes);
  Nest.collectReads(Reads);
  std::vector<RefOcc> Occs;
  Occs.reserve(Writes.size() + Reads.size());
  for (const irlt::ArrayRef &W : Writes)
    Occs.push_back(RefOcc{&W, true, static_cast<unsigned>(Occs.size())});
  for (const irlt::ArrayRef &R : Reads)
    Occs.push_back(RefOcc{&R, false, static_cast<unsigned>(Occs.size())});

  // Pair classes: an occurrence joins the class of the first earlier
  // occurrence of its array whose subscripts are structurally equal. A
  // pair's analysis reads nothing but the two subscript lists (and the
  // nest), and the first pair of two classes registers every atom a later
  // one would; so each ordered pair of classes is analyzed once, and its
  // vectors and provenance stand for every other pair of those classes.
  // That first pair is the pair of the two classes' first occurrences:
  // writes come before reads, so a class holding a write starts with one.
  size_t NumOccs = Occs.size();
  std::unordered_map<std::string_view, std::vector<unsigned>> OfArray;
  std::vector<unsigned> Class(NumOccs);
  for (const RefOcc &O : Occs) {
    std::vector<unsigned> &Same = OfArray[O.Ref->Array];
    Class[O.Index] = O.Index;
    for (unsigned J : Same)
      if (sameSubscripts(*Occs[J].Ref, *O.Ref)) {
        Class[O.Index] = J;
        break;
      }
    Same.push_back(O.Index);
  }
  // Where each analyzed class pair's entry sits in *Prov.
  std::map<std::pair<unsigned, unsigned>, size_t> ProvAt;

  DepSet Out;
  for (const RefOcc &A : Occs)
    for (unsigned BIdx : OfArray.at(A.Ref->Array)) {
      const RefOcc &B = Occs[BIdx];
      if (!A.IsWrite && !B.IsWrite)
        continue;
      std::pair<unsigned, unsigned> Classes{Class[A.Index], Class[B.Index]};
      if (Classes == std::make_pair(A.Index, B.Index)) {
        DepPairInfo I = analyzePair(A, B, Out);
        if (Prov) {
          ProvAt.emplace(Classes, Prov->size());
          Prov->push_back(std::move(I));
        }
        continue;
      }
      if (!Prov)
        continue;
      DepPairInfo I = (*Prov)[ProvAt.at(Classes)];
      I.SrcOcc = A.Index;
      I.DstOcc = B.Index;
      I.SrcIsWrite = A.IsWrite;
      I.DstIsWrite = B.IsWrite;
      Prov->push_back(std::move(I));
    }
  return Out;
}

} // namespace

DepSet irlt::analyzeDependences(const LoopNest &Nest,
                                const DepAnalysisOptions &Opts) {
  Analyzer A(Nest, Opts);
  return A.run();
}

DepSet irlt::analyzeDependences(const LoopNest &Nest,
                                const DepAnalysisOptions &Opts,
                                std::vector<DepPairInfo> &PairInfo) {
  Analyzer A(Nest, Opts, &PairInfo);
  return A.run();
}

const char *irlt::depDecisionName(DepDecision D) {
  switch (D) {
  case DepDecision::IllTyped:
    return "ill-typed";
  case DepDecision::NonLinear:
    return "nonlinear";
  case DepDecision::ZIV:
    return "ziv";
  case DepDecision::GCD:
    return "gcd";
  case DepDecision::FM:
    return "fm";
  }
  return "?";
}
