//===- ir/LoopNest.cpp - Perfect loop nests --------------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "ir/LoopNest.h"

#include "support/Casting.h"
#include "support/Printing.h"

#include <cassert>
#include <functional>

using namespace irlt;

std::string irlt::ArrayRef::str() const {
  std::vector<std::string> Parts;
  Parts.reserve(Subscripts.size());
  for (const ExprRef &S : Subscripts)
    Parts.push_back(S->str());
  return Array + "(" + join(Parts, ", ") + ")";
}

std::string AssignStmt::str() const { return LHS.str() + " = " + RHS->str(); }

std::string InitStmt::str() const { return Var + " = " + Value->str(); }

int LoopNest::loopIndexOf(const std::string &Var) const {
  for (size_t I = 0; I < Loops.size(); ++I)
    if (Loops[I].IndexVar == Var)
      return static_cast<int>(I);
  return -1;
}

namespace {

bool sameExprs(const std::vector<ExprRef> &A, const std::vector<ExprRef> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!A[I]->equals(*B[I]))
      return false;
  return true;
}

uint64_t hashName(uint64_t H, const std::string &Name) {
  return hashMix(H, std::hash<std::string>()(Name));
}

} // namespace

bool LoopNest::equals(const LoopNest &O) const {
  if (Loops.size() != O.Loops.size() || Inits.size() != O.Inits.size() ||
      Body.size() != O.Body.size() || BodyIndexVars != O.BodyIndexVars ||
      ArrayNames != O.ArrayNames)
    return false;
  for (size_t K = 0; K < Loops.size(); ++K) {
    const Loop &A = Loops[K], &B = O.Loops[K];
    if (A.IndexVar != B.IndexVar || A.Kind != B.Kind ||
        !A.Lower->equals(*B.Lower) || !A.Upper->equals(*B.Upper) ||
        !A.Step->equals(*B.Step))
      return false;
  }
  for (size_t K = 0; K < Inits.size(); ++K)
    if (Inits[K].Var != O.Inits[K].Var ||
        !Inits[K].Value->equals(*O.Inits[K].Value))
      return false;
  for (size_t K = 0; K < Body.size(); ++K) {
    const AssignStmt &A = Body[K], &B = O.Body[K];
    if (A.LHS.Array != B.LHS.Array ||
        !sameExprs(A.LHS.Subscripts, B.LHS.Subscripts) ||
        !A.RHS->equals(*B.RHS))
      return false;
  }
  return true;
}

uint64_t LoopNest::structuralHash() const {
  // Counts are mixed in so that fields of different lengths cannot shift
  // into each other.
  uint64_t H = hashMix(0, Loops.size());
  for (const Loop &L : Loops) {
    H = hashName(H, L.IndexVar);
    H = hashMix(H, static_cast<uint64_t>(L.Kind));
    H = hashMix(H, L.Lower->structuralHash());
    H = hashMix(H, L.Upper->structuralHash());
    H = hashMix(H, L.Step->structuralHash());
  }
  H = hashMix(H, Inits.size());
  for (const InitStmt &I : Inits)
    H = hashMix(hashName(H, I.Var), I.Value->structuralHash());
  H = hashMix(H, Body.size());
  for (const AssignStmt &S : Body) {
    H = hashMix(hashName(H, S.LHS.Array), S.LHS.Subscripts.size());
    for (const ExprRef &E : S.LHS.Subscripts)
      H = hashMix(H, E->structuralHash());
    H = hashMix(H, S.RHS->structuralHash());
  }
  H = hashMix(H, ArrayNames.size());
  for (const std::string &A : ArrayNames)
    H = hashName(H, A);
  H = hashMix(H, BodyIndexVars.size());
  for (const std::string &V : BodyIndexVars)
    H = hashName(H, V);
  return H;
}

void irlt::collectArrayReads(const ExprRef &E,
                             const std::set<std::string> &ArrayNames,
                             std::vector<irlt::ArrayRef> &Out) {
  switch (E->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::Var:
    return;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    collectArrayReads(B->lhs(), ArrayNames, Out);
    collectArrayReads(B->rhs(), ArrayNames, Out);
    return;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      collectArrayReads(Op, ArrayNames, Out);
    return;
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    if (ArrayNames.count(C->callee()))
      Out.push_back(irlt::ArrayRef{C->callee(), C->args()});
    // Subscripts may themselves read arrays (e.g. a(idx(i))).
    for (const ExprRef &Arg : C->args())
      collectArrayReads(Arg, ArrayNames, Out);
    return;
  }
  }
}

void LoopNest::collectWrites(std::vector<irlt::ArrayRef> &Out) const {
  for (const AssignStmt &S : Body)
    Out.push_back(S.LHS);
}

void LoopNest::collectReads(std::vector<irlt::ArrayRef> &Out) const {
  for (const AssignStmt &S : Body)
    collectArrayReads(S.RHS, ArrayNames, Out);
}

void LoopNest::sealAsSource() {
  BodyIndexVars.clear();
  BodyIndexVars.reserve(Loops.size());
  for (const Loop &L : Loops)
    BodyIndexVars.push_back(L.IndexVar);
}

std::string LoopNest::validate() const {
  std::set<std::string> Seen;
  for (size_t K = 0; K < Loops.size(); ++K) {
    const Loop &L = Loops[K];
    if (L.IndexVar.empty())
      return formatStr("loop %zu has no index variable", K + 1);
    if (!Seen.insert(L.IndexVar).second)
      return formatStr("index variable '%s' bound twice", L.IndexVar.c_str());
    if (!L.Lower || !L.Upper || !L.Step)
      return formatStr("loop %zu ('%s') is missing a bound expression", K + 1,
                       L.IndexVar.c_str());
    // Bounds of loop k may reference index variables of loops 1..k-1 only.
    for (const ExprRef &E : {L.Lower, L.Upper, L.Step}) {
      std::set<std::string> Vars;
      E->collectVars(Vars);
      for (const std::string &V : Vars) {
        int Pos = loopIndexOf(V);
        if (Pos >= 0 && static_cast<size_t>(Pos) >= K)
          return formatStr(
              "bound of loop %zu ('%s') references non-outer index '%s'",
              K + 1, L.IndexVar.c_str(), V.c_str());
      }
    }
  }
  return std::string();
}

std::string LoopNest::str() const {
  IndentedWriter W;
  for (const Loop &L : Loops) {
    std::string Head =
        std::string(L.Kind == LoopKind::ParDo ? "pardo " : "do ") +
        L.IndexVar + " = " + L.Lower->str() + ", " + L.Upper->str();
    std::optional<int64_t> StepC = L.Step->constValue();
    if (!StepC || *StepC != 1)
      Head += ", " + L.Step->str();
    W.line(Head);
    W.indent();
  }
  for (const InitStmt &I : Inits)
    W.line(I.str());
  for (const AssignStmt &S : Body)
    W.line(S.str());
  for (size_t I = 0; I < Loops.size(); ++I) {
    W.outdent();
    W.line("enddo");
  }
  return W.str();
}
