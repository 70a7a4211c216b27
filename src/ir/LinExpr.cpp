//===- ir/LinExpr.cpp - Linear combinations over expression atoms --------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "ir/LinExpr.h"

#include "support/Casting.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <cassert>

using namespace irlt;

//===----------------------------------------------------------------------===
// Construction
//===----------------------------------------------------------------------===

void LinExpr::addVar(const std::string &Name, int64_t Coef) {
  addAtom(Expr::var(Name), Coef);
}

void LinExpr::addAtom(const ExprRef &Atom, int64_t Coef) {
  if (Coef == 0)
    return;
  std::string Key = Atom->str();
  auto It = Terms.find(Key);
  if (It == Terms.end()) {
    Terms.emplace(std::move(Key), Term{Atom, Coef});
    return;
  }
  It->second.Coef = addChecked(It->second.Coef, Coef);
  if (It->second.Coef == 0)
    Terms.erase(It);
}

LinExpr LinExpr::fromExpr(const ExprRef &E) {
  assert(E && "linearizing null expression");
  LinExpr L;
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    L.Const = cast<IntConstExpr>(E.get())->value();
    return L;
  case Expr::Kind::Var:
    L.addAtom(E, 1);
    return L;
  case Expr::Kind::Add: {
    const auto *B = cast<BinaryExpr>(E.get());
    return fromExpr(B->lhs()) + fromExpr(B->rhs());
  }
  case Expr::Kind::Sub: {
    const auto *B = cast<BinaryExpr>(E.get());
    return fromExpr(B->lhs()) - fromExpr(B->rhs());
  }
  case Expr::Kind::Mul: {
    const auto *B = cast<BinaryExpr>(E.get());
    LinExpr LHS = fromExpr(B->lhs());
    LinExpr RHS = fromExpr(B->rhs());
    if (LHS.isConst())
      return RHS.scaled(LHS.Const);
    if (RHS.isConst())
      return LHS.scaled(RHS.Const);
    // Product of two non-constants: opaque.
    L.addAtom(E, 1);
    return L;
  }
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    LinExpr LHS = fromExpr(B->lhs());
    LinExpr RHS = fromExpr(B->rhs());
    if (LHS.isConst() && RHS.isConst() && RHS.Const != 0) {
      L.Const = E->kind() == Expr::Kind::Div ? floorDiv(LHS.Const, RHS.Const)
                                             : floorMod(LHS.Const, RHS.Const);
      return L;
    }
    // Flooring division does not distribute over sums; keep opaque.
    L.addAtom(E, 1);
    return L;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    bool AllConst = true;
    int64_t Best = 0;
    for (size_t I = 0; I < M->operands().size(); ++I) {
      LinExpr OpL = fromExpr(M->operands()[I]);
      if (!OpL.isConst()) {
        AllConst = false;
        break;
      }
      Best = I == 0 ? OpL.Const
                    : (M->isMin() ? std::min(Best, OpL.Const)
                                  : std::max(Best, OpL.Const));
    }
    if (AllConst) {
      L.Const = Best;
      return L;
    }
    L.addAtom(E, 1);
    return L;
  }
  case Expr::Kind::Call:
    L.addAtom(E, 1);
    return L;
  }
  assert(false && "unreachable expression kind");
  return L;
}

//===----------------------------------------------------------------------===
// Queries
//===----------------------------------------------------------------------===

int64_t LinExpr::coeffOf(const std::string &Name) const {
  auto It = Terms.find(Name);
  if (It == Terms.end() || !isa<VarExpr>(It->second.Atom.get()))
    return 0;
  return It->second.Coef;
}

bool LinExpr::dependsOn(const std::string &Name) const {
  for (const auto &[Key, T] : Terms)
    if (T.Atom->containsVar(Name))
      return true;
  return false;
}

bool LinExpr::hasVarInsideOpaqueAtom(const std::string &Name) const {
  for (const auto &[Key, T] : Terms) {
    if (isa<VarExpr>(T.Atom.get()))
      continue;
    if (T.Atom->containsVar(Name))
      return true;
  }
  return false;
}

bool LinExpr::allAtomsAreVars() const {
  for (const auto &[Key, T] : Terms)
    if (!isa<VarExpr>(T.Atom.get()))
      return false;
  return true;
}

int64_t LinExpr::extractVar(const std::string &Name) {
  auto It = Terms.find(Name);
  if (It == Terms.end() || !isa<VarExpr>(It->second.Atom.get()))
    return 0;
  int64_t C = It->second.Coef;
  Terms.erase(It);
  return C;
}

bool LinExpr::equals(const LinExpr &O) const {
  if (Const != O.Const || Terms.size() != O.Terms.size())
    return false;
  auto ItA = Terms.begin();
  auto ItB = O.Terms.begin();
  for (; ItA != Terms.end(); ++ItA, ++ItB)
    if (ItA->first != ItB->first || ItA->second.Coef != ItB->second.Coef)
      return false;
  return true;
}

//===----------------------------------------------------------------------===
// Arithmetic
//===----------------------------------------------------------------------===

LinExpr LinExpr::operator+(const LinExpr &O) const {
  LinExpr R = *this;
  R.Const = addChecked(R.Const, O.Const);
  for (const auto &[Key, T] : O.Terms)
    R.addAtom(T.Atom, T.Coef);
  return R;
}

LinExpr LinExpr::operator-(const LinExpr &O) const {
  return *this + O.scaled(-1);
}

LinExpr LinExpr::scaled(int64_t F) const {
  LinExpr R;
  if (F == 0)
    return R;
  R.Const = mulChecked(Const, F);
  for (const auto &[Key, T] : Terms)
    R.Terms.emplace(Key, Term{T.Atom, mulChecked(T.Coef, F)});
  return R;
}

LinExpr LinExpr::substituted(const std::map<std::string, LinExpr> &Map) const {
  LinExpr R;
  R.Const = Const;
  for (const auto &[Key, T] : Terms) {
    const auto *V = dyn_cast<VarExpr>(T.Atom.get());
    if (V) {
      auto It = Map.find(V->name());
      if (It != Map.end()) {
        R = R + It->second.scaled(T.Coef);
        continue;
      }
    }
    R.addAtom(T.Atom, T.Coef);
  }
  return R;
}

//===----------------------------------------------------------------------===
// Rebuilding expressions
//===----------------------------------------------------------------------===

ExprRef LinExpr::toExpr() const {
  ExprRef Acc;
  auto appendTerm = [&Acc](const ExprRef &Atom, int64_t Coef) {
    assert(Coef != 0 && "zero-coefficient term survived");
    int64_t AbsCoef = Coef < 0 ? negChecked(Coef) : Coef;
    ExprRef Piece =
        AbsCoef == 1 ? Atom : Expr::mul(Expr::intConst(AbsCoef), Atom);
    if (!Acc) {
      Acc = Coef < 0 ? Expr::neg(Piece) : Piece;
      return;
    }
    Acc = Coef < 0 ? Expr::sub(Acc, Piece) : Expr::add(Acc, Piece);
  };

  // Lead with a positive-coefficient term when one exists, so "jj - ii"
  // prints instead of "-ii + jj".
  const std::string *LeadKey = nullptr;
  for (const auto &[Key, T] : Terms)
    if (T.Coef > 0) {
      LeadKey = &Key;
      break;
    }
  if (LeadKey)
    appendTerm(Terms.at(*LeadKey).Atom, Terms.at(*LeadKey).Coef);
  for (const auto &[Key, T] : Terms) {
    if (LeadKey && Key == *LeadKey)
      continue;
    appendTerm(T.Atom, T.Coef);
  }

  if (!Acc)
    return Expr::intConst(Const);
  if (Const > 0)
    return Expr::add(Acc, Expr::intConst(Const));
  if (Const < 0)
    return Expr::sub(Acc, Expr::intConst(negChecked(Const)));
  return Acc;
}

//===----------------------------------------------------------------------===
// Simplification
//===----------------------------------------------------------------------===

namespace {

/// Recursively simplifies the children of \p E and rebuilds the node.
ExprRef simplifyChildren(const ExprRef &E) {
  switch (E->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::Var:
    return E;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    ExprRef L = simplify(B->lhs());
    ExprRef R = simplify(B->rhs());
    if (L == B->lhs() && R == B->rhs())
      return E;
    return std::make_shared<BinaryExpr>(E->kind(), std::move(L), std::move(R));
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    std::vector<ExprRef> Ops;
    for (const ExprRef &Op : M->operands())
      Ops.push_back(simplify(Op));
    return std::make_shared<MinMaxExpr>(E->kind(), std::move(Ops));
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    std::vector<ExprRef> Args;
    for (const ExprRef &Arg : C->args())
      Args.push_back(simplify(Arg));
    return std::make_shared<CallExpr>(C->callee(), std::move(Args));
  }
  }
  return E;
}

} // namespace

ExprRef irlt::simplify(const ExprRef &E) {
  assert(E && "simplifying null expression");
  ExprRef S = simplifyChildren(E);
  switch (S->kind()) {
  case Expr::Kind::IntConst:
  case Expr::Kind::Var:
  case Expr::Kind::Call:
    return S;
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
    // Canonicalize through the linear form (merges like terms, folds
    // constants, drops *1 and +0).
    return LinExpr::fromExpr(S).toExpr();
  case Expr::Kind::Div: {
    const auto *B = cast<BinaryExpr>(S.get());
    std::optional<int64_t> LC = B->lhs()->constValue();
    std::optional<int64_t> RC = B->rhs()->constValue();
    if (LC && RC && *RC != 0)
      return Expr::intConst(floorDiv(*LC, *RC));
    if (RC && *RC == 1)
      return B->lhs();
    if (LC && *LC == 0)
      return Expr::intConst(0);
    return S;
  }
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(S.get());
    std::optional<int64_t> LC = B->lhs()->constValue();
    std::optional<int64_t> RC = B->rhs()->constValue();
    if (LC && RC && *RC != 0)
      return Expr::intConst(floorMod(*LC, *RC));
    if (RC && (*RC == 1 || *RC == -1))
      return Expr::intConst(0);
    return S;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(S.get());
    bool IsMin = M->isMin();
    std::vector<ExprRef> Ops;
    std::optional<int64_t> ConstAcc;
    std::optional<size_t> ConstPos; // keep the first constant's position
    // The bounds SymbolicFM generates can carry thousands of operands, so
    // the duplicate scan finds kept operands by structural hash (equal
    // trees hash equal) in an open-addressed table of their positions:
    // only operands with equal hashes pay for the full tree comparison.
    std::vector<uint64_t> OpHashes; // structural hashes of Ops
    std::vector<uint32_t> Table(8); // 1 + a position in Ops, or 0 (free)
    // Flatten nested same-kind nodes, fold constants, drop duplicates.
    std::vector<ExprRef> Work(M->operands().begin(), M->operands().end());
    for (size_t I = 0; I < Work.size(); ++I) {
      // Copy: the insert below may reallocate Work.
      ExprRef Op = Work[I];
      if (Op->kind() == S->kind()) {
        const auto *Inner = cast<MinMaxExpr>(Op.get());
        Work.insert(Work.end(), Inner->operands().begin(),
                    Inner->operands().end());
        continue;
      }
      if (std::optional<int64_t> C = Op->constValue()) {
        ConstAcc = ConstAcc ? (IsMin ? std::min(*ConstAcc, *C)
                                     : std::max(*ConstAcc, *C))
                            : *C;
        if (!ConstPos)
          ConstPos = Ops.size();
        continue;
      }
      uint64_t H = Op->structuralHash();
      size_t Mask = Table.size() - 1, Slot = H & Mask;
      bool Dup = false;
      for (; Table[Slot] && !Dup; Slot = (Slot + 1) & Mask) {
        uint32_t K = Table[Slot] - 1;
        Dup = OpHashes[K] == H && Ops[K]->equals(*Op);
      }
      if (Dup)
        continue;
      Table[Slot] = static_cast<uint32_t>(Ops.size() + 1);
      Ops.push_back(Op);
      OpHashes.push_back(H);
      if (2 * Ops.size() > Table.size()) { // keep at least half free
        Table.assign(2 * Table.size(), 0);
        for (uint32_t K = 0; K < Ops.size(); ++K) {
          size_t S = OpHashes[K] & (Table.size() - 1);
          while (Table[S])
            S = (S + 1) & (Table.size() - 1);
          Table[S] = K + 1;
        }
      }
    }
    if (ConstAcc)
      Ops.insert(Ops.begin() + static_cast<ptrdiff_t>(
                                   std::min(*ConstPos, Ops.size())),
                 Expr::intConst(*ConstAcc));
    assert(!Ops.empty() && "min/max lost all operands");
    if (Ops.size() == 1)
      return Ops.front();
    return std::make_shared<MinMaxExpr>(S->kind(), std::move(Ops));
  }
  default:
    return S;
  }
}
