//===- ir/Expr.cpp - Integer expression trees -----------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Expr.h"

#include "support/MathUtils.h"
#include "support/Printing.h"

#include <cassert>
#include <functional>

using namespace irlt;

Expr::~Expr() = default;

//===----------------------------------------------------------------------===
// Factories
//===----------------------------------------------------------------------===

ExprRef Expr::intConst(int64_t V) { return std::make_shared<IntConstExpr>(V); }

ExprRef Expr::var(const std::string &Name) {
  assert(!Name.empty() && "variable with empty name");
  return std::make_shared<VarExpr>(Name);
}

ExprRef Expr::add(ExprRef L, ExprRef R) {
  return std::make_shared<BinaryExpr>(Kind::Add, std::move(L), std::move(R));
}

ExprRef Expr::sub(ExprRef L, ExprRef R) {
  return std::make_shared<BinaryExpr>(Kind::Sub, std::move(L), std::move(R));
}

ExprRef Expr::mul(ExprRef L, ExprRef R) {
  return std::make_shared<BinaryExpr>(Kind::Mul, std::move(L), std::move(R));
}

ExprRef Expr::floorDivE(ExprRef L, ExprRef R) {
  return std::make_shared<BinaryExpr>(Kind::Div, std::move(L), std::move(R));
}

ExprRef Expr::modE(ExprRef L, ExprRef R) {
  return std::make_shared<BinaryExpr>(Kind::Mod, std::move(L), std::move(R));
}

ExprRef Expr::minE(std::vector<ExprRef> Ops) {
  assert(!Ops.empty() && "min() of nothing");
  if (Ops.size() == 1)
    return Ops.front();
  return std::make_shared<MinMaxExpr>(Kind::Min, std::move(Ops));
}

ExprRef Expr::maxE(std::vector<ExprRef> Ops) {
  assert(!Ops.empty() && "max() of nothing");
  if (Ops.size() == 1)
    return Ops.front();
  return std::make_shared<MinMaxExpr>(Kind::Max, std::move(Ops));
}

ExprRef Expr::call(const std::string &Name, std::vector<ExprRef> Args) {
  return std::make_shared<CallExpr>(Name, std::move(Args));
}

ExprRef Expr::ceilDivByConst(ExprRef E, int64_t C) {
  assert(C > 0 && "ceilDivByConst requires a positive constant divisor");
  if (C == 1)
    return E;
  return floorDivE(add(std::move(E), intConst(C - 1)), intConst(C));
}

//===----------------------------------------------------------------------===
// Queries
//===----------------------------------------------------------------------===

std::optional<int64_t> Expr::constValue() const {
  if (const auto *IC = dyn_cast<IntConstExpr>(this))
    return IC->value();
  return std::nullopt;
}

bool Expr::equals(const Expr &O) const {
  if (TheKind != O.TheKind)
    return false;
  switch (TheKind) {
  case Kind::IntConst:
    return cast<IntConstExpr>(this)->value() == cast<IntConstExpr>(&O)->value();
  case Kind::Var:
    return cast<VarExpr>(this)->name() == cast<VarExpr>(&O)->name();
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *A = cast<BinaryExpr>(this);
    const auto *B = cast<BinaryExpr>(&O);
    return A->lhs()->equals(*B->lhs()) && A->rhs()->equals(*B->rhs());
  }
  case Kind::Min:
  case Kind::Max: {
    const auto *A = cast<MinMaxExpr>(this);
    const auto *B = cast<MinMaxExpr>(&O);
    if (A->operands().size() != B->operands().size())
      return false;
    for (size_t I = 0; I < A->operands().size(); ++I)
      if (!A->operands()[I]->equals(*B->operands()[I]))
        return false;
    return true;
  }
  case Kind::Call: {
    const auto *A = cast<CallExpr>(this);
    const auto *B = cast<CallExpr>(&O);
    if (A->callee() != B->callee() || A->args().size() != B->args().size())
      return false;
    for (size_t I = 0; I < A->args().size(); ++I)
      if (!A->args()[I]->equals(*B->args()[I]))
        return false;
    return true;
  }
  }
  return false;
}

uint64_t Expr::structuralHash() const {
  // Order-sensitive combination, matching equals(), which compares
  // operands position by position.
  uint64_t H = hashMix(0, static_cast<uint64_t>(TheKind));
  switch (TheKind) {
  case Kind::IntConst:
    return hashMix(H,
                   static_cast<uint64_t>(cast<IntConstExpr>(this)->value()));
  case Kind::Var:
    return hashMix(H, std::hash<std::string>()(cast<VarExpr>(this)->name()));
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *B = cast<BinaryExpr>(this);
    return hashMix(hashMix(H, B->lhs()->structuralHash()),
                   B->rhs()->structuralHash());
  }
  case Kind::Min:
  case Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(this)->operands())
      H = hashMix(H, Op->structuralHash());
    return H;
  case Kind::Call: {
    const auto *C = cast<CallExpr>(this);
    H = hashMix(H, std::hash<std::string>()(C->callee()));
    for (const ExprRef &Arg : C->args())
      H = hashMix(H, Arg->structuralHash());
    return H;
  }
  }
  return H;
}

bool Expr::containsVar(const std::string &Name) const {
  switch (TheKind) {
  case Kind::IntConst:
    return false;
  case Kind::Var:
    return cast<VarExpr>(this)->name() == Name;
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *B = cast<BinaryExpr>(this);
    return B->lhs()->containsVar(Name) || B->rhs()->containsVar(Name);
  }
  case Kind::Min:
  case Kind::Max: {
    for (const ExprRef &Op : cast<MinMaxExpr>(this)->operands())
      if (Op->containsVar(Name))
        return true;
    return false;
  }
  case Kind::Call: {
    for (const ExprRef &Arg : cast<CallExpr>(this)->args())
      if (Arg->containsVar(Name))
        return true;
    return false;
  }
  }
  return false;
}

void Expr::collectVars(std::set<std::string> &Out) const {
  switch (TheKind) {
  case Kind::IntConst:
    return;
  case Kind::Var:
    Out.insert(cast<VarExpr>(this)->name());
    return;
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *B = cast<BinaryExpr>(this);
    B->lhs()->collectVars(Out);
    B->rhs()->collectVars(Out);
    return;
  }
  case Kind::Min:
  case Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(this)->operands())
      Op->collectVars(Out);
    return;
  case Kind::Call:
    for (const ExprRef &Arg : cast<CallExpr>(this)->args())
      Arg->collectVars(Out);
    return;
  }
}

ExprRef Expr::substitute(const ExprRef &E,
                         const std::map<std::string, ExprRef> &Map) {
  assert(E && "substitute on null expression");
  switch (E->kind()) {
  case Kind::IntConst:
    return E;
  case Kind::Var: {
    auto It = Map.find(cast<VarExpr>(E.get())->name());
    return It == Map.end() ? E : It->second;
  }
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    ExprRef L = substitute(B->lhs(), Map);
    ExprRef R = substitute(B->rhs(), Map);
    if (L == B->lhs() && R == B->rhs())
      return E;
    return std::make_shared<BinaryExpr>(E->kind(), std::move(L), std::move(R));
  }
  case Kind::Min:
  case Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    std::vector<ExprRef> Ops;
    Ops.reserve(M->operands().size());
    bool Changed = false;
    for (const ExprRef &Op : M->operands()) {
      Ops.push_back(substitute(Op, Map));
      Changed |= Ops.back() != Op;
    }
    if (!Changed)
      return E;
    return std::make_shared<MinMaxExpr>(E->kind(), std::move(Ops));
  }
  case Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    std::vector<ExprRef> Args;
    Args.reserve(C->args().size());
    bool Changed = false;
    for (const ExprRef &Arg : C->args()) {
      Args.push_back(substitute(Arg, Map));
      Changed |= Args.back() != Arg;
    }
    if (!Changed)
      return E;
    return std::make_shared<CallExpr>(C->callee(), std::move(Args));
  }
  }
  return E;
}

//===----------------------------------------------------------------------===
// Evaluation
//===----------------------------------------------------------------------===

int64_t Expr::evaluate(const ExprEnv &Env) const {
  switch (TheKind) {
  case Kind::IntConst:
    return cast<IntConstExpr>(this)->value();
  case Kind::Var: {
    std::optional<int64_t> V = Env.lookup(cast<VarExpr>(this)->name());
    assert(V && "unbound variable in expression evaluation");
    return *V;
  }
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Div:
  case Kind::Mod: {
    const auto *B = cast<BinaryExpr>(this);
    int64_t L = B->lhs()->evaluate(Env);
    int64_t R = B->rhs()->evaluate(Env);
    switch (TheKind) {
    case Kind::Add:
      return addChecked(L, R);
    case Kind::Sub:
      return subChecked(L, R);
    case Kind::Mul:
      return mulChecked(L, R);
    case Kind::Div:
      return floorDiv(L, R);
    case Kind::Mod:
      return floorMod(L, R);
    default:
      break;
    }
    assert(false && "unreachable binary kind");
    return 0;
  }
  case Kind::Min:
  case Kind::Max: {
    const auto *M = cast<MinMaxExpr>(this);
    int64_t Best = M->operands().front()->evaluate(Env);
    for (size_t I = 1; I < M->operands().size(); ++I) {
      int64_t V = M->operands()[I]->evaluate(Env);
      Best = M->isMin() ? std::min(Best, V) : std::max(Best, V);
    }
    return Best;
  }
  case Kind::Call: {
    const auto *C = cast<CallExpr>(this);
    std::vector<int64_t> Args;
    Args.reserve(C->args().size());
    for (const ExprRef &Arg : C->args())
      Args.push_back(Arg->evaluate(Env));
    return Env.call(C->callee(), Args);
  }
  }
  assert(false && "unreachable expression kind");
  return 0;
}

//===----------------------------------------------------------------------===
// Printing
//===----------------------------------------------------------------------===

// Binding powers: additive = 10, multiplicative = 20. Atoms are 100.
static int precedenceOf(Expr::Kind K) {
  switch (K) {
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
    return 10;
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
    return 20;
  default:
    return 100;
  }
}

std::string IntConstExpr::print(int ParentPrec) const {
  if (Value < 0 && ParentPrec > 0)
    return "(" + std::to_string(Value) + ")";
  return std::to_string(Value);
}

std::string VarExpr::print(int) const { return Name; }

std::string BinaryExpr::print(int ParentPrec) const {
  // Mod prints in call syntax to keep flooring semantics unambiguous.
  if (kind() == Kind::Mod)
    return "mod(" + LHS->print(0) + ", " + RHS->print(0) + ")";

  // Negation sugar: (-1)*x prints as -x.
  if (kind() == Kind::Mul) {
    std::optional<int64_t> LC = LHS->constValue();
    if (LC && *LC == -1) {
      std::string S = "-" + RHS->print(precedenceOf(Kind::Mul));
      if (ParentPrec > 10) // bind like an additive term
        return "(" + S + ")";
      return S;
    }
  }

  int Prec = precedenceOf(kind());
  const char *Op = nullptr;
  switch (kind()) {
  case Kind::Add:
    Op = " + ";
    break;
  case Kind::Sub:
    Op = " - ";
    break;
  case Kind::Mul:
    Op = "*";
    break;
  case Kind::Div:
    Op = " / ";
    break;
  default:
    assert(false && "unexpected binary kind");
  }
  // Right operand of - and / needs a strictly-higher binding power.
  bool RightAssocGuard = kind() == Kind::Sub || kind() == Kind::Div;
  std::string S =
      LHS->print(Prec) + Op + RHS->print(RightAssocGuard ? Prec + 1 : Prec);
  if (Prec < ParentPrec)
    return "(" + S + ")";
  return S;
}

std::string MinMaxExpr::print(int) const {
  std::vector<std::string> Parts;
  Parts.reserve(Operands.size());
  for (const ExprRef &Op : Operands)
    Parts.push_back(Op->print(0));
  return std::string(isMin() ? "min" : "max") + "(" + join(Parts, ", ") + ")";
}

std::string CallExpr::print(int) const {
  std::vector<std::string> Parts;
  Parts.reserve(Args.size());
  for (const ExprRef &Arg : Args)
    Parts.push_back(Arg->print(0));
  return Callee + "(" + join(Parts, ", ") + ")";
}
