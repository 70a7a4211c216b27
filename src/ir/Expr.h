//===- ir/Expr.h - Integer expression trees for loop bounds --------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable integer expression trees. These are the values of loop bound
/// expressions, step expressions, array subscripts, and initialization
/// statements throughout the framework.
///
/// Division (`Div`) and modulus (`Mod`) use *flooring* semantics (round
/// toward negative infinity), matching the `div`/`mod` operators the paper
/// uses to define the Block and Coalesce iteration mappings. Ceiling
/// division by a positive constant is expressed as
/// `floorDiv(E + C - 1, C)` and never needs its own node.
///
/// Nodes are shared immutable objects referenced through `ExprRef`
/// (shared_ptr<const Expr>), so transformed loop nests can share subtrees
/// with their originals freely - a property the paper relies on when it
/// argues that alternative transformations can be explored without
/// mutating the loop nest (Section 5).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_IR_EXPR_H
#define IRLT_IR_EXPR_H

#include "support/Casting.h"

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace irlt {

class Expr;
/// Shared reference to an immutable expression node.
using ExprRef = std::shared_ptr<const Expr>;

/// Order-sensitive combination of two 64-bit hashes: the mix behind
/// Expr::structuralHash() and LoopNest::structuralHash().
inline uint64_t hashMix(uint64_t H, uint64_t V) {
  return H ^ (V + 0x9e3779b97f4a7c15ull + (H << 6) + (H >> 2));
}

/// Callback environment for evaluating expressions: provides variable
/// bindings and implementations for opaque calls (e.g. `colstr`, `sqrt`).
class ExprEnv {
public:
  virtual ~ExprEnv() = default;

  /// \returns the value bound to \p Name, or nullopt if unbound.
  virtual std::optional<int64_t> lookup(const std::string &Name) const = 0;

  /// Evaluates the opaque call \p Name(\p Args). Asserts on unknown names.
  virtual int64_t call(const std::string &Name,
                       const std::vector<int64_t> &Args) const = 0;
};

/// Base class of all expression nodes.
class Expr {
public:
  enum class Kind {
    IntConst, ///< Integer literal.
    Var,      ///< Named variable: a loop index or a symbolic parameter.
    Add,
    Sub,
    Mul,
    Div, ///< Flooring division.
    Mod, ///< Flooring modulus (result sign follows the divisor).
    Min, ///< n-ary minimum.
    Max, ///< n-ary maximum.
    Call ///< Opaque call, e.g. colstr(j) or sqrt(i).
  };

  virtual ~Expr();

  Kind kind() const { return TheKind; }

  /// Structural equality.
  bool equals(const Expr &O) const;
  bool equals(const ExprRef &O) const { return O && equals(*O); }

  /// A hash of the tree's structure: trees that equals() relates hash
  /// equal, so a hash mismatch proves two trees unequal.
  uint64_t structuralHash() const;

  /// True if variable \p Name occurs anywhere in this tree.
  bool containsVar(const std::string &Name) const;

  /// Inserts every variable name occurring in this tree into \p Out.
  void collectVars(std::set<std::string> &Out) const;

  /// Renders the expression in the framework's loop-language syntax.
  std::string str() const { return print(0); }

  /// Evaluates against \p Env. Asserts if a variable is unbound.
  int64_t evaluate(const ExprEnv &Env) const;

  /// \returns the literal value if this is an IntConst node.
  std::optional<int64_t> constValue() const;

  //===--- Factories ------------------------------------------------------===
  static ExprRef intConst(int64_t V);
  static ExprRef var(const std::string &Name);
  static ExprRef add(ExprRef L, ExprRef R);
  static ExprRef sub(ExprRef L, ExprRef R);
  static ExprRef mul(ExprRef L, ExprRef R);
  static ExprRef floorDivE(ExprRef L, ExprRef R);
  static ExprRef modE(ExprRef L, ExprRef R);
  static ExprRef minE(std::vector<ExprRef> Ops);
  static ExprRef maxE(std::vector<ExprRef> Ops);
  static ExprRef call(const std::string &Name, std::vector<ExprRef> Args);
  static ExprRef neg(ExprRef E) { return mul(intConst(-1), std::move(E)); }

  /// Ceiling division by a *positive integer constant* divisor, expressed
  /// via flooring division: ceil(E / C) == floor((E + C - 1) / C).
  static ExprRef ceilDivByConst(ExprRef E, int64_t C);

  /// Substitutes variables by expressions; unmapped variables are kept.
  static ExprRef substitute(const ExprRef &E,
                            const std::map<std::string, ExprRef> &Map);

  /// Renders with enough parentheses for re-parsing. \p ParentPrec is the
  /// binding power of the enclosing operator.
  virtual std::string print(int ParentPrec) const = 0;

protected:
  explicit Expr(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

/// Integer literal.
class IntConstExpr : public Expr {
public:
  explicit IntConstExpr(int64_t V) : Expr(Kind::IntConst), Value(V) {}
  int64_t value() const { return Value; }
  std::string print(int ParentPrec) const override;
  static bool classof(const Expr *E) { return E->kind() == Kind::IntConst; }

private:
  int64_t Value;
};

/// Named variable: either a loop index variable or a nest-invariant
/// symbolic parameter - the distinction is contextual (a name is an index
/// variable iff some enclosing loop binds it).
class VarExpr : public Expr {
public:
  explicit VarExpr(std::string Name) : Expr(Kind::Var), Name(std::move(Name)) {}
  const std::string &name() const { return Name; }
  std::string print(int ParentPrec) const override;
  static bool classof(const Expr *E) { return E->kind() == Kind::Var; }

private:
  std::string Name;
};

/// Binary arithmetic node (Add/Sub/Mul/Div/Mod).
class BinaryExpr : public Expr {
public:
  BinaryExpr(Kind K, ExprRef L, ExprRef R)
      : Expr(K), LHS(std::move(L)), RHS(std::move(R)) {}
  const ExprRef &lhs() const { return LHS; }
  const ExprRef &rhs() const { return RHS; }
  std::string print(int ParentPrec) const override;
  static bool classof(const Expr *E) {
    switch (E->kind()) {
    case Kind::Add:
    case Kind::Sub:
    case Kind::Mul:
    case Kind::Div:
    case Kind::Mod:
      return true;
    default:
      return false;
    }
  }

private:
  ExprRef LHS, RHS;
};

/// n-ary min or max.
class MinMaxExpr : public Expr {
public:
  MinMaxExpr(Kind K, std::vector<ExprRef> Ops)
      : Expr(K), Operands(std::move(Ops)) {}
  const std::vector<ExprRef> &operands() const { return Operands; }
  bool isMin() const { return kind() == Kind::Min; }
  std::string print(int ParentPrec) const override;
  static bool classof(const Expr *E) {
    return E->kind() == Kind::Min || E->kind() == Kind::Max;
  }

private:
  std::vector<ExprRef> Operands;
};

/// Opaque call such as `colstr(j)`. The framework treats these as
/// uninterpreted (and therefore nonlinear) terms; the evaluator resolves
/// them through ExprEnv::call.
class CallExpr : public Expr {
public:
  CallExpr(std::string Callee, std::vector<ExprRef> Args)
      : Expr(Kind::Call), Callee(std::move(Callee)), Args(std::move(Args)) {}
  const std::string &callee() const { return Callee; }
  const std::vector<ExprRef> &args() const { return Args; }
  std::string print(int ParentPrec) const override;
  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

private:
  std::string Callee;
  std::vector<ExprRef> Args;
};

} // namespace irlt

#endif // IRLT_IR_EXPR_H
