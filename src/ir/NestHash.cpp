//===- ir/NestHash.cpp - Canonical structural nest fingerprints ----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "ir/NestHash.h"

#include "ir/LinExpr.h"
#include "support/Casting.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <string_view>
#include <vector>

using namespace irlt;

namespace {

/// Writes the canonical key of one nest into a single buffer. Sorted
/// groups (linear terms, min/max operands, product factors) need their
/// members' renderings before they can be ordered, so a group renders its
/// members at the end of the buffer, sorts their spans, appends them in
/// order and then erases the unsorted renderings.
class KeyWriter {
public:
  KeyWriter(const LoopNest &Nest, std::string &Out) : Out(Out) {
    // Positional renaming: loop index variables become @0, @1, ...
    // (outermost first; a repeated name keeps its last position); body
    // index variables not bound by any loop (the original variables of a
    // transformed nest, recovered by Inits) become $0, $1, ... Free
    // parameters keep their names.
    for (unsigned K = 0; K < Nest.numLoops(); ++K) {
      const std::string &V = Nest.Loops[K].IndexVar;
      if (Slot *S = find(V))
        S->Pos = K;
      else
        Renames.push_back({&V, '@', K});
    }
    for (size_t K = 0; K < Nest.BodyIndexVars.size(); ++K) {
      const std::string &V = Nest.BodyIndexVars[K];
      if (!find(V))
        Renames.push_back({&V, '$', static_cast<unsigned>(K)});
    }
  }

  /// \p N under the renaming, or verbatim when it is not renamed.
  void name(const std::string &N) {
    if (const Slot *S = find(N)) {
      Out += S->Sigil;
      integer(S->Pos);
    } else {
      Out += N;
    }
  }

  void integer(int64_t V) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  }

  /// Canonicalizes \p E through the linear form: constant first, then the
  /// linear terms sorted by their canonical atom rendering. This merges
  /// like terms, folds constants, and erases source-order differences
  /// (`i + 1` vs `1 + i`, `2*i` vs `i + i`).
  void expr(const ExprRef &E) {
    LinExpr L = LinExpr::fromExpr(E);
    Out += "lin(";
    integer(L.constant());
    // The terms are keyed by the *un-renamed* rendering; re-key them
    // canonically.
    const size_t Scratch = Out.size(), First = Spans.size();
    for (const auto &[Key, T] : L.terms()) {
      (void)Key;
      if (T.Coef == 0)
        continue;
      size_t B = Out.size();
      opaque(*T.Atom);
      Spans.push_back({B, Out.size() - B, T.Coef});
    }
    sortSpans(First, /*ByCoef=*/true);
    const size_t End = Out.size();
    for (size_t I = First; I < Spans.size();) {
      // Two source atoms that canonicalize identically (e.g. a*b and b*a
      // appearing as separate terms) merge here, under the same overflow
      // rule as the linear form's own coefficient arithmetic.
      int64_t Coef = Spans[I].Coef;
      size_t J = I + 1;
      for (; J < Spans.size() && view(Spans[J]) == view(Spans[I]); ++J)
        Coef = addChecked(Coef, Spans[J].Coef);
      if (Coef != 0) {
        Out += ' ';
        integer(Coef);
        Out += '*';
        Out.append(Out, Spans[I].Begin, Spans[I].Len);
      }
      I = J;
    }
    Spans.resize(First);
    Out.erase(Scratch, End - Scratch);
    Out += ')';
  }

private:
  struct Slot {
    const std::string *Name;
    char Sigil;
    unsigned Pos;
  };
  /// A rendering in Out awaiting its sorted place.
  struct Span {
    size_t Begin, Len;
    int64_t Coef;
  };

  Slot *find(const std::string &N) {
    for (Slot &S : Renames)
      if (*S.Name == N)
        return &S;
    return nullptr;
  }

  std::string_view view(const Span &S) const {
    return std::string_view(Out.data() + S.Begin, S.Len);
  }

  void sortSpans(size_t First, bool ByCoef) {
    std::sort(Spans.begin() + static_cast<std::ptrdiff_t>(First), Spans.end(),
              [&](const Span &A, const Span &B) {
                int C = view(A).compare(view(B));
                return C != 0 ? C < 0 : ByCoef && A.Coef < B.Coef;
              });
  }

  /// \p Head, then the canonical operands in sorted order, each after a
  /// space, then ')'.
  void commutative(const char *Head, const ExprRef *Ops, size_t Count) {
    Out += Head;
    const size_t Scratch = Out.size(), First = Spans.size();
    for (size_t K = 0; K < Count; ++K) {
      size_t B = Out.size();
      expr(Ops[K]);
      Spans.push_back({B, Out.size() - B, 0});
    }
    sortSpans(First, /*ByCoef=*/false);
    const size_t End = Out.size();
    for (size_t I = First; I < Spans.size(); ++I) {
      Out += ' ';
      Out.append(Out, Spans[I].Begin, Spans[I].Len);
    }
    Spans.resize(First);
    Out.erase(Scratch, End - Scratch);
    Out += ')';
  }

  /// Canonical rendering of an opaque (non-linear) node. Commutative
  /// operators sort their canonicalized operands; everything else keeps
  /// structural order.
  void opaque(const Expr &E) {
    switch (E.kind()) {
    case Expr::Kind::IntConst:
      integer(cast<IntConstExpr>(&E)->value());
      return;
    case Expr::Kind::Var:
      name(cast<VarExpr>(&E)->name());
      return;
    case Expr::Kind::Mul: {
      // A non-constant product (a constant factor would have been folded
      // into the linear form). Multiplication commutes, so sort.
      const auto *B = cast<BinaryExpr>(&E);
      std::initializer_list<ExprRef> Ops = {B->lhs(), B->rhs()};
      commutative("(*", Ops.begin(), Ops.size());
      return;
    }
    case Expr::Kind::Add:
    case Expr::Kind::Sub:
    case Expr::Kind::Div:
    case Expr::Kind::Mod: {
      // Add and Sub are only reachable inside opaque subtrees (the
      // linearizer opens +/- at the top level); they go back through the
      // linear form for normalization like every operand.
      const auto *B = cast<BinaryExpr>(&E);
      Out += E.kind() == Expr::Kind::Add   ? "(+ "
             : E.kind() == Expr::Kind::Sub ? "(- "
             : E.kind() == Expr::Kind::Div ? "(div "
                                           : "(mod ";
      expr(B->lhs());
      Out += ' ';
      expr(B->rhs());
      Out += ')';
      return;
    }
    case Expr::Kind::Min:
    case Expr::Kind::Max: {
      // min/max are commutative and associative; sorted operands make
      // min(n, m) and min(m, n) agree.
      const std::vector<ExprRef> &Ops = cast<MinMaxExpr>(&E)->operands();
      commutative(E.kind() == Expr::Kind::Min ? "(min" : "(max", Ops.data(),
                  Ops.size());
      return;
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(&E);
      Out += "(call ";
      Out += C->callee();
      for (const ExprRef &A : C->args()) {
        Out += ' ';
        expr(A);
      }
      Out += ')';
      return;
    }
    }
    Out += '?';
  }

  std::string &Out;
  std::vector<Slot> Renames;
  /// A stack of pending renderings: each sorted group uses the top, and
  /// nested groups push above it.
  std::vector<Span> Spans;
};

} // namespace

std::string irlt::canonicalNestKey(const LoopNest &Nest) {
  std::string Out;
  Out.reserve(512); // most keys fit, so the buffer rarely regrows
  KeyWriter W(Nest, Out);
  Out += "nest/v1;loops=";
  W.integer(Nest.numLoops());
  Out += ';';
  for (unsigned K = 0; K < Nest.numLoops(); ++K) {
    const Loop &L = Nest.Loops[K];
    Out += L.Kind == LoopKind::ParDo ? "pardo @" : "do @";
    W.integer(K);
    Out += " lb=";
    W.expr(L.Lower);
    Out += " ub=";
    W.expr(L.Upper);
    Out += " st=";
    W.expr(L.Step);
    Out += ';';
  }
  // The body-index-variable tuple identifies execution instances; record
  // which loop position (or $-slot) each element maps to.
  Out += "bodyvars=";
  for (size_t K = 0; K < Nest.BodyIndexVars.size(); ++K) {
    if (K)
      Out += ',';
    W.name(Nest.BodyIndexVars[K]);
  }
  Out += ';';
  for (const InitStmt &I : Nest.Inits) {
    Out += "init ";
    W.name(I.Var);
    Out += '=';
    W.expr(I.Value);
    Out += ';';
  }
  for (const AssignStmt &S : Nest.Body) {
    Out += S.LHS.Array;
    Out += '(';
    for (size_t K = 0; K < S.LHS.Subscripts.size(); ++K) {
      if (K)
        Out += ',';
      W.expr(S.LHS.Subscripts[K]);
    }
    Out += ")=";
    W.expr(S.RHS);
    Out += ';';
  }
  // Array-name registry: membership decides what counts as an array read.
  Out += "arrays=";
  bool FirstArr = true;
  for (const std::string &A : Nest.ArrayNames) {
    if (!FirstArr)
      Out += ',';
    Out += A;
    FirstArr = false;
  }
  return Out;
}

uint64_t irlt::structuralNestHash(const LoopNest &Nest) {
  std::string Key = canonicalNestKey(Nest);
  uint64_t H = 1469598103934665603ULL; // FNV offset basis
  for (char C : Key) {
    H ^= static_cast<unsigned char>(C);
    H *= 1099511628211ULL; // FNV prime
  }
  return H;
}
