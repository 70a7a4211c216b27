//===- cgen/Cgen.cpp - Native differential program emission ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cgen/Cgen.h"

#include "codegen/CEmitter.h"
#include "eval/Evaluator.h"
#include "support/MathUtils.h"
#include "support/Printing.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <set>

using namespace irlt;
using namespace irlt::cgen;

namespace {

//===----------------------------------------------------------------------===//
// Expression walking
//===----------------------------------------------------------------------===//

void walkExpr(const ExprRef &E, const std::function<void(const Expr &)> &Fn) {
  if (!E)
    return;
  Fn(*E);
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
    walkExpr(B->lhs(), Fn);
    walkExpr(B->rhs(), Fn);
    return;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      walkExpr(Op, Fn);
    return;
  case Expr::Kind::Call:
    for (const ExprRef &A : cast<CallExpr>(E.get())->args())
      walkExpr(A, Fn);
    return;
  }
}

void walkNestExprs(const LoopNest &Nest,
                   const std::function<void(const Expr &)> &Fn) {
  for (const Loop &L : Nest.Loops) {
    walkExpr(L.Lower, Fn);
    walkExpr(L.Upper, Fn);
    walkExpr(L.Step, Fn);
  }
  for (const InitStmt &I : Nest.Inits)
    walkExpr(I.Value, Fn);
  for (const AssignStmt &S : Nest.Body) {
    for (const ExprRef &Sub : S.LHS.Subscripts)
      walkExpr(Sub, Fn);
    walkExpr(S.RHS, Fn);
  }
}

/// Opaque (non-array) callees appearing anywhere in the nest.
std::set<std::string> opaqueCallees(const LoopNest &Nest) {
  std::set<std::string> Out;
  walkNestExprs(Nest, [&](const Expr &E) {
    if (const auto *C = dyn_cast<CallExpr>(&E))
      if (!Nest.ArrayNames.count(C->callee()))
        Out.insert(C->callee());
  });
  return Out;
}

bool isEmittableOpaque(const std::string &Name) {
  return Name == "sqrt" || Name == "abs" || Name == "sgn";
}

//===----------------------------------------------------------------------===//
// Interval analysis over bound and subscript expressions
//===----------------------------------------------------------------------===//

/// Values are clamped to +/- 2^40: large enough for any emittable shape
/// (the cell cap rejects anything near it) and small enough that sums
/// and corner products below stay inside __int128 trivially.
constexpr int64_t IntervalLimit = int64_t(1) << 40;

int64_t clampToLimit(__int128 V) {
  if (V > IntervalLimit)
    return IntervalLimit;
  if (V < -IntervalLimit)
    return -IntervalLimit;
  return static_cast<int64_t>(V);
}

struct Interval {
  int64_t Lo = 0, Hi = 0;
};

Interval hull(Interval A, Interval B) {
  return {std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

/// Flooring division on interval-clamped values (magnitudes < 2^41, so
/// the arithmetic cannot overflow int64).
int64_t floorDivSmall(int64_t A, int64_t B) {
  int64_t Q = A / B, R = A % B;
  return (R != 0 && ((R < 0) != (B < 0))) ? Q - 1 : Q;
}

std::optional<Interval>
evalInterval(const ExprRef &E, const std::map<std::string, Interval> &Env) {
  switch (E->kind()) {
  case Expr::Kind::IntConst: {
    int64_t V = clampToLimit(cast<IntConstExpr>(E.get())->value());
    return Interval{V, V};
  }
  case Expr::Kind::Var: {
    auto It = Env.find(cast<VarExpr>(E.get())->name());
    if (It == Env.end())
      return std::nullopt;
    return It->second;
  }
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul: {
    const auto *B = cast<BinaryExpr>(E.get());
    auto L = evalInterval(B->lhs(), Env);
    auto R = evalInterval(B->rhs(), Env);
    if (!L || !R)
      return std::nullopt;
    if (E->kind() == Expr::Kind::Add)
      return Interval{clampToLimit(__int128(L->Lo) + R->Lo),
                      clampToLimit(__int128(L->Hi) + R->Hi)};
    if (E->kind() == Expr::Kind::Sub)
      return Interval{clampToLimit(__int128(L->Lo) - R->Hi),
                      clampToLimit(__int128(L->Hi) - R->Lo)};
    __int128 C[4] = {__int128(L->Lo) * R->Lo, __int128(L->Lo) * R->Hi,
                     __int128(L->Hi) * R->Lo, __int128(L->Hi) * R->Hi};
    __int128 Lo = C[0], Hi = C[0];
    for (__int128 V : C) {
      Lo = std::min(Lo, V);
      Hi = std::max(Hi, V);
    }
    return Interval{clampToLimit(Lo), clampToLimit(Hi)};
  }
  case Expr::Kind::Div: {
    const auto *B = cast<BinaryExpr>(E.get());
    auto L = evalInterval(B->lhs(), Env);
    auto R = evalInterval(B->rhs(), Env);
    if (!L || !R || (R->Lo <= 0 && R->Hi >= 0))
      return std::nullopt;
    // Flooring division is monotone in the numerator and endpoint-
    // extremal in a sign-definite denominator: corners suffice.
    int64_t C[4] = {
        floorDivSmall(L->Lo, R->Lo), floorDivSmall(L->Lo, R->Hi),
        floorDivSmall(L->Hi, R->Lo), floorDivSmall(L->Hi, R->Hi)};
    return Interval{*std::min_element(C, C + 4), *std::max_element(C, C + 4)};
  }
  case Expr::Kind::Mod: {
    const auto *B = cast<BinaryExpr>(E.get());
    auto R = evalInterval(B->rhs(), Env);
    if (!R || (R->Lo <= 0 && R->Hi >= 0))
      return std::nullopt;
    if (!evalInterval(B->lhs(), Env))
      return std::nullopt;
    // The flooring modulus takes the divisor's sign.
    if (R->Lo > 0)
      return Interval{0, R->Hi - 1};
    return Interval{R->Lo + 1, 0};
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    std::optional<Interval> Acc;
    for (const ExprRef &Op : M->operands()) {
      auto V = evalInterval(Op, Env);
      if (!V)
        return std::nullopt;
      if (!Acc) {
        Acc = V;
        continue;
      }
      if (M->isMin())
        Acc = Interval{std::min(Acc->Lo, V->Lo), std::min(Acc->Hi, V->Hi)};
      else
        Acc = Interval{std::max(Acc->Lo, V->Lo), std::max(Acc->Hi, V->Hi)};
    }
    return Acc;
  }
  case Expr::Kind::Call:
    return std::nullopt; // uninterpreted: fall back to the probe
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Shape bookkeeping
//===----------------------------------------------------------------------===//

/// All array references of the nest (writes then reads).
std::vector<ArrayRef> allArrayRefs(const LoopNest &Nest) {
  std::vector<ArrayRef> Refs;
  Nest.collectWrites(Refs);
  Nest.collectReads(Refs);
  return Refs;
}

/// Per-array arity from the syntactic references; fails on disagreement
/// (such an array cannot be bound to one C macro).
ErrorOr<std::map<std::string, unsigned>> arrayArities(const LoopNest &Nest) {
  std::map<std::string, unsigned> Arity;
  for (const ArrayRef &R : allArrayRefs(Nest)) {
    unsigned N = static_cast<unsigned>(R.Subscripts.size());
    auto [It, Fresh] = Arity.emplace(R.Array, N);
    if (!Fresh && It->second != N)
      return Failure("array " + R.Array +
                     " is referenced with inconsistent arities");
  }
  return Arity;
}

std::vector<ArrayShape>
finishShapes(std::map<std::string, std::vector<Interval>> &Ranges) {
  std::vector<ArrayShape> Out;
  for (auto &[Name, Dims] : Ranges) {
    ArrayShape S;
    S.Name = Name;
    for (const Interval &I : Dims) {
      S.Lower.push_back(I.Lo);
      S.Extent.push_back(I.Hi - I.Lo + 1);
    }
    Out.push_back(std::move(S));
  }
  return Out; // map iteration: already name-sorted
}

/// Total opaque functions matching the emitted C helpers exactly (the
/// evaluator's builtins assert on negative sqrt; the harness cannot).
std::map<std::string, OpaqueFn> totalOpaqueFuncs() {
  std::map<std::string, OpaqueFn> F;
  F["sqrt"] = [](const std::vector<int64_t> &A) -> int64_t {
    if (A.size() != 1 || A[0] <= 0)
      return 0;
    return static_cast<int64_t>(std::sqrt(static_cast<double>(A[0])));
  };
  F["abs"] = [](const std::vector<int64_t> &A) -> int64_t {
    if (A.size() != 1)
      return 0;
    return A[0] < 0 ? -A[0] : A[0];
  };
  F["sgn"] = [](const std::vector<int64_t> &A) -> int64_t {
    if (A.size() != 1)
      return 0;
    return (A[0] > 0) - (A[0] < 0);
  };
  return F;
}

uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Flat cell -> subscript tuple under a row-major shape.
std::vector<int64_t> unflatten(uint64_t Flat, const ArrayShape &S) {
  std::vector<int64_t> Subs(S.Lower.size());
  for (size_t D = S.Lower.size(); D-- > 0;) {
    uint64_t E = static_cast<uint64_t>(S.Extent[D]);
    Subs[D] = S.Lower[D] + static_cast<int64_t>(Flat % E);
    Flat /= E;
  }
  return Subs;
}

uint64_t checksumStore(const ArrayStore &Store,
                       const std::vector<ArrayShape> &Sorted) {
  uint64_t H = 14695981039346656037ULL;
  for (const ArrayShape &S : Sorted) {
    uint64_t N = S.cells();
    for (uint64_t Flat = 0; Flat < N; ++Flat) {
      H ^= static_cast<uint64_t>(Store.read(S.Name, unflatten(Flat, S)));
      H *= 1099511628211ULL;
    }
  }
  return H;
}

std::string bindingComment(const std::map<std::string, int64_t> &B) {
  std::string S;
  for (const auto &[K, V] : B)
    S += (S.empty() ? "" : " ") + K + "=" + std::to_string(V);
  return S.empty() ? "(none)" : S;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public shape inference
//===----------------------------------------------------------------------===//

ErrorOr<std::vector<ArrayShape>>
irlt::cgen::inferShapes(const LoopNest &Nest,
                        const std::map<std::string, int64_t> &Bindings) {
  ErrorOr<std::map<std::string, unsigned>> Arity = arrayArities(Nest);
  if (!Arity)
    return Failure(Arity.takeDiags());

  std::map<std::string, Interval> Env;
  for (const auto &[K, V] : Bindings)
    Env[K] = Interval{V, V};
  for (const Loop &L : Nest.Loops) {
    auto Lo = evalInterval(L.Lower, Env);
    auto Up = evalInterval(L.Upper, Env);
    if (!Lo || !Up)
      return Failure("bounds of loop " + L.IndexVar +
                     " are not interval-evaluable");
    // The loop variable starts at the lower bound and moves toward the
    // upper bound, so regardless of the step's sign its values lie in
    // the hull of the two bound intervals.
    Env[L.IndexVar] = hull(*Lo, *Up);
  }
  for (const InitStmt &I : Nest.Inits) {
    auto V = evalInterval(I.Value, Env);
    if (!V)
      return Failure("initialization of " + I.Var +
                     " is not interval-evaluable");
    Env[I.Var] = *V;
  }

  std::map<std::string, std::vector<Interval>> Ranges;
  for (const ArrayRef &R : allArrayRefs(Nest)) {
    auto It = Ranges.find(R.Array);
    bool Fresh = It == Ranges.end();
    if (Fresh)
      It = Ranges.emplace(R.Array, std::vector<Interval>(R.Subscripts.size()))
               .first;
    for (size_t D = 0; D < R.Subscripts.size(); ++D) {
      auto V = evalInterval(R.Subscripts[D], Env);
      if (!V)
        return Failure("subscript " + std::to_string(D + 1) + " of " +
                       R.Array + " is not interval-evaluable");
      It->second[D] = Fresh ? *V : hull(It->second[D], *V);
    }
  }
  return finishShapes(Ranges);
}

ErrorOr<std::vector<ArrayShape>>
irlt::cgen::probeShapes(const LoopNest &Nest,
                        const std::map<std::string, int64_t> &Bindings,
                        uint64_t MaxInstances) {
  std::string Reason = checkEmittable(Nest);
  if (!Reason.empty())
    return Failure("shape probe: " + Reason);

  EvalConfig EC;
  EC.Params = Bindings;
  EC.Funcs = totalOpaqueFuncs();
  EC.RecordTrace = false;
  EC.RecordAccesses = true;
  EC.MaxInstances = MaxInstances;

  ArrayStore Store;
  EvalResult R;
  {
    OverflowGuard G;
    R = evaluate(Nest, EC, Store);
    if (G.triggered())
      return Failure("shape probe: evaluation arithmetic overflowed");
  }
  if (R.LimitHit)
    return Failure("shape probe: " + R.LimitReason);

  std::map<std::string, std::vector<Interval>> Ranges;
  for (const MemAccess &A : R.Accesses) {
    auto It = Ranges.find(A.Array);
    bool Fresh = It == Ranges.end();
    if (Fresh)
      It = Ranges.emplace(A.Array, std::vector<Interval>(A.Subs.size()))
               .first;
    for (size_t D = 0; D < A.Subs.size(); ++D) {
      Interval P{A.Subs[D], A.Subs[D]};
      It->second[D] = Fresh ? P : hull(It->second[D], P);
    }
  }
  // Arrays referenced syntactically but never executed (zero-trip
  // loops): one dummy cell so their macros still compile and index.
  ErrorOr<std::map<std::string, unsigned>> Arity = arrayArities(Nest);
  if (!Arity)
    return Failure(Arity.takeDiags());
  for (const auto &[Name, N] : *Arity)
    if (!Ranges.count(Name))
      Ranges.emplace(Name, std::vector<Interval>(N));
  return finishShapes(Ranges);
}

ErrorOr<std::vector<ArrayShape>>
irlt::cgen::arrayShapes(const LoopNest &Nest,
                        const std::map<std::string, int64_t> &Bindings,
                        uint64_t ProbeMaxInstances) {
  ErrorOr<std::vector<ArrayShape>> S = inferShapes(Nest, Bindings);
  if (S)
    return S;
  return probeShapes(Nest, Bindings, ProbeMaxInstances);
}

//===----------------------------------------------------------------------===//
// Emission
//===----------------------------------------------------------------------===//

std::string irlt::cgen::checkEmittable(const LoopNest &Nest) {
  if (Nest.Loops.empty())
    return "nest has no loops";
  for (const std::string &Callee : opaqueCallees(Nest))
    if (!isEmittableOpaque(Callee))
      return "opaque call '" + Callee +
             "' has no C lowering (only sqrt/abs/sgn do)";
  ErrorOr<std::map<std::string, unsigned>> Arity = arrayArities(Nest);
  if (!Arity)
    return Arity.message();
  for (const auto &[Name, N] : *Arity)
    if (N == 0)
      return "array " + Name + " is referenced with no subscripts";
  return "";
}

int64_t irlt::cgen::seededCell(uint64_t Seed, uint64_t ArrayIdx,
                               uint64_t Flat) {
  return static_cast<int64_t>(mix64(Seed ^ ((ArrayIdx + 1) << 32) ^ Flat) %
                              127) -
         63;
}

namespace {

/// Unbound free parameters of \p Nest under \p B, rendered for a
/// diagnostic; empty when all are bound.
std::string unboundParams(const LoopNest &Nest,
                          const std::map<std::string, int64_t> &B) {
  std::string Missing;
  for (const std::string &P : freeParameters(Nest))
    if (!B.count(P))
      Missing += (Missing.empty() ? "" : ", ") + P;
  return Missing;
}

std::string callArgs(const LoopNest &Nest,
                     const std::map<std::string, int64_t> &B) {
  std::vector<std::string> Args;
  for (const std::string &P : freeParameters(Nest))
    Args.push_back(std::to_string(B.at(P)));
  return join(Args, ", ");
}

} // namespace

namespace {

/// Appends the part of a program that runs the pair under one binding:
/// storage, accessors and macros for \p Sorted, seeding, checksum, both
/// kernels and the section's main. Every symbol it defines starts with
/// \p Prefix; the empty prefix writes a one-section program's `main`.
void emitSection(std::string &P, const std::string &Prefix,
                 const LoopNest &Original, const LoopNest *Transformed,
                 const ProgramSection &Section,
                 const std::vector<ArrayShape> &Sorted,
                 const ProgramOptions &Options) {
  auto L = [&P](const std::string &Line) { P += Line + "\n"; };
  auto Sym = [&Prefix](const std::string &Name) { return Prefix + Name; };
  uint64_t TotalCells = 0;
  for (const ArrayShape &S : Sorted)
    TotalCells += S.cells();

  L("");
  if (!Prefix.empty())
    L("/* Section " + Prefix + ": bindings " +
      bindingComment(Section.Bindings) + " */");
  L("static uint64_t " + Sym("irlt_oob") + " = 0;");
  L("static int64_t " + Sym("irlt_sink") + " = 0;");

  // Per-array storage, bounds-checked accessor, and access macro.
  for (const ArrayShape &S : Sorted) {
    std::string Cells = std::to_string(S.cells());
    std::string Dims;
    for (size_t D = 0; D < S.Lower.size(); ++D)
      Dims += (D ? " x " : "") + std::string("[") +
              std::to_string(S.Lower[D]) + ", " +
              std::to_string(S.Lower[D] + S.Extent[D] - 1) + "]";
    std::string Buf = Sym("irlt_buf_" + S.Name);
    std::string At = Sym("irlt_at_" + S.Name);
    L("");
    L("/* " + S.Name + ": " + Dims + " (" + Cells + " cells, row-major);");
    L(" * out-of-shape accesses go to the sink and are counted. */");
    L("static int64_t " + Buf + "[" + Cells + "];");
    L("static int64_t " + Sym("irlt_ref_" + S.Name) + "[" + Cells + "];");
    std::string Params;
    for (size_t D = 0; D < S.Lower.size(); ++D)
      Params += std::string(D ? ", " : "") + "int64_t s" + std::to_string(D);
    L("static inline int64_t *" + At + "(" + Params + ") {");
    std::string Check;
    for (size_t D = 0; D < S.Lower.size(); ++D) {
      std::string V = "s" + std::to_string(D);
      std::string Lo = std::to_string(S.Lower[D]);
      std::string Hi = std::to_string(S.Lower[D] + S.Extent[D] - 1);
      Check += (D ? " || " : "") + V + " < " + Lo + " || " + V + " > " + Hi;
    }
    L("  if (" + Check + ") {");
    L("#if defined(_OPENMP)");
    L("#pragma omp atomic");
    L("#endif");
    L("    ++" + Sym("irlt_oob") + ";");
    L("    return &" + Sym("irlt_sink") + ";");
    L("  }");
    // Row-major flattening: ((s0-L0)*E1 + (s1-L1))*E2 + ...
    std::string Index;
    for (size_t D = 0; D < S.Lower.size(); ++D) {
      std::string Term = "(uint64_t)(s" + std::to_string(D) + " - (" +
                         std::to_string(S.Lower[D]) + "))";
      if (D == 0)
        Index = Term;
      else
        Index = "(" + Index + ") * " + std::to_string(S.Extent[D]) + "ULL + " +
                Term;
    }
    L("  return &" + Buf + "[" + Index + "];");
    L("}");
    std::string MacroParams;
    for (size_t D = 0; D < S.Lower.size(); ++D)
      MacroParams += std::string(D ? ", " : "") + "s" + std::to_string(D);
    L("#define " + S.Name + "(" + MacroParams + ") (*" + At + "(" +
      MacroParams + "))");
  }

  std::string Seed = Sym("IRLT_SEED");
  std::string SeedArrays = Sym("irlt_seed_arrays");
  std::string Checksum = Sym("irlt_checksum");
  std::string NowNs = Sym("irlt_now_ns");
  std::string Oob = Sym("irlt_oob");
  L("");
  L("static const uint64_t " + Seed + " = " + std::to_string(Options.Seed) +
    "ULL;");
  L("");
  L("static void " + SeedArrays + "(void) {");
  L("  uint64_t i;");
  for (size_t A = 0; A < Sorted.size(); ++A) {
    const ArrayShape &S = Sorted[A];
    L("  for (i = 0; i < " + std::to_string(S.cells()) + "ULL; ++i)");
    L("    " + Sym("irlt_buf_" + S.Name) + "[i] = (int64_t)(irlt_mix(" +
      Seed + " ^ ((" + std::to_string(A) +
      "ULL + 1ULL) << 32) ^ i) % 127) - 63;");
  }
  L("}");
  L("");
  L("/* FNV-1a over every cell of every array, in sorted array order;");
  L(" * mirrored by the interpreter-side checksum (cgen/Cgen.h). */");
  L("static uint64_t " + Checksum + "(void) {");
  L("  uint64_t h = 14695981039346656037ULL;");
  L("  uint64_t i;");
  for (const ArrayShape &S : Sorted) {
    L("  for (i = 0; i < " + std::to_string(S.cells()) + "ULL; ++i) {");
    L("    h ^= (uint64_t)" + Sym("irlt_buf_" + S.Name) + "[i];");
    L("    h *= 1099511628211ULL;");
    L("  }");
  }
  L("  return h;");
  L("}");
  L("");
  L("static uint64_t " + NowNs + "(void) {");
  L("  struct timespec ts;");
  L("  clock_gettime(CLOCK_MONOTONIC, &ts);");
  L("  return (uint64_t)ts.tv_sec * 1000000000ULL + (uint64_t)ts.tv_nsec;");
  L("}");
  L("");

  std::string OriginalFn = Sym("irlt_original");
  std::string TransformedFn = Sym("irlt_transformed");
  CEmitOptions KO;
  KO.EmitHelpers = false;
  KO.UseOpenMP = Options.UseOpenMP;
  KO.FunctionName = OriginalFn;
  P += emitC(Original, KO);
  if (Transformed) {
    L("");
    KO.FunctionName = TransformedFn;
    P += emitC(*Transformed, KO);
  }

  std::string OrigCall =
      OriginalFn + "(" + callArgs(Original, Section.Bindings) + ");";
  std::string XformCall =
      Transformed
          ? TransformedFn + "(" + callArgs(*Transformed, Section.Bindings) +
                ");"
          : "";

  L("");
  L((Prefix.empty() ? "int " : "static int ") + Sym("main") + "(void) {");
  L("  int match = 1;");
  L("  " + Oob + " = 0;");
  L("  " + SeedArrays + "();");
  L("  " + OrigCall);
  L("  uint64_t ck_original = " + Checksum + "();");
  L("  uint64_t oob_original = " + Oob + ";");
  for (const ArrayShape &S : Sorted) {
    std::string Buf = Sym("irlt_buf_" + S.Name);
    L("  memcpy(" + Sym("irlt_ref_" + S.Name) + ", " + Buf + ", sizeof(" +
      Buf + "));");
  }
  L("  uint64_t ck_transformed = ck_original;");
  L("  uint64_t oob_transformed = oob_original;");
  if (Transformed) {
    L("  " + Oob + " = 0;");
    L("  " + SeedArrays + "();");
    L("  " + XformCall);
    L("  ck_transformed = " + Checksum + "();");
    L("  oob_transformed = " + Oob + ";");
    L("  if (ck_transformed != ck_original)");
    L("    match = 0;");
    L("  if (oob_transformed != oob_original)");
    L("    match = 0;");
    for (const ArrayShape &S : Sorted) {
      std::string Buf = Sym("irlt_buf_" + S.Name);
      L("  if (memcmp(" + Buf + ", " + Sym("irlt_ref_" + S.Name) +
        ", sizeof(" + Buf + ")) != 0)");
      L("    match = 0;");
    }
  }
  L("  uint64_t ns_original = 0;");
  L("  uint64_t ns_transformed = 0;");
  if (Options.TimingReps > 0) {
    std::string Reps = std::to_string(Options.TimingReps);
    L("  {");
    L("    int r;");
    L("    for (r = 0; r < " + Reps + "; ++r) {");
    L("      " + SeedArrays + "();");
    L("      uint64_t t0 = " + NowNs + "();");
    L("      " + OrigCall);
    L("      uint64_t t1 = " + NowNs + "();");
    L("      if (ns_original == 0 || t1 - t0 < ns_original)");
    L("        ns_original = t1 - t0;");
    L("    }");
    if (Transformed) {
      L("    for (r = 0; r < " + Reps + "; ++r) {");
      L("      " + SeedArrays + "();");
      L("      uint64_t t0 = " + NowNs + "();");
      L("      " + XformCall);
      L("      uint64_t t1 = " + NowNs + "();");
      L("      if (ns_transformed == 0 || t1 - t0 < ns_transformed)");
      L("        ns_transformed = t1 - t0;");
    L("    }");
    }
    L("  }");
  } else {
    L("  (void)" + NowNs + ";");
  }
  L("  int threads = 1;");
  L("#if defined(_OPENMP)");
  L("  threads = omp_get_max_threads();");
  L("#endif");
  L("  printf(\"IRLT_RESULT {\\\"schema_version\\\":1,"
    "\\\"record\\\":\\\"native-run\\\",\"");
  L("         \"\\\"match\\\":%s,\"");
  L("         \"\\\"checksum_original\\\":\\\"0x%016\" PRIx64 \"\\\",\"");
  L("         \"\\\"checksum_transformed\\\":\\\"0x%016\" PRIx64 \"\\\",\"");
  L("         \"\\\"oob_original\\\":%\" PRIu64 \","
    "\\\"oob_transformed\\\":%\" PRIu64 \",\"");
  L("         \"\\\"cells\\\":" + std::to_string(TotalCells) +
    ",\\\"reps\\\":" + std::to_string(Options.TimingReps) + ",\"");
  L("         \"\\\"ns_original\\\":%\" PRIu64 \","
    "\\\"ns_transformed\\\":%\" PRIu64 \",\\\"threads\\\":%d}\\n\",");
  L("         match ? \"true\" : \"false\", ck_original, ck_transformed,");
  L("         oob_original, oob_transformed, ns_original, ns_transformed,");
  L("         threads);");
  L("  return match ? 0 : 7;");
  L("}");
  // The next section binds the same array names to its own storage.
  if (!Prefix.empty())
    for (const ArrayShape &S : Sorted)
      L("#undef " + S.Name);
}

} // namespace

ErrorOr<std::string>
irlt::cgen::emitProgram(const LoopNest &Original, const LoopNest *Transformed,
                        const std::vector<ArrayShape> &Shapes,
                        const ProgramOptions &Options) {
  return emitProgram(Original, Transformed, {{Options.Bindings, Shapes}},
                     Options);
}

ErrorOr<std::string>
irlt::cgen::emitProgram(const LoopNest &Original, const LoopNest *Transformed,
                        const std::vector<ProgramSection> &Sections,
                        const ProgramOptions &Options) {
  if (Sections.empty())
    return Failure("no sections to emit");
  std::string Reason = checkEmittable(Original);
  if (!Reason.empty())
    return Failure("original nest not emittable: " + Reason);
  if (Transformed) {
    Reason = checkEmittable(*Transformed);
    if (!Reason.empty())
      return Failure("transformed nest not emittable: " + Reason);
  }
  std::vector<std::vector<ArrayShape>> Sorted;
  for (const ProgramSection &Section : Sections) {
    std::string Missing = unboundParams(Original, Section.Bindings);
    if (Missing.empty() && Transformed)
      Missing = unboundParams(*Transformed, Section.Bindings);
    if (!Missing.empty())
      return Failure("unbound scalar parameter(s): " + Missing +
                     " (pass --bind)");

    std::vector<ArrayShape> &Shapes = Sorted.emplace_back(Section.Shapes);
    std::sort(Shapes.begin(), Shapes.end(),
              [](const ArrayShape &A, const ArrayShape &B) {
                return A.Name < B.Name;
              });
    for (const ArrayShape &S : Shapes) {
      if (S.Lower.empty())
        return Failure("array " + S.Name + " has an empty shape");
      if (S.cells() > Options.MaxCells)
        return Failure("array " + S.Name + " needs " +
                       std::to_string(S.cells()) +
                       " cells, above the cap of " +
                       std::to_string(Options.MaxCells));
    }
  }

  std::set<std::string> Opaques = opaqueCallees(Original);
  if (Transformed) {
    std::set<std::string> T = opaqueCallees(*Transformed);
    Opaques.insert(T.begin(), T.end());
  }

  std::string P;
  auto L = [&P](const std::string &Line) { P += Line + "\n"; };
  bool One = Sections.size() == 1;
  auto prefixOf = [One](size_t I) {
    return One ? std::string() : "b" + std::to_string(I) + "_";
  };

  L("/* Generated by irlt-cgen: differential native harness for the");
  L(" * PLDI'92 iteration-reordering framework (docs/CODEGEN.md).");
  if (One) {
    L(" * seed=" + std::to_string(Options.Seed) +
      " bindings: " + bindingComment(Sections[0].Bindings) +
      " reps=" + std::to_string(Options.TimingReps));
  } else {
    L(" * seed=" + std::to_string(Options.Seed) +
      " reps=" + std::to_string(Options.TimingReps) +
      ", one section per binding:");
    for (size_t I = 0; I < Sections.size(); ++I)
      L(" *   " + prefixOf(I) + ": " + bindingComment(Sections[I].Bindings));
  }
  L(" * Exit status: 0 = checksums and memory images match, 7 = mismatch.");
  if (One) {
    L(" * Machine-readable verdict: the IRLT_RESULT line on stdout. */");
  } else {
    L(" * Machine-readable verdict: one IRLT_RESULT line per section on");
    L(" * stdout, in order; the first section that does not match ends");
    L(" * the run with its exit status. */");
  }
  L("#include <inttypes.h>");
  L("#include <stdint.h>");
  L("#include <stdio.h>");
  L("#include <string.h>");
  L("#include <time.h>");
  L("#if defined(_OPENMP)");
  L("#include <omp.h>");
  L("#endif");
  L("");
  L("/* Flooring division/modulus (the framework's div and mod). */");
  L("static inline int64_t irlt_floordiv(int64_t a, int64_t b) {");
  L("  int64_t q = a / b, r = a % b;");
  L("  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;");
  L("}");
  L("static inline int64_t irlt_floormod(int64_t a, int64_t b) {");
  L("  return a - irlt_floordiv(a, b) * b;");
  L("}");
  L("static inline int64_t irlt_min(int64_t a, int64_t b) {");
  L("  return a < b ? a : b;");
  L("}");
  L("static inline int64_t irlt_max(int64_t a, int64_t b) {");
  L("  return a > b ? a : b;");
  L("}");
  if (Opaques.count("sqrt")) {
    L("static inline int64_t irlt_isqrt(int64_t a) {");
    L("  return a <= 0 ? 0 : (int64_t)__builtin_sqrt((double)a);");
    L("}");
    L("#define sqrt(a) irlt_isqrt(a)");
  }
  if (Opaques.count("abs")) {
    L("static inline int64_t irlt_iabs(int64_t a) { return a < 0 ? -a : a; }");
    L("#define abs(a) irlt_iabs(a)");
  }
  if (Opaques.count("sgn")) {
    L("static inline int64_t irlt_isgn(int64_t a) {");
    L("  return (a > 0) - (a < 0);");
    L("}");
    L("#define sgn(a) irlt_isgn(a)");
  }
  L("");
  L("/* splitmix64: the deterministic (seed, array, cell) value stream,");
  L(" * mirrored by cgen::seededCell on the interpreter side. */");
  L("static inline uint64_t irlt_mix(uint64_t x) {");
  L("  x += 0x9e3779b97f4a7c15ULL;");
  L("  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;");
  L("  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;");
  L("  return x ^ (x >> 31);");
  L("}");

  for (size_t I = 0; I < Sections.size(); ++I)
    emitSection(P, prefixOf(I), Original, Transformed, Sections[I], Sorted[I],
                Options);
  if (One)
    return P;

  // Each section's line reaches the pipe before the next section starts,
  // so a later crash or timeout cannot take an earlier verdict with it.
  std::string Mains;
  for (size_t I = 0; I < Sections.size(); ++I)
    Mains += (I ? ", " : "") + prefixOf(I) + "main";
  L("");
  L("int main(void) {");
  L("  static int (*const sections[])(void) = {" + Mains + "};");
  L("  unsigned i;");
  L("  for (i = 0; i < " + std::to_string(Sections.size()) + "; ++i) {");
  L("    int status = sections[i]();");
  L("    fflush(stdout);");
  L("    if (status != 0)");
  L("      return status;");
  L("  }");
  L("  return 0;");
  L("}");
  return P;
}

//===----------------------------------------------------------------------===//
// Interpreted twin
//===----------------------------------------------------------------------===//

InterpChecksums irlt::cgen::interpretChecksums(
    const LoopNest &Original, const LoopNest *Transformed,
    const std::vector<ArrayShape> &Shapes, const ProgramOptions &Options,
    uint64_t MaxInstances) {
  InterpChecksums R;

  std::vector<ArrayShape> Sorted = Shapes;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const ArrayShape &A, const ArrayShape &B) {
              return A.Name < B.Name;
            });

  ArrayStore Seeded;
  for (size_t A = 0; A < Sorted.size(); ++A) {
    const ArrayShape &S = Sorted[A];
    uint64_t N = S.cells();
    if (N > Options.MaxCells) {
      R.Detail = "array " + S.Name + " above the cell cap";
      return R;
    }
    for (uint64_t Flat = 0; Flat < N; ++Flat)
      Seeded.write(S.Name, unflatten(Flat, S),
                   seededCell(Options.Seed, A, Flat));
  }

  EvalConfig EC;
  EC.Params = Options.Bindings;
  EC.Funcs = totalOpaqueFuncs();
  EC.RecordTrace = false;
  EC.MaxInstances = MaxInstances;

  auto runOne = [&](const LoopNest &Nest, uint64_t &ChecksumOut) {
    ArrayStore Store = Seeded;
    EvalResult E;
    {
      OverflowGuard G;
      E = evaluate(Nest, EC, Store);
      if (G.triggered()) {
        R.Overflow = true;
        R.Detail = "interpreted execution overflowed";
        return false;
      }
    }
    if (E.LimitHit) {
      R.BudgetExceeded = true;
      R.Detail = "interpreted execution " + E.LimitReason;
      return false;
    }
    ChecksumOut = checksumStore(Store, Sorted);
    return true;
  };

  if (!runOne(Original, R.Original))
    return R;
  R.Transformed = R.Original;
  if (Transformed && !runOne(*Transformed, R.Transformed))
    return R;
  R.Ok = true;
  return R;
}
