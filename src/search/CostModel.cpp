//===- search/CostModel.cpp - Simulated-locality cost model ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "search/CostModel.h"

#include "support/Casting.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace irlt;
using namespace irlt::search;

namespace {

/// Collects the callee names of every CallExpr in \p E.
void collectCallNames(const ExprRef &E, std::set<std::string> &Out) {
  if (!E)
    return;
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
    collectCallNames(B->lhs(), Out);
    collectCallNames(B->rhs(), Out);
    return;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max:
    for (const ExprRef &Op : cast<MinMaxExpr>(E.get())->operands())
      collectCallNames(Op, Out);
    return;
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    Out.insert(C->callee());
    for (const ExprRef &Arg : C->args())
      collectCallNames(Arg, Out);
    return;
  }
  }
}

/// Every expression of the nest, for whole-nest walks.
template <typename Fn> void forEachExpr(const LoopNest &Nest, Fn F) {
  for (const Loop &L : Nest.Loops) {
    F(L.Lower);
    F(L.Upper);
    F(L.Step);
  }
  for (const InitStmt &I : Nest.Inits)
    F(I.Value);
  for (const AssignStmt &S : Nest.Body) {
    for (const ExprRef &Sub : S.LHS.Subscripts)
      F(Sub);
    F(S.RHS);
  }
}

/// Names the evaluator resolves without user bindings.
bool isBuiltinFn(const std::string &Name) {
  return Name == "sqrt" || Name == "abs" || Name == "sgn";
}

//===----------------------------------------------------------------------===//
// The access stream: the transformed nest compiled once into slot-resolved
// code, then run twice - pass 1 records each array's subscript extents,
// pass 2 feeds each access's column-major address to the cache simulator.
//===----------------------------------------------------------------------===//

/// Operations of compiled expression code.
enum class Op : uint8_t {
  Const,  ///< C
  Load,   ///< the variable in slot A, bound wherever this node runs
  LoadOr, ///< slot A if bound, else parameter C (HasParam) or a fault
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  Read, ///< array read at access site A; the children are its subscripts
  Sqrt,
  Abs,
  Sgn,
  Fault, ///< runs its children, then records a fault (unbound callee)
};

/// One node of compiled code, in prefix order: a node's first child
/// follows it, and End (one past its subtree) is its next sibling.
struct Node {
  Op K = Op::Const;
  bool HasParam = false;
  uint32_t A = 0;
  uint32_t End = 0;
  int64_t C = 0;
};

/// One array reference of the nest: a read inside an expression or the
/// write of a statement.
struct Site {
  uint32_t Array = 0; ///< array id, in name order
  /// Offset of its subscripts' values in Scratch and of their pass-1
  /// ranges in Ranges.
  uint32_t First = 0;
  std::vector<uint32_t> Subs; ///< root node of each subscript
  // Pass 1: whether it ran.
  bool Executed = false;
  // Pass 2: Addr = Base + sum Stride[d] * sub[d] (mod 2^64).
  uint64_t Base = 0;
  std::vector<uint64_t> Stride;
  // ... with the affine subscripts folded into Base and per-slot weights,
  // and the remaining dimensions evaluated: (root, stride).
  uint64_t LinearBase = 0;
  std::vector<std::pair<uint32_t, uint64_t>> Terms;
  std::vector<std::pair<uint32_t, uint64_t>> TreeDims;
};

/// The values one subscript expression took in pass 1.
struct Range {
  uint32_t Root = 0;
  int64_t Lo = INT64_MAX, Hi = INT64_MIN;
};

struct LoopCode {
  uint32_t Slot = 0, Lower = 0, Upper = 0, Step = 0;
};

struct InitCode {
  uint32_t Slot = 0, Value = 0;
};

struct StmtCode {
  uint32_t Rhs = 0;
  uint32_t Write = 0; ///< site
};

/// Hash of a value-store key (array id, then subscripts).
struct KeyHash {
  size_t operator()(const std::vector<int64_t> &K) const {
    uint64_t H = 0x9e3779b97f4a7c15ull;
    for (int64_t V : K)
      H = (H ^ static_cast<uint64_t>(V)) * 0x100000001b3ull;
    return static_cast<size_t>(H ^ (H >> 29));
  }
};

/// Values of arrays whose layout is unknown (pass 1) or too large to hold
/// densely, keyed like ArrayStore: unwritten cells read 0.
using HashedStore = std::unordered_map<std::vector<int64_t>, int64_t, KeyHash>;

/// Dense pass-2 store bound: past it, pass 2 keys values by subscripts.
constexpr uint64_t MaxDenseElems = 1u << 21;

class AccessStream {
public:
  AccessStream(const LoopNest &Nest, const CostModelOptions &Opts,
               const OverflowGuard &Guard);

  /// The miss ratio of the nest's access stream, or nullopt when the run
  /// faults, exhausts the budget, or accesses an array with two arities.
  std::optional<double> missRatio();

private:
  enum class Pass : uint8_t { Extents, Stream };

  //===--- Compilation ----------------------------------------------------===
  uint32_t compile(const ExprRef &E, const std::set<std::string> &Bound);
  uint32_t newSite(const std::string &Array,
                   const std::vector<ExprRef> &Subs,
                   const std::set<std::string> &Bound);
  bool affine(uint32_t Root, uint64_t Scale, uint64_t &C0,
              std::map<uint32_t, uint64_t> &Coef) const;
  bool layOut();

  //===--- Execution ------------------------------------------------------===
  template <Pass P> void runLoop(unsigned Level);
  template <Pass P> void runBody();
  bool sweepInnermost(const LoopCode &L, int64_t Lo, int64_t Hi, int64_t St);
  void noteRanges();
  template <Pass P> int64_t eval(uint32_t I);
  template <Pass P> int64_t *evalSubs(Site &S);
  /// Performs one access at \p S - noting its subscripts (pass 1) or
  /// simulating its address (pass 2) - and returns the cell's value.
  template <Pass P> int64_t &access(Site &S);
  void noteExtents(Site &S, const int64_t *Subs);
  uint64_t addressOf(const Site &S, const int64_t *Subs) const;
  template <Pass P> uint64_t linearAddress(Site &S);
  std::vector<int64_t> &keyOf(const Site &S, const int64_t *Subs);
  bool stopped() const { return OverBudget || Guard.triggered(); }

  const CostModelOptions &Opts;
  const OverflowGuard &Guard;
  const std::set<std::string> &ArrayNames;
  std::map<std::string, uint32_t> Slots;
  std::vector<Node> Code;
  std::vector<Site> Sites;
  std::vector<std::string> SiteArrays; ///< array name per site
  std::vector<uint32_t> BodySites;     ///< every site of the statements
  /// The range of each subscript of each site, at Site::First + d.
  std::vector<Range> Ranges;
  std::vector<LoopCode> Loops;
  std::vector<InitCode> Inits;
  std::vector<StmtCode> Stmts;
  /// Some address or bound depends on array values, so pass 1 must
  /// compute values as well.
  bool ValueDependent = false;
  /// Value-independent, with affine inits and subscripts: pass 1 covers
  /// each activation of the innermost loop in closed form.
  bool AffineBody = false;

  std::vector<int64_t> Vals;
  std::vector<uint8_t> IsSet;
  std::vector<int64_t> Scratch;
  std::vector<int64_t> Key;
  uint64_t Headers = 0, Instances = 0;
  bool OverBudget = false;
  bool Dense = false;
  HashedStore Hashed;
  std::vector<int64_t> Mem; ///< dense values, indexed by address / 8
  CacheSim Sim;
};

AccessStream::AccessStream(const LoopNest &Nest, const CostModelOptions &Opts,
                           const OverflowGuard &Guard)
    : Opts(Opts), Guard(Guard), ArrayNames(Nest.ArrayNames), Sim(Opts.Cache) {
  // One slot per variable the nest assigns, as the interpreter keeps one
  // binding per name; parameters are constants.
  for (const Loop &L : Nest.Loops)
    Slots.emplace(L.IndexVar, static_cast<uint32_t>(Slots.size()));
  for (const InitStmt &I : Nest.Inits)
    Slots.emplace(I.Var, static_cast<uint32_t>(Slots.size()));

  // A variable reads its slot directly where it is certainly bound; the
  // interpreter unbinds a loop variable when its loop ends, so a bound
  // that names an inner loop's variable falls back like a lookup does.
  std::set<std::string> LoopVars;
  for (const Loop &L : Nest.Loops)
    LoopVars.insert(L.IndexVar);
  for (unsigned K = 0; K < Nest.numLoops(); ++K) {
    std::set<std::string> Bound;
    for (unsigned J = 0; J < K; ++J)
      Bound.insert(Nest.Loops[J].IndexVar);
    for (unsigned J = K; J < Nest.numLoops(); ++J)
      Bound.erase(Nest.Loops[J].IndexVar);
    const Loop &L = Nest.Loops[K];
    uint32_t Lower = compile(L.Lower, Bound);
    uint32_t Upper = compile(L.Upper, Bound);
    uint32_t Step = compile(L.Step, Bound);
    Loops.push_back({Slots.at(L.IndexVar), Lower, Upper, Step});
  }
  std::set<std::string> Bound = LoopVars;
  for (const InitStmt &I : Nest.Inits) {
    Inits.push_back({Slots.at(I.Var), compile(I.Value, Bound)});
    Bound.insert(I.Var);
  }
  ValueDependent = !Sites.empty(); // reads in bounds or inits
  for (const AssignStmt &S : Nest.Body) {
    size_t FirstSite = Sites.size();
    uint32_t Rhs = compile(S.RHS, Bound);
    uint32_t Write = newSite(S.LHS.Array, S.LHS.Subscripts, Bound);
    Stmts.push_back({Rhs, Write});
    for (size_t I = FirstSite; I < Sites.size(); ++I)
      BodySites.push_back(static_cast<uint32_t>(I));
  }

  // Array ids in name order: the layout declares arrays in that order.
  std::map<std::string, uint32_t> Ids;
  for (const std::string &A : SiteArrays)
    Ids.emplace(A, 0);
  uint32_t Next = 0;
  for (auto &[Name, Id] : Ids)
    Id = Next++;
  for (size_t I = 0; I < Sites.size(); ++I) {
    Site &S = Sites[I];
    S.Array = Ids.at(SiteArrays[I]);
    S.First = static_cast<uint32_t>(Ranges.size());
    for (uint32_t R : S.Subs) {
      Ranges.push_back({R});
      // A read inside a subscript makes addresses value-dependent.
      for (uint32_t N = R; N < Code[R].End; ++N)
        ValueDependent |= Code[N].K == Op::Read;
    }
  }
  auto isAffine = [&](uint32_t Root) {
    uint64_t C0 = 0;
    std::map<uint32_t, uint64_t> Coef;
    return affine(Root, 1, C0, Coef);
  };
  AffineBody = !ValueDependent;
  for (const InitCode &I : Inits)
    AffineBody &= isAffine(I.Value);
  for (const Range &R : Ranges)
    AffineBody &= isAffine(R.Root);
  Scratch.assign(Ranges.size(), 0);
  Vals.assign(Slots.size(), 0);
  IsSet.assign(Slots.size(), 0);
}

uint32_t AccessStream::compile(const ExprRef &E,
                               const std::set<std::string> &Bound) {
  uint32_t I = static_cast<uint32_t>(Code.size());
  Code.emplace_back();
  auto children = [&](const std::vector<ExprRef> &Ops) {
    for (const ExprRef &Op : Ops)
      compile(Op, Bound);
  };
  switch (E->kind()) {
  case Expr::Kind::IntConst:
    Code[I].C = cast<IntConstExpr>(E.get())->value();
    break;
  case Expr::Kind::Var: {
    const std::string &Name = cast<VarExpr>(E.get())->name();
    auto Slot = Slots.find(Name);
    auto Param = Opts.Params.find(Name);
    if (Slot != Slots.end() && Bound.count(Name)) {
      Code[I].K = Op::Load;
      Code[I].A = Slot->second;
    } else if (Slot != Slots.end()) {
      Code[I].K = Op::LoadOr;
      Code[I].A = Slot->second;
      Code[I].HasParam = Param != Opts.Params.end();
      Code[I].C = Code[I].HasParam ? Param->second : 0;
    } else if (Param != Opts.Params.end()) {
      Code[I].C = Param->second;
    } else {
      Code[I].K = Op::Fault; // unbound variable
    }
    break;
  }
  case Expr::Kind::Add:
  case Expr::Kind::Sub:
  case Expr::Kind::Mul:
  case Expr::Kind::Div:
  case Expr::Kind::Mod: {
    static constexpr Op Ops[] = {Op::Add, Op::Sub, Op::Mul, Op::Div, Op::Mod};
    Code[I].K = Ops[static_cast<int>(E->kind()) -
                    static_cast<int>(Expr::Kind::Add)];
    const auto *B = cast<BinaryExpr>(E.get());
    compile(B->lhs(), Bound);
    compile(B->rhs(), Bound);
    break;
  }
  case Expr::Kind::Min:
  case Expr::Kind::Max: {
    const auto *M = cast<MinMaxExpr>(E.get());
    Code[I].K = M->isMin() ? Op::Min : Op::Max;
    children(M->operands());
    break;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E.get());
    if (ArrayNames.count(C->callee())) {
      // The site owns the subscripts; the node only names it.
      Code[I].K = Op::Read;
      uint32_t S = newSite(C->callee(), C->args(), Bound);
      Code[I].A = S;
      break;
    }
    const std::string &F = C->callee();
    bool Unary = C->args().size() == 1;
    Code[I].K = !Unary           ? Op::Fault
                : F == "sqrt"    ? Op::Sqrt
                : F == "abs"     ? Op::Abs
                : F == "sgn"     ? Op::Sgn
                                 : Op::Fault;
    children(C->args());
    break;
  }
  }
  Code[I].End = static_cast<uint32_t>(Code.size());
  return I;
}

uint32_t AccessStream::newSite(const std::string &Array,
                               const std::vector<ExprRef> &Subs,
                               const std::set<std::string> &Bound) {
  Site S;
  for (const ExprRef &Sub : Subs) {
    // A subscript is code of its own, outside the expression it indexes.
    // Compiling it may append nested sites, so the site is stored last.
    uint32_t Root = static_cast<uint32_t>(Code.size());
    compile(Sub, Bound);
    S.Subs.push_back(Root);
  }
  Sites.push_back(std::move(S));
  SiteArrays.push_back(Array);
  return static_cast<uint32_t>(Sites.size() - 1);
}

bool AccessStream::affine(uint32_t I, uint64_t Scale, uint64_t &C0,
                          std::map<uint32_t, uint64_t> &Coef) const {
  // Coefficients wrap: pass 1 already evaluated every subscript exactly,
  // so a wrapped form equals it modulo 2^64, which is all an address is.
  const Node &N = Code[I];
  switch (N.K) {
  case Op::Const:
    C0 += Scale * static_cast<uint64_t>(N.C);
    return true;
  case Op::Load:
    Coef[N.A] += Scale;
    return true;
  case Op::Add:
  case Op::Sub:
    return affine(I + 1, Scale, C0, Coef) &&
           affine(Code[I + 1].End, N.K == Op::Add ? Scale : 0 - Scale, C0,
                  Coef);
  case Op::Mul: {
    uint32_t L = I + 1, R = Code[L].End;
    if (Code[L].K == Op::Const)
      return affine(R, Scale * static_cast<uint64_t>(Code[L].C), C0, Coef);
    if (Code[R].K == Op::Const)
      return affine(L, Scale * static_cast<uint64_t>(Code[R].C), C0, Coef);
    return false;
  }
  default:
    return false;
  }
}

bool AccessStream::layOut() {
  // Extents per array from its executed sites, which must agree on arity.
  struct Extent {
    bool Used = false;
    std::vector<int64_t> Lo, Hi;
    uint64_t Base = 0;
  };
  uint32_t NumArrays = 0;
  for (const Site &S : Sites)
    NumArrays = std::max(NumArrays, S.Array + 1);
  std::vector<Extent> Arrays(NumArrays);
  for (const Site &S : Sites) {
    if (!S.Executed)
      continue;
    Extent &E = Arrays[S.Array];
    if (!E.Used) {
      E.Used = true;
      E.Lo.assign(S.Subs.size(), INT64_MAX);
      E.Hi.assign(S.Subs.size(), INT64_MIN);
    }
    if (E.Lo.size() != S.Subs.size())
      return false;
    for (size_t D = 0; D < S.Subs.size(); ++D) {
      E.Lo[D] = std::min(E.Lo[D], Ranges[S.First + D].Lo);
      E.Hi[D] = std::max(E.Hi[D], Ranges[S.First + D].Hi);
    }
  }

  // ArrayLayout's packing, in name order: 4KiB-aligned bases with a guard
  // page, 8-byte elements. Sizes wrap exactly as there; such a layout is
  // simply too large to store densely. A span of the whole int64 range
  // wraps to 0, which must not read as an empty array.
  uint64_t NextBase = 0;
  bool Fits = true;
  for (Extent &E : Arrays) {
    if (!E.Used)
      continue;
    uint64_t Elems = 1;
    for (size_t D = 0; D < E.Lo.size(); ++D) {
      uint64_t Span = static_cast<uint64_t>(E.Hi[D]) -
                      static_cast<uint64_t>(E.Lo[D]) + 1;
      Fits &= Span != 0 && !__builtin_mul_overflow(Elems, Span, &Elems);
    }
    E.Base = NextBase;
    uint64_t Bytes = Elems * 8;
    Fits &= Elems <= MaxDenseElems;
    NextBase += (Bytes + 4095) / 4096 * 4096 + 4096;
  }
  Dense = Fits && NextBase / 8 <= MaxDenseElems;
  if (Dense)
    Mem.assign(NextBase / 8, 0);

  // Column-major addresses: Base + 8 * sum (sub[d] - Lo[d]) * Stride[d].
  for (Site &S : Sites) {
    if (!S.Executed)
      continue;
    const Extent &E = Arrays[S.Array];
    S.Base = E.Base;
    S.Stride.clear();
    uint64_t Stride = 1;
    for (size_t D = 0; D < E.Lo.size(); ++D) {
      S.Stride.push_back(Stride * 8);
      S.Base -= Stride * 8 * static_cast<uint64_t>(E.Lo[D]);
      Stride *=
          static_cast<uint64_t>(E.Hi[D]) - static_cast<uint64_t>(E.Lo[D]) + 1;
    }
    S.LinearBase = S.Base;
    std::map<uint32_t, uint64_t> Weights;
    for (size_t D = 0; D < S.Subs.size(); ++D) {
      uint64_t C0 = 0;
      std::map<uint32_t, uint64_t> Coef;
      if (!affine(S.Subs[D], 1, C0, Coef)) {
        S.TreeDims.emplace_back(S.Subs[D], S.Stride[D]);
        continue;
      }
      S.LinearBase += S.Stride[D] * C0;
      for (auto [Slot, C] : Coef)
        Weights[Slot] += S.Stride[D] * C;
    }
    for (auto [Slot, W] : Weights)
      if (W)
        S.Terms.emplace_back(Slot, W);
  }
  return true;
}

std::optional<double> AccessStream::missRatio() {
  runLoop<Pass::Extents>(0);
  if (stopped())
    return std::nullopt;
  if (!ValueDependent && Instances > 0)
    for (uint32_t I : BodySites)
      Sites[I].Executed = true;
  if (std::none_of(Sites.begin(), Sites.end(),
                   [](const Site &S) { return S.Executed; }))
    return 0.0;
  if (!layOut())
    return std::nullopt; // inconsistent arity; layout undefined
  Hashed.clear();
  IsSet.assign(IsSet.size(), 0);
  Headers = Instances = 0;
  runLoop<Pass::Stream>(0);
  if (stopped())
    return std::nullopt;
  return Sim.missRatio();
}

template <AccessStream::Pass P> void AccessStream::runLoop(unsigned Level) {
  if (Level == Loops.size()) {
    runBody<P>();
    return;
  }
  // The interpreter's loop, counters and budget included; the increment
  // wraps as it does there, so a runaway loop ends on the budget.
  const LoopCode &L = Loops[Level];
  int64_t Lo = eval<P>(L.Lower);
  int64_t Hi = eval<P>(L.Upper);
  int64_t St = eval<P>(L.Step);
  if (P == Pass::Extents && AffineBody && Level + 1 == Loops.size() &&
      sweepInnermost(L, Lo, Hi, St)) {
    IsSet[L.Slot] = 0;
    return;
  }
  for (int64_t X = Lo; St > 0 ? X <= Hi : X >= Hi;
       X = static_cast<int64_t>(static_cast<uint64_t>(X) +
                                static_cast<uint64_t>(St))) {
    if (stopped())
      return;
    if (++Headers > Opts.MaxInstances) {
      OverBudget = true;
      return;
    }
    Vals[L.Slot] = X;
    IsSet[L.Slot] = 1;
    runLoop<P>(Level + 1);
  }
  IsSet[L.Slot] = 0;
}

bool AccessStream::sweepInnermost(const LoopCode &L, int64_t Lo, int64_t Hi,
                                  int64_t St) {
  // Inits and subscripts are affine, so each of their nodes is affine in
  // the innermost index over one activation: its range, and any overflow,
  // show at the first and last iteration.
  using Wide = __int128;
  if (St == 0)
    return false;
  if (St > 0 ? Lo > Hi : Lo < Hi)
    return true;
  Wide Trips = (St > 0 ? Wide(Hi) - Lo : Wide(Lo) - Hi) / magnitude(St) + 1;
  Wide Last = Lo + (Trips - 1) * St;
  if (Last + St > INT64_MAX || Last + St < INT64_MIN)
    return false; // the index wraps, as it does in the interpreter
  if (Trips > Wide(Opts.MaxInstances - std::max(Headers, Instances))) {
    OverBudget = true;
    return true;
  }
  Headers += static_cast<uint64_t>(Trips);
  Instances += static_cast<uint64_t>(Trips);
  for (int64_t X : {Lo, static_cast<int64_t>(Last)}) {
    Vals[L.Slot] = X;
    IsSet[L.Slot] = 1;
    for (const InitCode &I : Inits) {
      int64_t V = eval<Pass::Extents>(I.Value);
      Vals[I.Slot] = V;
      IsSet[I.Slot] = 1;
    }
    noteRanges();
  }
  return true;
}

template <AccessStream::Pass P> void AccessStream::runBody() {
  if (++Instances > Opts.MaxInstances) {
    OverBudget = true;
    return;
  }
  for (const InitCode &I : Inits) {
    int64_t V = eval<P>(I.Value);
    Vals[I.Slot] = V;
    IsSet[I.Slot] = 1;
  }
  if (P == Pass::Extents && !ValueDependent) {
    // Values cannot move an address: pass 1 needs only the subscripts.
    noteRanges();
    return;
  }
  for (const StmtCode &S : Stmts) {
    int64_t V = eval<P>(S.Rhs);
    access<P>(Sites[S.Write]) = V;
  }
}

template <AccessStream::Pass P> int64_t AccessStream::eval(uint32_t I) {
  const Node &N = Code[I];
  switch (N.K) {
  case Op::Const:
    return N.C;
  case Op::Load:
    return Vals[N.A];
  case Op::LoadOr:
    if (IsSet[N.A])
      return Vals[N.A];
    if (N.HasParam)
      return N.C;
    OverflowGuard::record(); // unbound variable
    return 0;
  case Op::Add:
  case Op::Sub:
  case Op::Mul:
  case Op::Div:
  case Op::Mod: {
    int64_t L = eval<P>(I + 1);
    int64_t R = eval<P>(Code[I + 1].End);
    switch (N.K) {
    case Op::Add:
      return addChecked(L, R);
    case Op::Sub:
      return subChecked(L, R);
    case Op::Mul:
      return mulChecked(L, R);
    case Op::Div:
      return floorDiv(L, R);
    default:
      return floorMod(L, R);
    }
  }
  case Op::Min:
  case Op::Max: {
    uint32_t C = I + 1;
    int64_t Best = eval<P>(C);
    for (C = Code[C].End; C < N.End; C = Code[C].End) {
      int64_t V = eval<P>(C);
      Best = N.K == Op::Min ? std::min(Best, V) : std::max(Best, V);
    }
    return Best;
  }
  case Op::Read:
    return access<P>(Sites[N.A]);
  case Op::Sqrt:
    return isqrtChecked(eval<P>(I + 1));
  case Op::Abs: {
    int64_t V = eval<P>(I + 1);
    return V < 0 ? negChecked(V) : V;
  }
  case Op::Sgn:
    return sign(eval<P>(I + 1));
  case Op::Fault:
    for (uint32_t C = I + 1; C < N.End; C = Code[C].End)
      eval<P>(C);
    OverflowGuard::record();
    return 0;
  }
  return 0;
}

template <AccessStream::Pass P> int64_t *AccessStream::evalSubs(Site &S) {
  int64_t *Out = Scratch.data() + S.First;
  for (size_t D = 0; D < S.Subs.size(); ++D) {
    const Node &N = Code[S.Subs[D]];
    Out[D] = N.K == Op::Load ? Vals[N.A] : eval<P>(S.Subs[D]);
  }
  return Out;
}

void AccessStream::noteRanges() {
  for (Range &R : Ranges) {
    const Node &N = Code[R.Root];
    int64_t V = N.K == Op::Load ? Vals[N.A] : eval<Pass::Extents>(R.Root);
    R.Lo = std::min(R.Lo, V);
    R.Hi = std::max(R.Hi, V);
  }
}

void AccessStream::noteExtents(Site &S, const int64_t *Subs) {
  S.Executed = true;
  for (size_t D = 0; D < S.Subs.size(); ++D) {
    Range &R = Ranges[S.First + D];
    R.Lo = std::min(R.Lo, Subs[D]);
    R.Hi = std::max(R.Hi, Subs[D]);
  }
}

uint64_t AccessStream::addressOf(const Site &S, const int64_t *Subs) const {
  uint64_t Addr = S.Base;
  for (size_t D = 0; D < S.Stride.size(); ++D)
    Addr += S.Stride[D] * static_cast<uint64_t>(Subs[D]);
  return Addr;
}

template <AccessStream::Pass P> uint64_t AccessStream::linearAddress(Site &S) {
  uint64_t Addr = S.LinearBase;
  for (auto [Slot, W] : S.Terms)
    Addr += W * static_cast<uint64_t>(Vals[Slot]);
  // In subscript order: a read inside one is an access of its own.
  for (auto [Root, Stride] : S.TreeDims)
    Addr += Stride * static_cast<uint64_t>(eval<P>(Root));
  return Addr;
}

std::vector<int64_t> &AccessStream::keyOf(const Site &S, const int64_t *Subs) {
  Key.assign(1, S.Array);
  Key.insert(Key.end(), Subs, Subs + S.Subs.size());
  return Key;
}

template <AccessStream::Pass P> int64_t &AccessStream::access(Site &S) {
  if (P == Pass::Stream && Dense) {
    uint64_t Addr = linearAddress<P>(S);
    Sim.access(Addr);
    return Mem[Addr >> 3];
  }
  int64_t *Subs = evalSubs<P>(S);
  if (P == Pass::Extents)
    noteExtents(S, Subs);
  else
    Sim.access(addressOf(S, Subs));
  return Hashed[keyOf(S, Subs)]; // an unwritten cell reads 0
}

} // namespace

std::map<std::string, int64_t>
CostModel::defaultBindings(const LoopNest &Nest) {
  std::set<std::string> Vars;
  forEachExpr(Nest, [&](const ExprRef &E) {
    if (E)
      E->collectVars(Vars);
  });
  std::map<std::string, int64_t> Bindings;
  for (const std::string &V : Vars) {
    if (Nest.bindsVar(V))
      continue;
    if (std::find(Nest.BodyIndexVars.begin(), Nest.BodyIndexVars.end(), V) !=
        Nest.BodyIndexVars.end())
      continue;
    bool InitDefined = false;
    for (const InitStmt &I : Nest.Inits)
      InitDefined |= I.Var == V;
    if (InitDefined)
      continue;
    Bindings[V] = 24;
  }
  return Bindings;
}

CostModel::CostModel(const LoopNest &Nest, CostModelOptions Opts)
    : Nest(Nest), Opts(std::move(Opts)) {
  std::set<std::string> Calls;
  forEachExpr(Nest, [&](const ExprRef &E) { collectCallNames(E, Calls); });
  for (const std::string &C : Calls)
    if (!Nest.ArrayNames.count(C) && !isBuiltinFn(C)) {
      Unusable = "nest calls opaque function '" + C +
                 "' which the cost model cannot execute";
      return;
    }
  if (this->Opts.Params.empty())
    this->Opts.Params = defaultBindings(Nest);
}

std::optional<double> CostModel::baseline() {
  TransformSequence Empty;
  return missRatio(Empty, Empty.str());
}

std::optional<double> CostModel::missRatio(const TransformSequence &Seq,
                                           const std::string &Key) {
  {
    std::lock_guard<std::mutex> Lock(MemoMutex);
    auto It = Memo.find(Key);
    if (It != Memo.end())
      return It->second;
  }
  // Measure outside the lock: concurrent workers may race on the same key,
  // but the measurement is deterministic, so whichever insert wins stores
  // the same value.
  std::optional<double> Ratio = measure(Seq);
  std::lock_guard<std::mutex> Lock(MemoMutex);
  Memo.emplace(Key, Ratio);
  return Ratio;
}

std::optional<double> CostModel::measure(const TransformSequence &Seq) {
  if (!Unusable.empty())
    return std::nullopt;

  OverflowGuard Guard;
  ErrorOr<LoopNest> Transformed = applySequence(Seq, Nest);
  if (Guard.triggered() || !Transformed)
    return std::nullopt;
  // Deliberately no wall-clock budget: a time-based cutoff would make the
  // cost (and hence the search winner) machine-dependent.
  return AccessStream(*Transformed, Opts, Guard).missRatio();
}
