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
// Compilation and the affine analysis read a tree form; every expression
// runs as a flat postfix program emitted from it before each pass.
//===----------------------------------------------------------------------===//

/// Operations of compiled code.
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
  // Program-only operations.
  Write,    ///< pops the subscripts, then the value stored at site A
  Set,      ///< pops the value of slot A (an init)
  ReadRun,  ///< array read at site A's running address
  WriteRun, ///< pops the value stored at site A's running address
};

/// One node of the tree form, in prefix order: a node's first child
/// follows it, and End (one past its subtree) is its next sibling.
struct Node {
  Op K = Op::Const;
  bool HasParam = false;
  uint32_t A = 0;
  uint32_t End = 0;
  int64_t C = 0;
};

/// One instruction of a flat program, in postfix order: it pops its
/// operands off the value stack and pushes its result. Min, Max and
/// Fault pop C operands; Read and Write pop C subscripts.
struct Instr {
  Op K = Op::Const;
  bool HasParam = false;
  uint32_t A = 0;
  int64_t C = 0;
};

/// A program: the instructions [Begin, End) of AccessStream::Prog.
struct Span {
  uint32_t Begin = 0, End = 0;
};

/// One array reference of the nest: a read inside an expression or the
/// write of a statement.
struct Site {
  uint32_t Array = 0; ///< array id, in name order
  /// Offset of its subscripts' range ids in RangeOf.
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
  /// How far the address moves per unit of the innermost index, the
  /// inits that read it included (swept nests only).
  uint64_t Move = 0;
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

/// A body site's address in a swept activation, and its per-iteration
/// step.
struct RunningAddress {
  uint64_t Addr = 0, Delta = 0;
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
  bool reads(uint32_t Root, const std::vector<uint8_t> &SlotSet) const;
  void orderRanges();
  bool layOut();

  //===--- Programs -------------------------------------------------------===
  uint32_t here() const { return static_cast<uint32_t>(Prog.size()); }
  /// Replaces Prog with the programs pass \p P runs.
  void emitPrograms(Pass P);
  /// Appends node \p I's program; with \p Running, its reads take running
  /// addresses.
  void emit(uint32_t I, Pass P, bool Running = false);
  void emitAccess(uint32_t SiteId, Op K, Pass P, bool Running);
  void emitInits(Pass P);
  void emitStmts(Pass P, bool Running);

  //===--- Execution ------------------------------------------------------===
  template <Pass P> void runLoop(unsigned Level);
  template <Pass P> void runBody();
  template <Pass P>
  bool sweep(uint32_t Slot, int64_t Lo, int64_t Hi, int64_t St);
  /// Runs \p S from an empty stack; returns the top of the stack.
  template <Pass P> int64_t *run(Span S);
  void setSlot(uint32_t Slot, int64_t V) {
    Vals[Slot] = V;
    IsSet[Slot] = 1;
  }
  void noteRanges(Span S);
  /// Performs one access at \p S - noting its subscripts (pass 1) or
  /// simulating its address (pass 2) - and returns the cell.
  template <Pass P> int64_t &cell(Site &S, const int64_t *Subs);
  void noteExtents(Site &S, const int64_t *Subs);
  uint64_t addressOf(const Site &S, const int64_t *Subs) const;
  uint64_t linearPart(const Site &S) const;
  /// The running address of site \p S, simulated, then advanced.
  uint64_t advance(uint32_t S) {
    RunningAddress &R = Run[S];
    uint64_t Addr = R.Addr;
    R.Addr += R.Delta;
    Sim.access(Addr);
    return Addr;
  }
  std::vector<int64_t> &keyOf(const Site &S, const int64_t *Subs);
  bool stopped() const { return OverBudget || Guard.triggered(); }

  const CostModelOptions &Opts;
  const OverflowGuard &Guard;
  const std::set<std::string> &ArrayNames;
  std::map<std::string, uint32_t> Slots;
  std::vector<uint8_t> InitSlots; ///< 1 for each slot an init assigns
  std::vector<Node> Code;
  std::vector<Site> Sites;
  std::vector<std::string> SiteArrays; ///< array name per site
  std::vector<uint32_t> BodySites;     ///< every site of the statements
  /// The range of subscript d of a site is Ranges[RangeOf[First + d]].
  /// Without statements in pass 1, those that move with the innermost
  /// index come first.
  std::vector<uint32_t> RangeOf;
  std::vector<Range> Ranges;
  uint32_t MovingRanges = 0;
  std::vector<LoopCode> Loops;
  std::vector<InitCode> Inits;
  std::vector<StmtCode> Stmts;
  /// Some address or bound depends on array values, so pass 1 must
  /// compute values as well.
  bool ValueDependent = false;
  /// Value-independent, with affine inits and subscripts and no init that
  /// assigns a loop index: pass 1 covers each activation of the innermost
  /// loop in closed form.
  bool AffineBody = false;
  /// ... and densely laid out: pass 2 sweeps each activation with running
  /// addresses.
  bool Swept = false;

  std::vector<Instr> Prog;
  /// Per loop: pushes its lower bound, upper bound and step.
  std::vector<Span> BoundsProgs;
  /// One instance: the inits, then the statements - or, in pass 1 of a
  /// value-independent nest, the value of each range.
  Span BodyProg;
  /// Pass 1, swept: the inits, then the value of each moving range.
  Span MovedProg;
  /// Pass 2, swept: the inits, and one iteration.
  Span InitProg, SweepProg;
  bool SweepRunsInits = false;
  std::vector<int64_t> Stack;
  std::vector<RunningAddress> Run; ///< per site

  std::vector<int64_t> Vals;
  std::vector<uint8_t> IsSet;
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
  InitSlots.assign(Slots.size(), 0);
  bool InitAssignsIndex = false;
  for (const InitStmt &I : Nest.Inits) {
    Inits.push_back({Slots.at(I.Var), compile(I.Value, Bound)});
    InitSlots[Inits.back().Slot] = 1;
    InitAssignsIndex |= LoopVars.count(I.Var) > 0;
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
      RangeOf.push_back(static_cast<uint32_t>(Ranges.size()));
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
  // An init that assigns a loop index leaves a stale value in it for the
  // next instance, which no closed form over an activation follows.
  AffineBody = !ValueDependent && !InitAssignsIndex;
  for (const InitCode &I : Inits)
    AffineBody &= isAffine(I.Value);
  for (const Range &R : Ranges)
    AffineBody &= isAffine(R.Root);
  if (!ValueDependent)
    orderRanges();
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

bool AccessStream::reads(uint32_t Root,
                         const std::vector<uint8_t> &SlotSet) const {
  for (uint32_t N = Root; N < Code[Root].End; ++N)
    if ((Code[N].K == Op::Load || Code[N].K == Op::LoadOr) &&
        SlotSet[Code[N].A])
      return true;
  return false;
}

void AccessStream::orderRanges() {
  // Without statements, pass 1 evaluates every subscript at once. Those
  // that read neither the innermost index nor an init are fixed over an
  // activation; the moving ones come first, so a sweep notes every range
  // at the first iteration and only the moving ones at the last.
  std::vector<uint8_t> Moving = InitSlots;
  if (!Loops.empty())
    Moving[Loops.back().Slot] = 1;
  std::vector<Range> Ordered;
  for (bool Moves : {true, false})
    for (size_t I = 0; I < Ranges.size(); ++I)
      if (reads(Ranges[I].Root, Moving) == Moves) {
        RangeOf[I] = static_cast<uint32_t>(Ordered.size());
        Ordered.push_back(Ranges[I]);
        MovingRanges += Moves;
      }
  Ranges = std::move(Ordered);
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
      const Range &R = Ranges[RangeOf[S.First + D]];
      E.Lo[D] = std::min(E.Lo[D], R.Lo);
      E.Hi[D] = std::max(E.Hi[D], R.Hi);
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
  Swept = AffineBody && Dense;

  // How far each slot moves per unit of the innermost index: the index
  // itself, and each init through the slots it reads. The inits are
  // affine and never assign a loop index in a swept nest.
  std::vector<uint64_t> SlotMove(Slots.size(), 0);
  if (Swept && !Loops.empty()) {
    SlotMove[Loops.back().Slot] = 1;
    for (const InitCode &I : Inits) {
      uint64_t C0 = 0, M = 0;
      std::map<uint32_t, uint64_t> Coef;
      affine(I.Value, 1, C0, Coef);
      for (auto [Slot, C] : Coef)
        M += C * SlotMove[Slot];
      SlotMove[I.Slot] = M;
    }
  }

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
      if (W) {
        S.Terms.emplace_back(Slot, W);
        S.Move += W * SlotMove[Slot];
      }
  }
  return true;
}

std::optional<double> AccessStream::missRatio() {
  emitPrograms(Pass::Extents);
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
  emitPrograms(Pass::Stream);
  runLoop<Pass::Stream>(0);
  if (stopped())
    return std::nullopt;
  return Sim.missRatio();
}

//===--- Programs ---------------------------------------------------------===

void AccessStream::emitPrograms(Pass P) {
  Prog.clear();
  BoundsProgs.clear();
  for (const LoopCode &L : Loops) {
    uint32_t Begin = here();
    for (uint32_t Root : {L.Lower, L.Upper, L.Step})
      emit(Root, P);
    BoundsProgs.push_back({Begin, here()});
  }
  // Pass 1 of a value-independent nest needs only the subscripts: the
  // moving ranges' values come first, so they are a prefix of the body.
  bool ValuesOnly = P == Pass::Extents && !ValueDependent;
  BodyProg.Begin = MovedProg.Begin = here();
  emitInits(P);
  MovedProg.End = here();
  if (ValuesOnly) {
    for (uint32_t K = 0; K < Ranges.size(); ++K) {
      emit(Ranges[K].Root, P);
      if (K < MovingRanges)
        MovedProg.End = here();
    }
  } else {
    emitStmts(P, /*Running=*/false);
  }
  BodyProg.End = here();
  if (P == Pass::Stream && Swept) {
    // One iteration: the statements with running addresses, after the
    // inits only when they read one.
    InitProg.Begin = here();
    emitInits(P);
    InitProg.End = here();
    emitStmts(P, /*Running=*/true);
    SweepRunsInits = std::any_of(
        Prog.begin() + InitProg.End, Prog.end(), [&](const Instr &I) {
          return (I.K == Op::Load || I.K == Op::LoadOr) && InitSlots[I.A];
        });
    SweepProg = {SweepRunsInits ? InitProg.Begin : InitProg.End, here()};
    Run.assign(Sites.size(), RunningAddress());
  }
  // No program is deeper than it is long.
  Stack.assign(Prog.size() + 1, 0);
}

void AccessStream::emit(uint32_t I, Pass P, bool Running) {
  const Node &N = Code[I];
  if (N.K == Op::Read) {
    emitAccess(N.A, Op::Read, P, Running);
    return;
  }
  int64_t Operands = 0;
  for (uint32_t C = I + 1; C < N.End; C = Code[C].End, ++Operands)
    emit(C, P, Running);
  bool Variadic = N.K == Op::Min || N.K == Op::Max || N.K == Op::Fault;
  Prog.push_back({N.K, N.HasParam, N.A, Variadic ? Operands : N.C});
}

void AccessStream::emitAccess(uint32_t SiteId, Op K, Pass P, bool Running) {
  const Site &S = Sites[SiteId];
  if (Running) {
    Prog.push_back({K == Op::Read ? Op::ReadRun : Op::WriteRun, false, SiteId});
    return;
  }
  // A dense pass 2 evaluates only the subscripts its linear form left.
  int64_t Subs = 0;
  if (P == Pass::Stream && Dense)
    for (auto [Root, Stride] : S.TreeDims)
      emit(Root, P), ++Subs;
  else
    for (uint32_t Root : S.Subs)
      emit(Root, P), ++Subs;
  Prog.push_back({K, false, SiteId, Subs});
}

void AccessStream::emitInits(Pass P) {
  for (const InitCode &I : Inits) {
    emit(I.Value, P);
    Prog.push_back({Op::Set, false, I.Slot});
  }
}

void AccessStream::emitStmts(Pass P, bool Running) {
  for (const StmtCode &S : Stmts) {
    emit(S.Rhs, P, Running);
    emitAccess(S.Write, Op::Write, P, Running);
  }
}

//===--- Execution --------------------------------------------------------===

template <AccessStream::Pass P> void AccessStream::runLoop(unsigned Level) {
  if (Level == Loops.size()) {
    runBody<P>();
    return;
  }
  // The interpreter's loop, counters and budget included; the increment
  // wraps as it does there, so a runaway loop ends on the budget.
  const LoopCode &L = Loops[Level];
  const int64_t *Bounds = run<P>(BoundsProgs[Level]) - 3;
  int64_t Lo = Bounds[0], Hi = Bounds[1], St = Bounds[2];
  bool Sweeps = P == Pass::Extents ? AffineBody : Swept;
  if (Level + 1 == Loops.size() && Sweeps && sweep<P>(L.Slot, Lo, Hi, St)) {
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
    setSlot(L.Slot, X);
    runLoop<P>(Level + 1);
  }
  IsSet[L.Slot] = 0;
}

template <AccessStream::Pass P>
bool AccessStream::sweep(uint32_t Slot, int64_t Lo, int64_t Hi, int64_t St) {
  // Inits and subscripts are affine, so each of their nodes is affine in
  // the innermost index over one activation: pass 1 sees its range, and
  // any overflow, at the first and last iteration. Pass 2 then moves each
  // address by a fixed step per iteration.
  using Wide = __int128;
  if (St == 0)
    return false;
  if (St > 0 ? Lo > Hi : Lo < Hi)
    return true;
  uint64_t Distance = static_cast<uint64_t>(St > 0 ? Hi : Lo) -
                      static_cast<uint64_t>(St > 0 ? Lo : Hi);
  Wide Trips = Wide(Distance / magnitude(St)) + 1;
  Wide Last = Lo + (Trips - 1) * St;
  if (Last + St > INT64_MAX || Last + St < INT64_MIN)
    return false; // the index wraps, as it does in the interpreter
  if (Trips > Wide(Opts.MaxInstances - std::max(Headers, Instances))) {
    OverBudget = true;
    return true;
  }
  Headers += static_cast<uint64_t>(Trips);
  Instances += static_cast<uint64_t>(Trips);
  if (P == Pass::Extents) {
    setSlot(Slot, Lo);
    noteRanges(BodyProg);
    setSlot(Slot, static_cast<int64_t>(Last));
    noteRanges(MovedProg);
    return true;
  }
  setSlot(Slot, Lo);
  run<P>(InitProg);
  for (uint32_t I : BodySites)
    Run[I] = {linearPart(Sites[I]), Sites[I].Move * static_cast<uint64_t>(St)};
  int64_t X = Lo;
  for (uint64_t T = static_cast<uint64_t>(Trips); T > 0; --T, X += St) {
    Vals[Slot] = X;
    run<P>(SweepProg);
  }
  // Leave the inits as the last instance does: a bound may read them.
  if (!SweepRunsInits && !Inits.empty()) {
    Vals[Slot] = static_cast<int64_t>(Last);
    run<P>(InitProg);
  }
  return true;
}

template <AccessStream::Pass P> void AccessStream::runBody() {
  if (++Instances > Opts.MaxInstances) {
    OverBudget = true;
    return;
  }
  if (P == Pass::Extents && !ValueDependent)
    noteRanges(BodyProg);
  else
    run<P>(BodyProg);
}

template <AccessStream::Pass P> int64_t *AccessStream::run(Span S) {
  int64_t *Sp = Stack.data();
  for (const Instr *I = Prog.data() + S.Begin, *E = Prog.data() + S.End;
       I != E; ++I) {
    switch (I->K) {
    case Op::Const:
      *Sp++ = I->C;
      break;
    case Op::Load:
      *Sp++ = Vals[I->A];
      break;
    case Op::LoadOr:
      if (IsSet[I->A]) {
        *Sp++ = Vals[I->A];
      } else if (I->HasParam) {
        *Sp++ = I->C;
      } else {
        OverflowGuard::record(); // unbound variable
        *Sp++ = 0;
      }
      break;
    case Op::Add:
      --Sp;
      Sp[-1] = addChecked(Sp[-1], *Sp);
      break;
    case Op::Sub:
      --Sp;
      Sp[-1] = subChecked(Sp[-1], *Sp);
      break;
    case Op::Mul:
      --Sp;
      Sp[-1] = mulChecked(Sp[-1], *Sp);
      break;
    case Op::Div:
      --Sp;
      Sp[-1] = floorDiv(Sp[-1], *Sp);
      break;
    case Op::Mod:
      --Sp;
      Sp[-1] = floorMod(Sp[-1], *Sp);
      break;
    case Op::Min:
    case Op::Max: {
      Sp -= I->C;
      int64_t Best = Sp[0];
      for (int64_t K = 1; K < I->C; ++K)
        Best = I->K == Op::Min ? std::min(Best, Sp[K]) : std::max(Best, Sp[K]);
      *Sp++ = Best;
      break;
    }
    case Op::Sqrt:
      Sp[-1] = isqrtChecked(Sp[-1]);
      break;
    case Op::Abs:
      if (Sp[-1] < 0)
        Sp[-1] = negChecked(Sp[-1]);
      break;
    case Op::Sgn:
      Sp[-1] = sign(Sp[-1]);
      break;
    case Op::Fault:
      Sp -= I->C;
      OverflowGuard::record();
      *Sp++ = 0;
      break;
    case Op::Read:
      Sp -= I->C;
      *Sp = cell<P>(Sites[I->A], Sp);
      ++Sp;
      break;
    case Op::Write:
      Sp -= I->C;
      cell<P>(Sites[I->A], Sp) = Sp[-1];
      --Sp;
      break;
    case Op::Set:
      --Sp;
      setSlot(I->A, *Sp);
      break;
    case Op::ReadRun:
      *Sp++ = Mem[advance(I->A) >> 3];
      break;
    case Op::WriteRun:
      --Sp;
      Mem[advance(I->A) >> 3] = *Sp;
      break;
    }
  }
  return Sp;
}

void AccessStream::noteRanges(Span S) {
  const int64_t *V = Stack.data();
  size_t N = static_cast<size_t>(run<Pass::Extents>(S) - V);
  for (size_t K = 0; K < N; ++K) {
    Range &R = Ranges[K];
    R.Lo = std::min(R.Lo, V[K]);
    R.Hi = std::max(R.Hi, V[K]);
  }
}

void AccessStream::noteExtents(Site &S, const int64_t *Subs) {
  S.Executed = true;
  for (size_t D = 0; D < S.Subs.size(); ++D) {
    Range &R = Ranges[RangeOf[S.First + D]];
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

uint64_t AccessStream::linearPart(const Site &S) const {
  uint64_t Addr = S.LinearBase;
  for (auto [Slot, W] : S.Terms)
    Addr += W * static_cast<uint64_t>(Vals[Slot]);
  return Addr;
}

std::vector<int64_t> &AccessStream::keyOf(const Site &S, const int64_t *Subs) {
  Key.assign(1, S.Array);
  Key.insert(Key.end(), Subs, Subs + S.Subs.size());
  return Key;
}

template <AccessStream::Pass P>
int64_t &AccessStream::cell(Site &S, const int64_t *Subs) {
  if (P == Pass::Stream && Dense) {
    // The linear form, then the dimensions left to evaluate.
    uint64_t Addr = linearPart(S);
    for (size_t D = 0; D < S.TreeDims.size(); ++D)
      Addr += S.TreeDims[D].second * static_cast<uint64_t>(Subs[D]);
    Sim.access(Addr);
    return Mem[Addr >> 3];
  }
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
