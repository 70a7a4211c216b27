//===- eval/Evaluator.cpp - Loop-nest interpreter --------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "eval/Evaluator.h"

#include "support/Casting.h"
#include "support/MathUtils.h"
#include "support/Printing.h"

#include <cassert>
#include <chrono>

using namespace irlt;

int64_t ArrayStore::read(const std::string &Array,
                         const std::vector<int64_t> &Subs) const {
  auto AIt = Data.find(Array);
  if (AIt == Data.end())
    return 0;
  auto CIt = AIt->second.find(Subs);
  return CIt == AIt->second.end() ? 0 : CIt->second;
}

void ArrayStore::write(const std::string &Array,
                       const std::vector<int64_t> &Subs, int64_t Value) {
  Data[Array][Subs] = Value;
}

size_t ArrayStore::numWrittenCells() const {
  size_t N = 0;
  for (const auto &[Name, Cells] : Data)
    N += Cells.size();
  return N;
}

namespace {

/// Environment threading variable bindings, the store, and the trace.
class RunContext : public ExprEnv {
public:
  RunContext(const LoopNest &Nest, const EvalConfig &Config, ArrayStore &Store,
             EvalResult &Result)
      : Nest(Nest), Config(Config), Store(Store), Result(Result) {
    Result.LevelCounts.assign(Nest.numLoops(), 0);
    Ordinals.assign(Nest.numLoops(), 0);
    if (Config.WallBudgetMillis)
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Config.WallBudgetMillis);
  }

  std::optional<int64_t> lookup(const std::string &Name) const override {
    auto It = Vars.find(Name);
    if (It != Vars.end())
      return It->second;
    auto PIt = Config.Params.find(Name);
    if (PIt != Config.Params.end())
      return PIt->second;
    return std::nullopt;
  }

  int64_t call(const std::string &Name,
               const std::vector<int64_t> &Args) const override {
    // Arrays dispatch to the store (reads). Recording happens in
    // evalRHS via collectArrayReads; here we only fetch the value.
    if (Nest.ArrayNames.count(Name)) {
      if (Config.RecordAccesses) {
        Result.Accesses.push_back(MemAccess{false, Name, Args});
        Result.AccessOwner.push_back(InstanceCount - 1);
      }
      return Store.read(Name, Args);
    }
    auto FIt = Config.Funcs.find(Name);
    if (FIt != Config.Funcs.end())
      return FIt->second(Args);
    if (Name == "sqrt") {
      assert(Args.size() == 1);
      return isqrtChecked(Args[0]);
    }
    if (Name == "abs") {
      assert(Args.size() == 1);
      return Args[0] < 0 ? negChecked(Args[0]) : Args[0];
    }
    if (Name == "sgn") {
      assert(Args.size() == 1);
      return sign(Args[0]);
    }
    assert(false && "unknown opaque function in evaluation");
    return 0;
  }

  void run() { runLoop(0); }

  bool hitLimit() const { return LimitHit; }

private:
  void runLoop(unsigned Level) {
    if (Level == Nest.numLoops()) {
      runBody();
      return;
    }
    const Loop &L = Nest.Loops[Level];
    int64_t Lo = L.Lower->evaluate(*this);
    int64_t Hi = L.Upper->evaluate(*this);
    int64_t St = L.Step->evaluate(*this);
    assert(St != 0 && "loop step evaluated to zero");
    int64_t Ordinal = 0;
    for (int64_t X = Lo; St > 0 ? X <= Hi : X >= Hi; X += St) {
      if (LimitHit)
        return;
      // Headers count against the budgets too: a huge loop over a
      // zero-trip inner nest never executes a body, and must still stop.
      if (++HeaderCount > Config.MaxInstances) {
        noteLimit(formatStr("iteration budget of %llu exhausted",
                            static_cast<unsigned long long>(
                                Config.MaxInstances)));
        return;
      }
      if (Config.WallBudgetMillis && (HeaderCount & 255) == 0 &&
          std::chrono::steady_clock::now() >= Deadline) {
        noteLimit(formatStr("wall-clock budget of %llu ms exhausted",
                            static_cast<unsigned long long>(
                                Config.WallBudgetMillis)));
        return;
      }
      Vars[L.IndexVar] = X;
      Ordinals[Level] = Ordinal++;
      ++Result.LevelCounts[Level];
      runLoop(Level + 1);
    }
    Vars.erase(L.IndexVar);
  }

  void runBody() {
    if (++InstanceCount > Config.MaxInstances) {
      noteLimit(formatStr("instance budget of %llu exhausted",
                          static_cast<unsigned long long>(
                              Config.MaxInstances)));
      return;
    }
    if (Config.WallBudgetMillis && (InstanceCount & 255) == 0 &&
        std::chrono::steady_clock::now() >= Deadline) {
      noteLimit(formatStr("wall-clock budget of %llu ms exhausted",
                          static_cast<unsigned long long>(
                              Config.WallBudgetMillis)));
      return;
    }
    // Init statements first (they define the original index variables).
    for (const InitStmt &I : Nest.Inits)
      Vars[I.Var] = I.Value->evaluate(*this);

    if (Config.RecordTrace) {
      std::vector<int64_t> Inst;
      Inst.reserve(Nest.BodyIndexVars.size());
      for (const std::string &V : Nest.BodyIndexVars) {
        std::optional<int64_t> Val = lookup(V);
        assert(Val && "body index variable unbound (missing init?)");
        Inst.push_back(*Val);
      }
      Result.Instances.push_back(std::move(Inst));

      std::vector<int64_t> LoopTuple;
      LoopTuple.reserve(Nest.numLoops());
      for (const Loop &L : Nest.Loops)
        LoopTuple.push_back(Vars.at(L.IndexVar));
      Result.LoopTuples.push_back(std::move(LoopTuple));
      Result.OrdinalTuples.push_back(Ordinals);
    }

    if (!Config.ExecuteBody)
      return;
    for (const AssignStmt &S : Nest.Body) {
      int64_t V = S.RHS->evaluate(*this); // reads recorded in call()
      std::vector<int64_t> Subs;
      Subs.reserve(S.LHS.Subscripts.size());
      for (const ExprRef &Sub : S.LHS.Subscripts)
        Subs.push_back(Sub->evaluate(*this));
      if (Config.RecordAccesses) {
        Result.Accesses.push_back(MemAccess{true, S.LHS.Array, Subs});
        Result.AccessOwner.push_back(InstanceCount - 1);
      }
      Store.write(S.LHS.Array, Subs, V);
    }
  }

  void noteLimit(std::string Reason) {
    LimitHit = true;
    Result.LimitHit = true;
    Result.LimitReason = std::move(Reason);
  }

  const LoopNest &Nest;
  const EvalConfig &Config;
  ArrayStore &Store;
  EvalResult &Result;
  std::map<std::string, int64_t> Vars;
  std::vector<int64_t> Ordinals;
  uint64_t InstanceCount = 0;
  uint64_t HeaderCount = 0;
  bool LimitHit = false;
  std::chrono::steady_clock::time_point Deadline;
};

} // namespace

EvalResult irlt::evaluate(const LoopNest &Nest, const EvalConfig &Config,
                          ArrayStore &Store) {
  EvalResult Result;
  RunContext Ctx(Nest, Config, Store, Result);
  Ctx.run();
  return Result;
}

ParallelismStats irlt::parallelismStats(const LoopNest &Nest,
                                        const EvalResult &R) {
  ParallelismStats S;
  S.Instances = R.OrdinalTuples.size();
  if (R.OrdinalTuples.empty())
    return S;
  // Project each iteration-number tuple onto the sequential (non-pardo)
  // positions; distinct projections are the sequential time steps. Using
  // ordinals (not index values) lets iterations of different pardo
  // branches share a time step even when their inner loops run over
  // different value ranges.
  std::vector<unsigned> SeqPos;
  for (unsigned K = 0; K < Nest.numLoops(); ++K)
    if (Nest.Loops[K].Kind == LoopKind::Do)
      SeqPos.push_back(K);
  std::map<std::vector<int64_t>, uint64_t> Steps;
  for (const std::vector<int64_t> &T : R.OrdinalTuples) {
    std::vector<int64_t> Proj;
    Proj.reserve(SeqPos.size());
    for (unsigned K : SeqPos)
      Proj.push_back(T[K]);
    ++Steps[Proj];
  }
  S.SequentialSteps = Steps.size();
  S.AvgParallelism =
      static_cast<double>(S.Instances) / static_cast<double>(Steps.size());
  for (const auto &[Proj, Count] : Steps)
    S.MaxParallelism = std::max(S.MaxParallelism, Count);
  return S;
}
