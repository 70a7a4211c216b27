//===- legality/IncrementalEngine.cpp - Prefix-memoized legality ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "legality/IncrementalEngine.h"

#include "support/MathUtils.h"

#include <cstring>
#include <utility>

using namespace irlt;
using namespace irlt::legality;

//===----------------------------------------------------------------------===//
// The stage function: one stage of isLegal()'s walk (Mode::Full) or
// isLegalFast()'s (Mode::Fast), on a PrefixState. A surviving stage is
// saturation-free by construction (the guard check after every operation
// rejects first), so only Overflow verdicts carry Saturated.
//===----------------------------------------------------------------------===//

StageOutcome legality::stepStage(const PrefixState &P,
                                 const std::vector<TemplateRef> &Steps,
                                 Mode M) {
  using RK = LegalityResult::RejectKind;
  const unsigned Stage = P.Len + 1;
  const TemplateRef &Step = Steps[P.Len];
  StageOutcome C;
  auto fail = [&](RK K, std::string Message, unsigned At,
                  std::string Template) {
    C.Fail.reject(K, Diag::error(std::move(Message))
                         .atStage(At)
                         .inTemplate(std::move(Template)));
    return std::move(C);
  };
  OverflowGuard Guard;
  auto overflowed = [&]() {
    if (!Guard.triggered())
      return false;
    C.Saturated = true;
    C.Fail.reject(RK::Overflow,
                  Diag::error("coefficient arithmetic overflows the int64 "
                              "range (bounds overflow)")
                      .atStage(Stage)
                      .inTemplate(Step->name()));
    return true;
  };

  NestTypeState FullTypes;
  if (M == Mode::Full) {
    std::string E = Step->checkPreconditions(P.Nest);
    if (overflowed())
      return C;
    if (!E.empty())
      return fail(RK::BoundsPrecondition,
                  "bounds precondition violated: " + E, Stage, Step->name());
    FullTypes = NestTypeState::fromNest(P.Nest);
  }
  std::string E = checkAnchorDependence(
      *Step, M == Mode::Full ? FullTypes : P.Types, P.Deps);
  if (overflowed())
    return C;
  if (!E.empty())
    return fail(RK::DependencePrecondition,
                "dependence precondition violated: " + E, Stage, Step->name());

  PrefixState NS;
  NS.Len = Stage;
  std::optional<ErrorOr<NestTypeState>> Mapped;
  if (M == Mode::Fast) {
    Mapped = mapTypes(*Step, P.Types);
    if (overflowed())
      return C;
  }
  if (Mapped) {
    if (!*Mapped)
      return fail(RK::BoundsPrecondition,
                  "bounds precondition violated: " + Mapped->message(), Stage,
                  Step->name());
    NS.Nest = P.Nest;
    NS.AppliedThrough = P.AppliedThrough;
    NS.Types = Mapped->take();
  } else {
    // Full mode, or a fast-mode stage without a type rule: apply every
    // stage the concrete nest has not materialized yet (fast mode skips
    // the type-ruled ones), through this one.
    const LoopNest *Cur = &P.Nest;
    for (size_t I = P.AppliedThrough; I < Stage; ++I) {
      ErrorOr<LoopNest> Next = Steps[I]->apply(*Cur);
      if (overflowed())
        return C;
      if (!Next)
        return fail(RK::ApplyFailure, Next.message(),
                    static_cast<unsigned>(I + 1), Steps[I]->str());
      NS.Nest = Next.take();
      Cur = &NS.Nest;
    }
    NS.AppliedThrough = Stage;
    if (M == Mode::Fast)
      NS.Types = NestTypeState::fromNest(NS.Nest);
  }
  NS.Deps = Step->mapDependences(P.Deps);
  if (overflowed())
    return C;
  C.Next = std::move(NS);
  return C;
}

//===----------------------------------------------------------------------===//
// Cache keys (the discipline is in the header). Root keys start with
// '\x01' and stage keys with '\x02', so the two never meet.
//===----------------------------------------------------------------------===//

namespace {

uint64_t depSetHash(const DepSet &D) {
  uint64_t H = hashMix(0, D.size());
  for (const DepVector &V : D.vectors()) {
    H = hashMix(H, V.size());
    for (const DepElem &El : V.elems())
      H = El.isDistance()
              ? hashMix(hashMix(H, 1), static_cast<uint64_t>(El.dist()))
              : hashMix(hashMix(H, 2), El.signMask());
  }
  return H;
}

std::string rootKey(const LoopNest &Nest, const DepSet &D, Mode M) {
  const uint64_t H = hashMix(Nest.structuralHash(), depSetHash(D));
  std::string Key(1 + sizeof(H) + 1, '\x01');
  std::memcpy(&Key[1], &H, sizeof(H));
  Key.back() = M == Mode::Fast ? 'F' : 'L';
  return Key;
}

std::string stageKey(uint64_t Parent, const TransformTemplate &Step) {
  std::string Key(1 + sizeof(Parent), '\x02');
  std::memcpy(&Key[1], &Parent, sizeof(Parent));
  Key += Step.str();
  return Key;
}

std::shared_ptr<const PrefixState> rootState(const LoopNest &Nest,
                                             const DepSet &D, Mode M) {
  auto Root = std::make_shared<PrefixState>();
  Root->Nest = Nest;
  Root->Deps = D;
  if (M == Mode::Fast)
    Root->Types = NestTypeState::fromNest(Nest);
  return Root;
}

} // namespace

//===----------------------------------------------------------------------===//
// SequenceBuilder
//===----------------------------------------------------------------------===//

SequenceBuilder SequenceBuilder::failed(LegalityResult Verdict) {
  SequenceBuilder B;
  B.Failed = true;
  B.FailR = std::move(Verdict);
  return B;
}

const DepSet &SequenceBuilder::deps() const {
  static const DepSet Empty;
  return Cur ? Cur->Deps : Empty;
}

unsigned SequenceBuilder::outputLoops() const {
  if (!Cur)
    return 0;
  if (Cur->AppliedThrough < Cur->Len)
    return Cur->Types.numLoops();
  return Cur->Nest.numLoops();
}

bool SequenceBuilder::extend(const TemplateRef &Step) {
  if (Failed)
    return false;
  Steps.push_back(Step);

  std::string Key;
  if (Cacheable) {
    // The parent entry's id plus the stage as written, built under a guard
    // so a rendering that saturates (it should not, but templates are
    // extensible) makes the rest of this builder uncacheable.
    OverflowGuard Guard;
    Key = stageKey(Parent, *Step);
    Cacheable = !Guard.triggered();
  }

  if (Cacheable) {
    if (std::shared_ptr<const IncrementalEngine::Entry> Hit =
            E->lookup(Key)) {
      E->Hits.fetch_add(1, std::memory_order_relaxed);
      if (Hit->State) {
        Cur = Hit->State;
        Parent = Hit->Id;
        return true;
      }
      Failed = true;
      FailR = *Hit->Fail;
      return false;
    }
    E->Misses.fetch_add(1, std::memory_order_relaxed);
  }

  StageOutcome C = stepStage(*Cur, Steps, M);
  if (C.Saturated && E)
    E->Uncacheable.fetch_add(1, std::memory_order_relaxed);

  if (C.Next) {
    auto NS = std::make_shared<const PrefixState>(std::move(*C.Next));
    if (Cacheable && !C.Saturated) {
      std::shared_ptr<const IncrementalEngine::Entry> Stored =
          E->insert(Key, NS, nullptr);
      NS = Stored->State; // insert-race: first entry wins
      Parent = Stored->Id;
    }
    Cur = std::move(NS);
    return true;
  }

  Failed = true;
  FailR = std::move(C.Fail);
  if (Cacheable && !C.Saturated)
    E->insert(Key, nullptr, std::make_shared<const LegalityResult>(FailR));
  return false;
}

LegalityResult SequenceBuilder::finish() const {
  if (Failed)
    return FailR;
  LegalityResult R;
  R.FinalDeps = Cur->Deps;
  for (const DepVector &V : R.FinalDeps.vectors()) {
    if (V.canBeLexNegative()) {
      R.reject(LegalityResult::RejectKind::LexNegative,
               Diag::error("transformed dependence vector " + V.str() +
                           " admits a lexicographically negative tuple"));
      return R;
    }
  }
  R.Legal = true;
  return R;
}

//===----------------------------------------------------------------------===//
// IncrementalEngine
//===----------------------------------------------------------------------===//

IncrementalEngine::IncrementalEngine(Options O)
    : Opts(O), Map(O.CacheCapacity) {}

std::shared_ptr<const IncrementalEngine::Entry>
IncrementalEngine::lookup(const std::string &Key) {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.lookup(Key);
}

std::shared_ptr<const IncrementalEngine::Entry>
IncrementalEngine::insert(const std::string &Key,
                          std::shared_ptr<const PrefixState> State,
                          std::shared_ptr<const LegalityResult> Fail) {
  auto Val = std::make_shared<Entry>();
  Val->Id = NextId.fetch_add(1, std::memory_order_relaxed);
  Val->State = std::move(State);
  Val->Fail = std::move(Fail);
  std::shared_ptr<const Entry> Evicted; // released after the lock
  std::lock_guard<std::mutex> Lock(Mu);
  std::shared_ptr<const Entry> Stored = Map.insert(Key, Val, &Evicted);
  if (Stored == Val && Val->isRoot())
    ++RootInserts;
  if (Evicted && Evicted->isRoot())
    ++RootEvictions;
  return Stored;
}

SequenceBuilder IncrementalEngine::open(const LoopNest &Nest, const DepSet &D,
                                        Mode M) {
  SequenceBuilder B;
  B.E = this;
  B.M = M;
  std::shared_ptr<const PrefixState> Own;
  if (Opts.EnableCache) {
    const std::string Key = rootKey(Nest, D, M);
    std::shared_ptr<const Entry> Root = lookup(Key);
    if (!Root) {
      Own = rootState(Nest, D, M);
      Root = insert(Key, Own, nullptr);
    }
    // The key is a hash: only an equal root may be shared.
    if (Root->State == Own ||
        (Root->State->Nest.equals(Nest) && Root->State->Deps == D)) {
      B.Cur = Root->State;
      B.Parent = Root->Id;
      B.Cacheable = true;
      return B;
    }
    Uncacheable.fetch_add(1, std::memory_order_relaxed);
  }
  B.Cur = Own ? std::move(Own) : rootState(Nest, D, M);
  return B;
}

LegalityResult IncrementalEngine::check(const TransformSequence &T,
                                        const LoopNest &Nest, const DepSet &D,
                                        Mode M) {
  SequenceBuilder B = open(Nest, D, M);
  for (const TemplateRef &Step : T.steps())
    if (!B.extend(Step))
      return B.failure();
  return B.finish();
}

IncrementalEngine::Stats IncrementalEngine::stats() const {
  Stats S;
  S.Hits = Hits.load(std::memory_order_relaxed);
  S.Misses = Misses.load(std::memory_order_relaxed);
  S.Uncacheable = Uncacheable.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(Mu);
  S.Inserts = Map.inserts() - RootInserts;
  S.Evictions = Map.evictions() - RootEvictions;
  S.Entries = Map.size() - (RootInserts - RootEvictions);
  return S;
}

void IncrementalEngine::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  RootEvictions = RootInserts;
}

IncrementalEngine &IncrementalEngine::global() {
  static IncrementalEngine *G = new IncrementalEngine();
  return *G;
}
