//===- legality/IncrementalEngine.cpp - Prefix-memoized legality ---------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "legality/IncrementalEngine.h"

#include "ir/NestHash.h"
#include "support/MathUtils.h"

#include <utility>

using namespace irlt;
using namespace irlt::legality;

//===----------------------------------------------------------------------===//
// The legacy whole-sequence walks, verbatim. These are the ground truth
// the incremental path below must match byte for byte - same operation
// order, same Diag strings, same stage attribution - and the uncached
// "legacy" series in the benchmarks. stepStage() runs one stage exactly
// as they do, and the IncrementalEquivalence suite holds it to them, so
// a change to either side must be made to both.
//===----------------------------------------------------------------------===//

static LegalityResult referenceFull(const TransformSequence &T,
                                    const LoopNest &Nest, const DepSet &D) {
  LegalityResult R;
  using RK = LegalityResult::RejectKind;

  // Part (b): loop-bounds preconditions, stage by stage. Each stage's
  // preconditions are evaluated against the nest produced by the previous
  // stages, so the bounds pipeline runs alongside; the dependence set is
  // threaded along for the anchor-dependence side condition (see
  // checkAnchorDependence). Coefficient overflow at any stage degrades to
  // a clean Overflow rejection rather than UB.
  LoopNest Cur = Nest;
  DepSet CurDeps = D;
  unsigned Stage = 0;
  for (const TemplateRef &Step : T.steps()) {
    ++Stage;
    OverflowGuard Guard;
    auto overflowed = [&]() {
      if (!Guard.triggered())
        return false;
      R.reject(RK::Overflow,
               Diag::error("coefficient arithmetic overflows the int64 "
                           "range (bounds overflow)")
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return true;
    };
    std::string E = Step->checkPreconditions(Cur);
    if (overflowed())
      return R;
    if (!E.empty()) {
      R.reject(RK::BoundsPrecondition,
               Diag::error("bounds precondition violated: " + E)
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return R;
    }
    E = checkAnchorDependence(*Step, NestTypeState::fromNest(Cur), CurDeps);
    if (overflowed())
      return R;
    if (!E.empty()) {
      R.reject(RK::DependencePrecondition,
               Diag::error("dependence precondition violated: " + E)
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return R;
    }
    ErrorOr<LoopNest> Next = Step->apply(Cur);
    if (overflowed())
      return R;
    if (!Next) {
      R.reject(RK::ApplyFailure, Diag::error(Next.message())
                                     .atStage(Stage)
                                     .inTemplate(Step->str()));
      return R;
    }
    Cur = Next.take();
    CurDeps = Step->mapDependences(CurDeps);
    if (overflowed())
      return R;
  }

  // Part (a): the dependence test on the *final* mapped set only -
  // intermediate sets may be lexicographically negative (Section 3.2).
  R.FinalDeps = std::move(CurDeps);
  for (const DepVector &V : R.FinalDeps.vectors()) {
    if (V.canBeLexNegative()) {
      R.reject(RK::LexNegative,
               Diag::error("transformed dependence vector " + V.str() +
                           " admits a lexicographically negative tuple"));
      return R;
    }
  }
  R.Legal = true;
  return R;
}

static LegalityResult referenceFast(const TransformSequence &T,
                                    const LoopNest &Nest, const DepSet &D) {
  LegalityResult R;
  using RK = LegalityResult::RejectKind;
  NestTypeState State = NestTypeState::fromNest(Nest);

  // Lazy fallback materialization for extension templates: Applied tracks
  // the concrete nest up to (but excluding) step NextToApply.
  LoopNest Applied = Nest;
  size_t AppliedThrough = 0;

  DepSet CurDeps = D;
  unsigned Stage = 0;
  for (const TemplateRef &Step : T.steps()) {
    ++Stage;
    OverflowGuard Guard;
    auto overflowed = [&]() {
      if (!Guard.triggered())
        return false;
      R.reject(RK::Overflow,
               Diag::error("coefficient arithmetic overflows the int64 "
                           "range (bounds overflow)")
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return true;
    };
    std::string E = checkAnchorDependence(*Step, State, CurDeps);
    if (overflowed())
      return R;
    if (!E.empty()) {
      R.reject(RK::DependencePrecondition,
               Diag::error("dependence precondition violated: " + E)
                   .atStage(Stage)
                   .inTemplate(Step->name()));
      return R;
    }
    std::optional<ErrorOr<NestTypeState>> Next = mapTypes(*Step, State);
    if (overflowed())
      return R;
    if (Next) {
      if (!*Next) {
        R.reject(RK::BoundsPrecondition,
                 Diag::error("bounds precondition violated: " +
                             Next->message())
                     .atStage(Stage)
                     .inTemplate(Step->name()));
        return R;
      }
      State = Next->take();
      CurDeps = Step->mapDependences(CurDeps);
      if (overflowed())
        return R;
      continue;
    }
    // No type rule: materialize the concrete nest up to this stage and
    // apply the step for real.
    for (size_t I = AppliedThrough; I + 1 < Stage; ++I) {
      ErrorOr<LoopNest> NextNest = T.steps()[I]->apply(Applied);
      if (overflowed())
        return R;
      if (!NextNest) {
        R.reject(RK::ApplyFailure,
                 Diag::error(NextNest.message())
                     .atStage(static_cast<unsigned>(I + 1))
                     .inTemplate(T.steps()[I]->str()));
        return R;
      }
      Applied = NextNest.take();
    }
    ErrorOr<LoopNest> NextNest = Step->apply(Applied);
    if (overflowed())
      return R;
    if (!NextNest) {
      R.reject(RK::ApplyFailure, Diag::error(NextNest.message())
                                     .atStage(Stage)
                                     .inTemplate(Step->str()));
      return R;
    }
    Applied = NextNest.take();
    AppliedThrough = Stage;
    State = NestTypeState::fromNest(Applied);
    CurDeps = Step->mapDependences(CurDeps);
    if (overflowed())
      return R;
  }

  // The uniform dependence test on the final mapped set.
  R.FinalDeps = std::move(CurDeps);
  for (const DepVector &V : R.FinalDeps.vectors()) {
    if (V.canBeLexNegative()) {
      R.reject(RK::LexNegative,
               Diag::error("transformed dependence vector " + V.str() +
                           " admits a lexicographically negative tuple"));
      return R;
    }
  }
  R.Legal = true;
  return R;
}

LegalityResult IncrementalEngine::reference(const TransformSequence &T,
                                            const LoopNest &Nest,
                                            const DepSet &D, Mode M) {
  return M == Mode::Full ? referenceFull(T, Nest, D)
                         : referenceFast(T, Nest, D);
}

//===----------------------------------------------------------------------===//
// The stage function: one stage of the walks above, on a PrefixState. A
// surviving stage is saturation-free by construction (the guard check
// after every operation rejects first), so only Overflow verdicts carry
// Saturated.
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

  std::string NewKey;
  if (Cacheable) {
    // Key extension mirrors the Pipeline's rule: built under a guard so a
    // rendering that saturates (it should not, but templates are
    // extensible) makes the rest of this builder uncacheable.
    OverflowGuard Guard;
    NewKey = Key + '\x02' + Step->str();
    if (Guard.triggered()) {
      Cacheable = false;
      NewKey.clear();
    }
  }

  const bool UseCache = Cacheable && E && E->Opts.EnableCache;
  if (UseCache) {
    if (std::shared_ptr<const IncrementalEngine::Entry> Hit =
            E->lookup(NewKey)) {
      E->Hits.fetch_add(1, std::memory_order_relaxed);
      if (Hit->State) {
        Cur = Hit->State;
        Key = std::move(NewKey);
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
    if (UseCache && !C.Saturated) {
      IncrementalEngine::Entry En;
      En.State = NS;
      std::shared_ptr<const IncrementalEngine::Entry> Stored =
          E->insert(NewKey, std::move(En));
      NS = Stored->State; // insert-race: first entry wins
    }
    Cur = std::move(NS);
    Key = std::move(NewKey);
    return true;
  }

  Failed = true;
  FailR = std::move(C.Fail);
  if (UseCache && !C.Saturated) {
    IncrementalEngine::Entry En;
    En.Fail = std::make_shared<const LegalityResult>(FailR);
    E->insert(NewKey, std::move(En));
  }
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
IncrementalEngine::insert(const std::string &Key, Entry E) {
  auto Val = std::make_shared<const Entry>(std::move(E));
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.insert(Key, std::move(Val));
}

SequenceBuilder IncrementalEngine::open(const LoopNest &Nest, const DepSet &D,
                                        Mode M) {
  SequenceBuilder B;
  B.E = this;
  B.M = M;
  auto Root = std::make_shared<PrefixState>();
  Root->Nest = Nest;
  Root->Deps = D;
  if (M == Mode::Fast)
    Root->Types = NestTypeState::fromNest(Nest);
  B.Cur = std::move(Root);
  // Root key: nest fingerprint + rendered dependence set + mode. A
  // saturated fingerprint could collide with a different root's, so such
  // a root is simply not cacheable (the api::Pipeline rule).
  OverflowGuard Guard;
  B.Key = canonicalNestKey(Nest);
  B.Key += '\x01';
  B.Key += D.str();
  B.Key += '\x01';
  B.Key += M == Mode::Fast ? 'F' : 'L';
  B.Cacheable = !Guard.triggered();
  if (!B.Cacheable) {
    Uncacheable.fetch_add(1, std::memory_order_relaxed);
    B.Key.clear();
  }
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
  S.Inserts = Map.inserts();
  S.Evictions = Map.evictions();
  S.Entries = Map.size();
  return S;
}

void IncrementalEngine::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
}

IncrementalEngine &IncrementalEngine::global() {
  static IncrementalEngine *G = new IncrementalEngine();
  return *G;
}

//===----------------------------------------------------------------------===//
// The whole-sequence entry points, thin shims over the global engine. The
// declarations stay in transform/Sequence.h and transform/TypeState.h;
// library callers without an engine of their own - witness certify/check,
// the fuzz oracles, AutoPar's search leaves - share its prefix cache.
//===----------------------------------------------------------------------===//

LegalityResult irlt::isLegal(const TransformSequence &T, const LoopNest &Nest,
                             const DepSet &D) {
  return IncrementalEngine::global().check(T, Nest, D, Mode::Full);
}

LegalityResult irlt::isLegalFast(const TransformSequence &T,
                                 const LoopNest &Nest, const DepSet &D) {
  return IncrementalEngine::global().check(T, Nest, D, Mode::Fast);
}
