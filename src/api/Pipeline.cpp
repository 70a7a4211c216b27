//===- api/Pipeline.cpp - The unified irlt::api facade -------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"

#include "bounds/BoundsMatrices.h"
#include "codegen/CEmitter.h"
#include "deps/DepOracle.h"
#include "ir/NestHash.h"
#include "support/Lru.h"
#include "support/MathUtils.h"
#include "transform/TypeState.h"
#include "witness/Witness.h"

#include <atomic>

using namespace irlt;
using namespace irlt::api;

namespace {

/// A cached dependence analysis. Overflowed records whether coefficient
/// arithmetic saturated during the run: such a DepSet is untrustworthy,
/// and storing the flag next to the value keeps cache hits and misses
/// indistinguishable (a hit on a saturated entry reports overflow exactly
/// like the original computation did).
struct DepEntry {
  DepSet Deps;
  bool Overflowed = false;
};

/// The legality engine's bound is the Pipeline's, except that 0 keeps the
/// engine's own default rather than lifting the bound.
legality::EngineOptions engineOptions(const PipelineOptions &O) {
  legality::EngineOptions EO;
  if (O.CacheCapacity)
    EO.CacheCapacity = O.CacheCapacity;
  EO.EnableCache = O.EnableCache;
  return EO;
}

} // namespace

struct Pipeline::Impl {
  PipelineOptions Opts;

  /// The dependence backend every facade call analyzes through - the
  /// production pipeline oracle configured with Opts.DepOptions
  /// (deps/DepOracle.h). Alternative backends (fm-exact) are reached via
  /// the registry by the differential tooling, not by the facade.
  std::unique_ptr<deps::DepOracle> Oracle;

  /// The dependence cache. DepMu guards only the lookup/insert: analysis
  /// runs outside the lock, and on a miss race the first insert wins
  /// (both computations produced identical values, so which copy
  /// survives is unobservable). Callers still holding a shared_ptr to an
  /// evicted entry keep a valid reference.
  mutable std::mutex DepMu;
  LruMap<DepEntry> DepCache;
  std::atomic<uint64_t> DepHits{0}, DepMisses{0};

  /// The legality cache: prefix states of the Section 3.2 walk, shared by
  /// checkLegality, checkLegalityFast, openSequence and searchAuto.
  legality::IncrementalEngine Legality;

  explicit Impl(const PipelineOptions &O)
      : Opts(O), Oracle(deps::makePipelineOracle(O.DepOptions)),
        DepCache(O.CacheCapacity), Legality(engineOptions(O)) {}
};

Pipeline::Pipeline(PipelineOptions Opts)
    : M(std::make_unique<Impl>(Opts)) {}

Pipeline::~Pipeline() = default;

ErrorOr<LoopNest> Pipeline::loadNest(const std::string &Source) const {
  OverflowGuard Guard;
  ErrorOr<LoopNest> N = parseLoopNest(Source);
  if (Guard.triggered())
    return Failure(Diag::error(
        "constant folding overflows the int64 range while parsing the nest"));
  return N;
}

ErrorOr<TransformSequence> Pipeline::parseScript(const std::string &Script,
                                                 unsigned NumLoops) const {
  OverflowGuard Guard;
  ErrorOr<TransformSequence> Seq = parseTransformScript(Script, NumLoops);
  if (Guard.triggered())
    return Failure(Diag::error(
        "coefficient arithmetic overflows the int64 range in the script"));
  return Seq;
}

std::shared_ptr<const DepSet> Pipeline::dependences(const LoopNest &Nest,
                                                    bool *Overflowed) {
  // The oracle runs its analysis under an OverflowGuard
  // (support/MathUtils.h): generated and adversarial nests can push
  // Fourier-Motzkin coefficients out of int64, and the facade degrades
  // that to a reported flag instead of an assertion. The flag lives in
  // the cache entry so a hit on a saturated analysis reports overflow
  // exactly like the miss that computed it.
  auto computeEntry = [&] {
    deps::DepResult R = M->Oracle->analyze(Nest);
    return DepEntry{std::move(R.Deps), R.Overflowed};
  };
  auto finish = [&](std::shared_ptr<const DepEntry> E) {
    if (Overflowed)
      *Overflowed = E->Overflowed;
    return std::shared_ptr<const DepSet>(E, &E->Deps);
  };
  if (!M->Opts.EnableCache)
    return finish(std::make_shared<const DepEntry>(computeEntry()));
  bool KeyOverflow = false;
  std::string Key;
  {
    OverflowGuard Guard;
    Key = canonicalNestKey(Nest);
    KeyOverflow = Guard.triggered();
  }
  // A saturated fingerprint could collide with a different nest's, so
  // such a nest is simply not cacheable.
  if (KeyOverflow)
    return finish(std::make_shared<const DepEntry>(computeEntry()));
  {
    std::lock_guard<std::mutex> Lock(M->DepMu);
    if (std::shared_ptr<const DepEntry> Hit = M->DepCache.lookup(Key)) {
      M->DepHits.fetch_add(1, std::memory_order_relaxed);
      return finish(Hit);
    }
  }
  M->DepMisses.fetch_add(1, std::memory_order_relaxed);
  auto Computed = std::make_shared<const DepEntry>(computeEntry());
  std::lock_guard<std::mutex> Lock(M->DepMu);
  return finish(M->DepCache.insert(Key, std::move(Computed)));
}

/// The shared "analysis saturated" verdict: a DepSet computed through
/// saturating arithmetic cannot support a trustworthy legality test.
static LegalityResult depOverflowVerdict() {
  LegalityResult R;
  R.reject(LegalityResult::RejectKind::Overflow,
           Diag::error("dependence analysis overflows the int64 "
                       "coefficient range"));
  return R;
}

LegalityResult Pipeline::checkLegality(const TransformSequence &Seq,
                                       const LoopNest &Nest) {
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = dependences(Nest, &DepOverflow);
  if (DepOverflow)
    return depOverflowVerdict();
  return M->Legality.check(Seq, Nest, *D, legality::Mode::Full);
}

LegalityResult Pipeline::checkLegalityFast(const TransformSequence &Seq,
                                           const LoopNest &Nest) {
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = dependences(Nest, &DepOverflow);
  if (DepOverflow)
    return depOverflowVerdict();
  return M->Legality.check(Seq, Nest, *D, legality::Mode::Fast);
}

legality::SequenceBuilder Pipeline::openSequence(const LoopNest &Nest,
                                                 legality::Mode Md) {
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = dependences(Nest, &DepOverflow);
  if (DepOverflow)
    // Same degradation as checkLegality: the builder starts failed with
    // the shared saturated-analysis verdict, and extend() refuses stages.
    return legality::SequenceBuilder::failed(depOverflowVerdict());
  return M->Legality.open(Nest, *D, Md);
}

analysis::AnalysisReport Pipeline::analyze(const TransformSequence &Seq,
                                           const LoopNest &Nest,
                                           const analysis::AnalysisOptions &Opts) {
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = dependences(Nest, &DepOverflow);
  if (DepOverflow) {
    // Mirror checkLegality's Overflow verdict so the two surfaces agree.
    analysis::AnalysisReport R;
    analysis::Finding F;
    F.RuleId = "E104";
    F.Severity = analysis::FindingSeverity::Error;
    F.Citation = analysis::findRule("E104")->Citation;
    F.Message = "dependence analysis overflows the int64 coefficient range";
    R.Findings.push_back(std::move(F));
    return R;
  }
  return analysis::analyzeSequence(Seq, Nest, *D, Opts);
}

ErrorOr<LoopNest> Pipeline::apply(const TransformSequence &Seq,
                                  const LoopNest &Nest) const {
  return applySequence(Seq, Nest);
}

ErrorOr<LoopNest> Pipeline::applyScript(const LoopNest &Nest,
                                        const std::string &Script) {
  ErrorOr<TransformSequence> Seq = parseScript(Script, Nest.numLoops());
  if (!Seq)
    return Failure(Seq.takeDiags());
  return apply(*Seq, Nest);
}

std::string Pipeline::emit(const LoopNest &Nest, EmitKind Kind) const {
  return Kind == EmitKind::C ? emitC(Nest) : Nest.str();
}

std::string Pipeline::boundsMatrices(const LoopNest &Nest) const {
  return BoundsMatrices::fromNest(Nest).str();
}

search::SearchResult Pipeline::searchAuto(const LoopNest &Nest,
                                          const search::SearchOptions &Opts) {
  bool DepOverflow = false;
  std::shared_ptr<const DepSet> D = dependences(Nest, &DepOverflow);
  if (DepOverflow) {
    search::SearchResult R;
    R.Error = "dependence analysis overflows the int64 coefficient range";
    return R;
  }
  return search::searchTransformations(Nest, *D, Opts, M->Legality);
}

witness::LadderResult
Pipeline::validate(const LoopNest &Nest,
                   const std::vector<TransformSequence> &Candidates,
                   const witness::ValidateOptions &Opts) const {
  return witness::validateLadder(Nest, Candidates, Opts);
}

witness::Certificate Pipeline::certify(const TransformSequence &Seq,
                                       const LoopNest &Nest) {
  std::shared_ptr<const DepSet> D = dependences(Nest);
  return witness::certify(Seq, Nest, *D);
}

std::string Pipeline::checkCertificate(const witness::Certificate &C,
                                       const TransformSequence &Seq,
                                       const LoopNest &Nest) {
  std::shared_ptr<const DepSet> D = dependences(Nest);
  return witness::checkCertificate(C, Seq, Nest, *D);
}

VerifyResult Pipeline::verify(const LoopNest &Original,
                              const LoopNest &Transformed,
                              const EvalConfig &Config) const {
  return verifyTransformed(Original, Transformed, Config);
}

CacheStats Pipeline::cacheStats() const {
  CacheStats S;
  S.DepHits = M->DepHits.load(std::memory_order_relaxed);
  S.DepMisses = M->DepMisses.load(std::memory_order_relaxed);
  S.DepLookups = S.DepHits + S.DepMisses;
  {
    std::lock_guard<std::mutex> Lock(M->DepMu);
    S.DepInserts = M->DepCache.inserts();
    S.DepEvictions = M->DepCache.evictions();
    S.DepEntries = M->DepCache.size();
  }
  legality::EngineStats L = M->Legality.stats();
  S.LegalityHits = L.Hits;
  S.LegalityMisses = L.Misses;
  S.LegalityLookups = L.Hits + L.Misses;
  S.LegalityInserts = L.Inserts;
  S.LegalityEvictions = L.Evictions;
  S.LegalityEntries = L.Entries;
  return S;
}

void Pipeline::clearCaches() {
  {
    std::lock_guard<std::mutex> Lock(M->DepMu);
    M->DepCache.clear();
  }
  M->Legality.clear();
}

fuzz::FuzzStats api::runFuzzer(const fuzz::FuzzOptions &Opts) {
  return fuzz::runFuzzer(Opts);
}
