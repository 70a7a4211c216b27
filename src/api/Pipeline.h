//===- api/Pipeline.h - The unified irlt::api facade ---------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stable programmatic surface of the framework (docs/API.md). The
/// paper's pitch is *uniformity* - one legality test, one code generator,
/// one composition rule - and this facade is where that uniformity meets
/// callers: irlt-opt, irlt-search, irlt-fuzz, and the batch engine
/// (src/engine/) are all thin clients of the Pipeline class below instead
/// of hand-wiring parse -> dependence analysis -> legality -> codegen ->
/// validate themselves.
///
/// A Pipeline owns two concurrency-safe memoization caches:
///
///   - dependence-analysis results per nest, keyed by the canonical
///     structural fingerprint (ir/NestHash.h), and
///   - legality prefix states per (nest as written, dependence set,
///     stages consumed), in its own legality::IncrementalEngine;
///
/// repeated nests across a corpus - the common case in fuzz corpora and
/// search ladders - hit the cache instead of re-running Fourier-Motzkin.
/// All cache lookups are sound by construction: the fingerprint
/// canonicalizes exactly the structure the dependence analyzer observes
/// (alpha-renamed index variables, reordered bound terms), and
/// dependence sets carry no variable names, so renamed nests share one;
/// legality verdicts do name the nest's variables, so the engine keys on
/// the nest as written and compares it on every root hit. Analyses and
/// verdicts are deterministic, so a hit returns byte-identical results
/// to a miss. (Legality prefixes are keyed on the stages as written, not
/// on the reduced() form: legality is not reduction-invariant - Figure
/// 1's skew+interchange is rejected staged but legal merged.) Coefficient
/// overflow during analysis degrades to a reported flag / a structured
/// RejectKind::Overflow verdict, never an assertion, and the flag is
/// cached with the entry so hits and misses are indistinguishable.
/// Every entry point is safe to call from multiple threads concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_API_PIPELINE_H
#define IRLT_API_PIPELINE_H

#include "analysis/Analysis.h"
#include "dependence/DepAnalysis.h"
#include "driver/Script.h"
#include "eval/Verify.h"
#include "fuzz/Fuzzer.h"
#include "ir/Parser.h"
#include "legality/IncrementalEngine.h"
#include "search/Search.h"
#include "transform/Sequence.h"
#include "witness/Validate.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace irlt {
namespace api {

/// Cache behavior knobs.
struct PipelineOptions {
  /// Master switch; off turns every cached call into a plain computation
  /// (the cache-correctness tests diff the two configurations).
  bool EnableCache = true;
  /// Dependence-analysis options used for cached analysis runs.
  DepAnalysisOptions DepOptions;
  /// Per-cache entry bound: each cache evicts least-recently-used entries
  /// past it. 0 bounds both caches at the legality engine's 4,096-entry
  /// default (legality::EngineOptions); no setting leaves a cache
  /// unbounded. Eviction is deterministic in the access sequence, and an
  /// evicted entry simply recomputes on its next use to a byte-identical
  /// value - capacity is a memory knob, never a correctness one.
  size_t CacheCapacity = 0;
};

/// A point-in-time snapshot of the cache counters. The Legality* fields
/// count the legality engine's prefix lookups: one per stage consumed,
/// none for an empty sequence. Entries dropped by clearCaches() count
/// as evictions. The reconciliation invariants (pinned by the eviction
/// tests):
///   Hits + Misses == Lookups      (per cache)
///   Inserts - Evictions == Entries
struct CacheStats {
  uint64_t DepHits = 0;
  uint64_t DepMisses = 0;
  uint64_t LegalityHits = 0;
  uint64_t LegalityMisses = 0;
  uint64_t DepLookups = 0;
  uint64_t LegalityLookups = 0;
  uint64_t DepInserts = 0;
  uint64_t DepEvictions = 0;
  uint64_t LegalityInserts = 0;
  uint64_t LegalityEvictions = 0;
  uint64_t DepEntries = 0;
  uint64_t LegalityEntries = 0;

  double depHitRate() const {
    uint64_t N = DepHits + DepMisses;
    return N ? static_cast<double>(DepHits) / static_cast<double>(N) : 0.0;
  }
  double legalityHitRate() const {
    uint64_t N = LegalityHits + LegalityMisses;
    return N ? static_cast<double>(LegalityHits) / static_cast<double>(N)
             : 0.0;
  }
};

/// What irlt-opt --emit emits.
enum class EmitKind { Loop, C };

/// The facade. One instance per tool invocation (or per batch engine);
/// sharing an instance shares its caches.
class Pipeline {
public:
  explicit Pipeline(PipelineOptions Opts = {});
  ~Pipeline();

  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  //===--- Front end --------------------------------------------------------
  /// Parses loop-language source into a nest.
  ErrorOr<LoopNest> loadNest(const std::string &Source) const;

  /// Parses a transformation script against a nest of \p NumLoops loops.
  ErrorOr<TransformSequence> parseScript(const std::string &Script,
                                         unsigned NumLoops) const;

  //===--- Analysis (cached) ------------------------------------------------
  /// The dependence-vector set of \p Nest, memoized on the nest's
  /// canonical fingerprint. The returned pointer stays valid for the
  /// lifetime of the Pipeline (or of the caller's reference, whichever
  /// is longer). When \p Overflowed is non-null it is set to whether the
  /// analysis saturated int64 coefficient arithmetic - such a set must
  /// not be trusted for legality decisions.
  std::shared_ptr<const DepSet> dependences(const LoopNest &Nest,
                                            bool *Overflowed = nullptr);

  /// The uniform legality test, walked through this Pipeline's
  /// prefix-memoized engine (legality/IncrementalEngine.h): only the
  /// stages the engine has not seen are computed. Dependence analysis is
  /// taken from (and fills) the dependence cache; an overflowed analysis
  /// yields a RejectKind::Overflow verdict.
  LegalityResult checkLegality(const TransformSequence &Seq,
                               const LoopNest &Nest);

  /// Same verdict surface via the Section 4.3 type-state fast path,
  /// through the same engine under Mode::Fast keys.
  LegalityResult checkLegalityFast(const TransformSequence &Seq,
                                   const LoopNest &Nest);

  /// Opens an incremental legality builder rooted at \p Nest:
  /// extend(stage) consumes one stage and reports the verdict plus
  /// witness provenance (stage index, template, RejectKind), paying only
  /// that stage's mapping cost; finish() runs the final lexicographic
  /// test. THE entry point for callers that grow sequences one stage at
  /// a time (search frontiers, interactive drivers) - whole-sequence
  /// checkLegality is a convenience over the same engine, so the two
  /// share prefixes. The builder points into this Pipeline's engine, so
  /// it must not be extended after the Pipeline is destroyed. Dependence
  /// analysis comes from (and fills) the dependence cache; if it
  /// saturated, the returned builder starts failed with the same
  /// Overflow verdict checkLegality would report.
  legality::SequenceBuilder openSequence(const LoopNest &Nest,
                                         legality::Mode M =
                                             legality::Mode::Full);

  /// The static diagnostic engine (docs/ANALYSIS.md): rule-registry
  /// analysis of \p Seq against \p Nest, with full rejection provenance
  /// and lint warnings. Dependence analysis comes from (and fills) the
  /// dependence cache; a saturated analysis yields one E104 finding,
  /// matching checkLegality's RejectKind::Overflow verdict.
  analysis::AnalysisReport analyze(const TransformSequence &Seq,
                                   const LoopNest &Nest,
                                   const analysis::AnalysisOptions &Opts = {});

  //===--- Transformation ---------------------------------------------------
  /// The uniform code generator: applies \p Seq to \p Nest.
  ErrorOr<LoopNest> apply(const TransformSequence &Seq,
                          const LoopNest &Nest) const;

  /// Convenience: parseScript + apply in one step.
  ErrorOr<LoopNest> applyScript(const LoopNest &Nest,
                                const std::string &Script);

  /// Renders \p Nest as loop-language source or C.
  std::string emit(const LoopNest &Nest, EmitKind Kind) const;

  /// The Figure 5 LB/UB/STEP matrices rendering.
  std::string boundsMatrices(const LoopNest &Nest) const;

  //===--- Search -----------------------------------------------------------
  /// The cost-model-guided beam search (docs/SEARCH.md). Dependence
  /// analysis comes from the cache, and leaves are confirmed through
  /// this Pipeline's legality engine.
  search::SearchResult searchAuto(const LoopNest &Nest,
                                  const search::SearchOptions &Opts);

  //===--- Validation -------------------------------------------------------
  /// Bounded concrete-execution cross-check of candidate sequences with
  /// graceful degradation (docs/LEGALITY.md).
  witness::LadderResult
  validate(const LoopNest &Nest,
           const std::vector<TransformSequence> &Candidates,
           const witness::ValidateOptions &Opts) const;

  /// Machine-checkable certificate for a legality verdict, plus the
  /// third-party checker. Both run the uncached isLegal() walk; only the
  /// dependence set comes from this Pipeline's cache.
  witness::Certificate certify(const TransformSequence &Seq,
                               const LoopNest &Nest);
  std::string checkCertificate(const witness::Certificate &C,
                               const TransformSequence &Seq,
                               const LoopNest &Nest);

  /// Concrete-execution equivalence check of a transformed nest.
  VerifyResult verify(const LoopNest &Original, const LoopNest &Transformed,
                      const EvalConfig &Config) const;

  //===--- Cache management -------------------------------------------------
  CacheStats cacheStats() const;
  void clearCaches();

private:
  struct Impl;
  std::unique_ptr<Impl> M;
};

/// Facade entry point for the differential fuzzer, so irlt-fuzz is a
/// client of irlt::api like every other driver.
fuzz::FuzzStats runFuzzer(const fuzz::FuzzOptions &Opts);

} // namespace api
} // namespace irlt

#endif // IRLT_API_PIPELINE_H
