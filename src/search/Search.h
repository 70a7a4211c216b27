//===- search/Search.h - Cost-model-guided transformation search ---------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 5 optimizer story, realized: "the loop nest remains
/// unchanged while the transformation system considers the legality and
/// effectiveness of applying various alternative transformations". This
/// is a beam search over transformation *sequences* built from the kernel
/// templates (candidate generation in search/Candidates.h), pruned by the
/// Section 4.3 fast legality machinery, and ranked by the simulated-cache
/// cost model (search/CostModel.h).
///
/// Pruning semantics follow the paper exactly: an intermediate stage need
/// NOT be legal - a prefix is kept alive as long as its per-stage bounds
/// preconditions hold (TypeState propagation) and the anchor-dependence
/// side condition passes; the lexicographic dependence test only gates
/// *finished* candidates, and every accepted leaf is re-confirmed with
/// the full uniform legality test before it can be reported.
///
/// Parallelize is never enumerated as a step: each frontier state is
/// finished by greedily parallelizing its final mapped dependence set
/// (outside-in, as AutoPar does), so the engine subsumes AutoPar/AutoVec
/// - those entry points are now thin presets of this driver.
///
/// Determinism contract (docs/SEARCH.md): for fixed inputs and options,
/// the result - winner, top-k order, and stats - is byte-identical
/// regardless of Threads. Workers only fill preallocated per-index slots;
/// merging, deduplication (on reduce()-canonical keys) and beam selection
/// happen in deterministic index order, and ties are broken by the
/// canonical sequence key.
///
/// Threading model: the expansion work unit is one (frontier state,
/// candidate template) pair - a per-prefix extension - pulled from an
/// atomic counter, so workers steal fine-grained units instead of
/// queueing behind whole states. Requested thread counts are clamped to
/// the hardware concurrency (oversubscribing a deterministic CPU-bound
/// search only adds scheduling overhead), which the contract above makes
/// unobservable. Leaf confirmations run through the prefix-memoized
/// legality engine the caller passes (legality/IncrementalEngine.h), so
/// concurrent workers share each other's surviving prefixes.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SEARCH_SEARCH_H
#define IRLT_SEARCH_SEARCH_H

#include "legality/IncrementalEngine.h"
#include "search/Candidates.h"
#include "search/CostModel.h"
#include "transform/Sequence.h"

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace search {

/// What the search optimizes.
enum class Objective {
  Locality,    ///< minimize simulated cache miss ratio
  Parallelism, ///< maximize parallel loops (AutoPar's score)
  Both         ///< locality first, parallelism as a weighted bonus
};

/// How a state is finished with a trailing Parallelize.
enum class ParMode {
  Greedy,        ///< flag every position that stays lex-non-negative
  InnermostOnly, ///< flag only the innermost position (vectorization)
};

/// Search configuration.
struct SearchOptions {
  Objective Obj = Objective::Both;
  /// Frontier width kept per depth level.
  unsigned Beam = 8;
  /// Maximum number of (non-Parallelize) steps in a candidate sequence.
  unsigned Depth = 2;
  /// Worker threads; results are identical for any value >= 1. Values
  /// beyond std::thread::hardware_concurrency() are clamped.
  unsigned Threads = 1;
  /// How many ranked candidates to report.
  unsigned TopK = 5;
  ParMode Par = ParMode::Greedy;
  /// Per-step candidate space knobs.
  CandidateOptions Candidates;
  /// Cost model: parameter bindings (empty selects defaults), simulated
  /// cache geometry, and the trace budget.
  std::map<std::string, int64_t> CostParams;
  CacheConfig Cache{8 * 1024, 64, 4};
  uint64_t MaxTraceInstances = 1'000'000;
  /// Cooperative cancellation (e.g. a request deadline). When set, it is
  /// polled before every work unit - each (state, candidate) expansion and
  /// each leaf measurement - and once it returns true the search stops
  /// and reports SearchResult::Cancelled. Unset, the search never stops
  /// early and its result is fully deterministic.
  std::function<bool()> Cancelled;
};

/// One ranked candidate sequence (includes any trailing Parallelize).
struct ScoredSequence {
  TransformSequence Seq;
  /// reduce()-canonical rendering; the deterministic tie-break key.
  std::string Key;
  /// Objective cost; lower is better.
  double Cost = 0.0;
  /// Simulated miss ratio, or -1 when the objective never measured it.
  double MissRatio = -1.0;
  /// AutoPar-compatible parallelism score of the trailing Parallelize.
  long ParScore = 0;
  /// Parallel output positions (0-based) after the sequence.
  std::vector<unsigned> ParallelLoops;
};

/// Deterministic search statistics (identical for any thread count).
struct SearchStats {
  uint64_t Enumerated = 0; ///< states considered: root + candidate steps
  uint64_t Pruned = 0;     ///< steps rejected by type-state/anchor/overflow
  uint64_t Deduped = 0;    ///< states merged by canonical key
  uint64_t Leaves = 0;     ///< finished candidates submitted to legality
  uint64_t Legal = 0;      ///< leaves the full legality test confirmed
  /// Finished candidates the analyzer pre-filter (rule E100 on the final
  /// mapped dependence set) rejected without submitting to legality.
  uint64_t AnalyzerPruned = 0;
};

/// The search outcome.
struct SearchResult {
  /// Best legal candidate (same object as Top.front() when present).
  std::optional<ScoredSequence> Best;
  /// Up to TopK legal candidates, best first.
  std::vector<ScoredSequence> Top;
  SearchStats Stats;
  /// Non-empty when the search could not run at all (e.g. a locality
  /// objective on a nest the cost model cannot execute).
  std::string Error;
  /// SearchOptions::Cancelled fired: the search stopped early, and every
  /// other field is incomplete.
  bool Cancelled = false;
};

/// Searches for a legal transformation sequence of \p Nest (dependence
/// set \p D) optimizing \p Opts.Obj. Never mutates the nest. Leaves are
/// confirmed through \p Legality, whose prefix cache they fill.
SearchResult searchTransformations(
    const LoopNest &Nest, const DepSet &D, const SearchOptions &Opts = {},
    legality::IncrementalEngine &Legality =
        legality::IncrementalEngine::global());

} // namespace search
} // namespace irlt

#endif // IRLT_SEARCH_SEARCH_H
