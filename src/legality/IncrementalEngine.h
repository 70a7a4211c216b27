//===- legality/IncrementalEngine.h - Prefix-memoized legality -----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental legality engine (docs/LEGALITY.md). The uniform test
/// of Section 3.2 walks a sequence stage by stage, and every per-stage
/// quantity - the concrete nest (full mode), the Section 4.3 type state
/// (fast mode), and the mapped dependence set - depends only on the root
/// (nest, dependence set) and the stages consumed so far. This engine
/// memoizes exactly that: a bounded, concurrency-safe cache of surviving
/// prefix states plus stage-rejection verdicts, keyed per prefix, so
/// extending a sequence by one stage pays only that stage's mapping cost
/// instead of re-walking the whole chain. A stage is computed in one
/// place, stepStage(), which builders run on a cache miss and the static
/// analyzer runs uncached. Every engine on the library's paths has an
/// owner: an api::Pipeline holds one, and a search uses the one its
/// caller passes or builds its own for the call. The uncached
/// whole-sequence walks, isLegal() and isLegalFast() (transform/), are
/// the ground truth: check()'s verdicts - RejectKind, Diag provenance,
/// rendered Reason, final mapped set - are byte-identical to theirs, which
/// the IncrementalEquivalence property suite pins.
///
/// Cache key discipline (the soundness core):
///
///  - A root is the nest *as written* (index-variable names, loop kinds,
///    bounds, inits, body, array names, body index variables), the
///    dependence set and the mode. Cached states and verdicts carry the
///    nest's own variable names (a rejection reason reads `type(u_2, x)`),
///    so an alpha-renamed nest is a different root. The dependence set is
///    part of the root because the same nest is routinely checked against
///    synthetic sets (the fuzzer, the benchmarks). A root's key is a
///    64-bit hash (LoopNest::structuralHash() and the set's), and a lookup
///    counts as found only once the stored root's nest and set compare
///    equal to the query; a different root under the same hash leaves the
///    builder uncacheable, and it never adopts or overwrites that entry.
///  - A stage's key is its parent entry's id plus the stage *as written*
///    (its str()), never the reduced() form: legality is not
///    reduction-invariant (Figure 1's skew+interchange is rejected staged
///    but legal merged), so reduced() remains the search frontier's dedup
///    key and nothing more. Entry ids are never reused, so a key names one
///    prefix of one root, even once its parent has been evicted, and its
///    length does not grow with the prefix. Spellings that render to the
///    same stages still share entries.
///  - Saturation is uncacheable: a stage whose arithmetic saturated
///    produced a RejectKind::Overflow verdict through saturating
///    arithmetic and is never inserted. Surviving states are
///    saturation-free by construction (the uncached walk rejects a stage
///    the moment its guard trips, so only guard-clean states survive a
///    stage).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_LEGALITY_INCREMENTALENGINE_H
#define IRLT_LEGALITY_INCREMENTALENGINE_H

#include "support/Lru.h"
#include "transform/Sequence.h"
#include "transform/TypeState.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace legality {

/// Which walk stepStage() runs: isLegal()'s or isLegalFast()'s. The two
/// differ in per-stage operation order and in what they materialize (Full
/// generates concrete bounds each stage; Fast propagates type states and
/// only materializes for extension templates without a type rule), so
/// their states are cached under distinct keys.
enum class Mode {
  Full, ///< isLegal(): checkPreconditions / anchor / apply / map
  Fast, ///< isLegalFast(): anchor / mapTypes, lazy materialization
};

/// The immutable snapshot of the legality walk after a surviving prefix.
/// Shared across builders via shared_ptr<const>; never mutated after
/// construction.
struct PrefixState {
  /// Stages consumed.
  unsigned Len = 0;
  /// Full mode: the concrete nest after the prefix. Fast mode: the
  /// materialized nest through AppliedThrough stages (the lazy fallback
  /// for extension templates), i.e. still the root nest until a Custom
  /// stage forces materialization.
  LoopNest Nest;
  /// Fast mode: the Section 4.3 type state after the prefix. (Full mode
  /// recomputes the state from Nest per stage, exactly like isLegal().)
  NestTypeState Types;
  /// The dependence set mapped through the prefix.
  DepSet Deps;
  /// How many stages Nest has materialized (always Len in full mode).
  size_t AppliedThrough = 0;
};

/// What one stage of the walk produced: the state after the stage when
/// the prefix survives it, else the stage rejection.
struct StageOutcome {
  /// Set when the prefix survives the stage.
  std::optional<PrefixState> Next;
  /// The stage rejection otherwise: RejectKind plus a Diag carrying the
  /// stage index and template (the witness provenance).
  LegalityResult Fail;
  /// The stage's OverflowGuard tripped (only Overflow verdicts carry it):
  /// the outcome came from saturated arithmetic and is never cached.
  bool Saturated = false;
};

/// The one stage function of the Section 3.2 walk: runs stage P.Len + 1,
/// i.e. \p Steps[P.Len], on the prefix state \p P under one
/// OverflowGuard. \p Steps holds the stages as written at least through
/// that one; fast mode materializes Steps[P.AppliedThrough .. P.Len] when
/// the stage has no type rule. SequenceBuilder::extend() and the analyzer
/// (analysis::analyzeSequence) both step through it, so their verdicts
/// agree by construction. Consults no cache.
StageOutcome stepStage(const PrefixState &P,
                       const std::vector<TemplateRef> &Steps, Mode M);

class IncrementalEngine;

/// A handle on an open prefix: extend() consumes one stage (a cache hit,
/// or stepStage() on a miss) and reports whether it survived; failure()
/// carries the structured stage rejection (RejectKind + Diag with stage
/// index and template - the witness provenance); finish() runs the final
/// lexicographic test and returns the whole-sequence verdict. The verdict
/// surface is byte-identical to the uncached whole-sequence walk over the
/// same stages.
///
/// A builder is a cheap value (a shared pointer into the engine's cache
/// plus the as-written stage list); copying one forks the prefix, which
/// is how a search expands several extensions of one state. Builders are
/// not thread-safe individually, but any number of builders may extend
/// concurrently against the same engine.
class SequenceBuilder {
public:
  /// A builder that is already failed (e.g. the dependence analysis
  /// overflowed before any stage could run): extend() refuses every
  /// stage and finish() returns \p Verdict.
  static SequenceBuilder failed(LegalityResult Verdict);

  /// Consumes one stage: the cached outcome of this prefix when there is
  /// one, else stepStage(), whose outcome is then cached unless it
  /// saturated. Returns true when the prefix survives; false when the
  /// stage was rejected (or the builder had already failed), in which
  /// case failure() holds the verdict and every further extend() keeps
  /// returning false.
  bool extend(const TemplateRef &Step);

  /// Whole-sequence verdict of the stages consumed so far: the sticky
  /// stage rejection when failed, else the final lexicographic test on
  /// the current mapped set (Section 3.2 part (a)).
  LegalityResult finish() const;

  bool hasFailed() const { return Failed; }
  /// The sticky stage rejection; only meaningful when hasFailed().
  const LegalityResult &failure() const { return FailR; }

  /// Stages consumed (including the rejected one when failed).
  unsigned length() const { return static_cast<unsigned>(Steps.size()); }
  /// The dependence set mapped through the surviving prefix.
  const DepSet &deps() const;
  /// Loop count after the surviving prefix.
  unsigned outputLoops() const;
  /// The stages consumed so far, as written.
  const std::vector<TemplateRef> &steps() const { return Steps; }

private:
  friend class IncrementalEngine;
  SequenceBuilder() = default;

  IncrementalEngine *E = nullptr;
  Mode M = Mode::Full;
  std::shared_ptr<const PrefixState> Cur;
  std::vector<TemplateRef> Steps;
  /// The id of the cache entry Cur came from: the next stage's key starts
  /// with it. Only meaningful when Cacheable.
  uint64_t Parent = 0;
  /// The engine's cache is on and this builder's root is the one cached
  /// under its key.
  bool Cacheable = false;
  bool Failed = false;
  LegalityResult FailR;
};

/// Engine knobs (namespace scope: a nested aggregate cannot be a `= {}`
/// default argument of its enclosing class under GCC 12).
struct EngineOptions {
  /// Entry bound, root and prefix entries together; 0 = unbounded.
  /// Eviction recomputes on next use to a byte-identical value - a memory
  /// knob, never correctness. An entry holds a whole prefix state (about
  /// 2.7 KB for a 3-deep nest) and an auto request inserts dozens, so the
  /// bound is what caps a long-lived process: 4096 entries are about
  /// 11 MB. A working set of more prefixes than that misses on every
  /// repeat (EXPERIMENTS.md).
  size_t CacheCapacity = 1 << 12;
  /// Off turns every extend into a plain computation (the equivalence
  /// tests diff the two configurations).
  bool EnableCache = true;
};

/// Cache counters. They count prefix entries, one lookup per stage
/// walked; the root entries that share the cache's bound are not counted.
/// Reconciliation invariants (pinned by tests):
///   Hits + Misses == Lookups; Inserts - Evictions == Entries.
struct EngineStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  /// Stage outcomes computed but not inserted because their arithmetic
  /// saturated, plus builders left uncacheable because a different root
  /// was cached under their root's hash.
  uint64_t Uncacheable = 0;
};

/// The prefix-memoized engine: one bounded LRU cache of prefix states
/// and stage rejections under a mutex, with insert-race first-wins
/// semantics (both computations produced identical values). All entry
/// points are safe to call from multiple threads concurrently; cache
/// on/off, capacity, and thread count never change a verdict byte.
class IncrementalEngine {
public:
  using Options = EngineOptions;
  using Stats = EngineStats;

  explicit IncrementalEngine(Options O = {});

  IncrementalEngine(const IncrementalEngine &) = delete;
  IncrementalEngine &operator=(const IncrementalEngine &) = delete;

  /// Opens a builder rooted at (\p Nest, \p D). Cheap: a hash of the
  /// nest and the set finds the cached root, whose state the builder
  /// shares; a new root is cached for the extensions to key on.
  SequenceBuilder open(const LoopNest &Nest, const DepSet &D,
                       Mode M = Mode::Full);

  /// The whole-sequence test through the prefix cache: open + extend per
  /// stage + finish. Byte-identical on every input to isLegal() (Full)
  /// or isLegalFast() (Fast), the uncached walks.
  LegalityResult check(const TransformSequence &T, const LoopNest &Nest,
                       const DepSet &D, Mode M);

  Stats stats() const;
  void clear();

  /// A process-wide engine that no library path reaches. It is kept only
  /// because the request benchmark's harness (perfbench/harness/
  /// InProcess.cpp and ServeProbe.cpp) still reads and clears it; the
  /// benchmark change that drops those reads deletes it.
  static IncrementalEngine &global();

private:
  friend class SequenceBuilder;

  /// A cache slot. A root entry holds the root's state (Len 0); a stage
  /// entry holds exactly one of State (the prefix survived) or Fail (the
  /// stage rejected). Id starts the keys of the entry's extensions.
  struct Entry {
    uint64_t Id = 0;
    std::shared_ptr<const PrefixState> State;
    std::shared_ptr<const LegalityResult> Fail;

    bool isRoot() const { return State && State->Len == 0; }
  };

  std::shared_ptr<const Entry> lookup(const std::string &Key);
  /// First wins: returns the entry already under \p Key, if any.
  std::shared_ptr<const Entry>
  insert(const std::string &Key, std::shared_ptr<const PrefixState> State,
         std::shared_ptr<const LegalityResult> Fail);

  Options Opts;
  mutable std::mutex Mu;
  LruMap<Entry> Map;
  /// Root entries inserted into and evicted from Map (under Mu); stats()
  /// leaves them out.
  uint64_t RootInserts = 0, RootEvictions = 0;
  std::atomic<uint64_t> NextId{0};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Uncacheable{0};
};

} // namespace legality
} // namespace irlt

#endif // IRLT_LEGALITY_INCREMENTALENGINE_H
