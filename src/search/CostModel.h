//===- search/CostModel.h - Simulated-locality cost model ----------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The effectiveness half of the Section 5/6 optimizer story: rank legal
/// transformation alternatives without committing to any. A candidate
/// sequence is applied to a scratch copy of the nest, and the accesses of
/// the transformed nest under *small* parameter bindings are streamed
/// through the set-associative cache simulator (src/cachesim/); the
/// resulting miss ratio is the locality cost.
///
/// Each measurement compiles the transformed nest once into slot-resolved
/// code: loop indices and init variables become slots, parameters become
/// constants, arrays become ids in name order, and arithmetic uses the
/// checked helpers of Expr::evaluate (addChecked, subChecked, mulChecked,
/// floorDiv, floorMod). Pass 1 enumerates the nest and records each
/// array's subscript range per dimension; pass 2 enumerates it again and
/// feeds the column-major address of each access straight into CacheSim.
/// No access is materialized and nothing is looked up by name. Array
/// values are still computed, since they can fault (an overflowing or
/// dividing right-hand side) and can move addresses (an array read in a
/// subscript, a bound or an init): pass 1 keeps them in a hashed store
/// when addresses depend on them, pass 2 in a dense buffer laid out like
/// the simulated memory.
///
/// Exactness contract: the stream yields exactly what the interpreter
/// (eval/Evaluator.h) with access recording, a layout inferred from the
/// trace (ArrayLayout) and replayTrace() yield. That interpreter path is
/// the reference, kept in tests/search/CostModelStreamTest.cpp.
///  - Same access order: on each loop entry the reads in its lower bound,
///    upper bound and step; per instance the init reads; per statement the
///    right-hand side's reads depth-first, left to right (a read inside a
///    subscript before the read it indexes), then the reads in the
///    left-hand subscripts, then the write.
///  - Same layout: only arrays that were accessed, in name order, on
///    4KiB-aligned bases with a guard page, column-major, 8-byte elements.
///  - Same outcomes: nullopt on any OverflowGuard trip (bounds, subscripts
///    or values, division by zero and sqrt of a negative value included),
///    when the header or instance budget runs out (counted as the
///    interpreter counts them), and when an array is accessed with two
///    arities; 0.0 when nothing is accessed.
///
/// Measurements are memoized on the sequence's reduce()-canonicalized
/// rendering, so peephole-equivalent prefixes (e.g. two adjacent
/// Unimodular steps and their fused form) are costed exactly once across
/// the whole beam - including across worker threads; the memo is
/// mutex-guarded and a cache entry's value is deterministic because the
/// access stream and simulator are.
///
/// Parallelize never changes the sequential trace, so the trailing
/// Parallelize step the driver appends shares the prefix's measurement.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SEARCH_COSTMODEL_H
#define IRLT_SEARCH_COSTMODEL_H

#include "cachesim/Cache.h"
#include "transform/Sequence.h"

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace irlt {
namespace search {

/// Configuration of the locality measurement.
struct CostModelOptions {
  /// Parameter bindings the nest runs under. Must bind every free
  /// (non-index) symbol of the nest; defaultBindings() fills them in.
  std::map<std::string, int64_t> Params;
  /// Geometry of the simulated cache.
  CacheConfig Cache{8 * 1024, 64, 4};
  /// Instance (and loop header) budget per measurement; a candidate that
  /// exceeds it gets no cost (and is pruned by the driver).
  uint64_t MaxInstances = 1'000'000;
};

/// Memoizing miss-ratio oracle for one source nest.
class CostModel {
public:
  CostModel(const LoopNest &Nest, CostModelOptions Opts);

  /// Simulated miss ratio of Seq(Nest) in [0, 1], or nullopt when the
  /// sequence cannot be applied/executed under the bindings (apply
  /// failure, an arithmetic fault, the budget). Memoized on \p Key, which must
  /// be the reduce()-canonical rendering of \p Seq. Thread-safe.
  std::optional<double> missRatio(const TransformSequence &Seq,
                                  const std::string &Key);

  /// Miss ratio of the untransformed nest (the empty sequence).
  std::optional<double> baseline();

  /// Why the model cannot run at all (e.g. the nest calls an opaque
  /// function it cannot execute); empty when usable.
  const std::string &unusableReason() const { return Unusable; }

  /// Default small bindings: every free (non-index) symbol of \p Nest
  /// mapped to 24 - big enough that a 3-deep nest's working set spills a
  /// tiny cache, small enough to trace in milliseconds.
  static std::map<std::string, int64_t> defaultBindings(const LoopNest &Nest);

private:
  const LoopNest &Nest;
  CostModelOptions Opts;
  std::string Unusable;
  std::mutex MemoMutex;
  std::unordered_map<std::string, std::optional<double>> Memo;

  std::optional<double> measure(const TransformSequence &Seq);
};

} // namespace search
} // namespace irlt

#endif // IRLT_SEARCH_COSTMODEL_H
