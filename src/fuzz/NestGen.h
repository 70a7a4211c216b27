//===- fuzz/NestGen.h - Random loop-nest generation -----------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured random loop-nest generation for irlt-fuzz. Nests are built
/// as a NestSpec - a small declarative description that renders to loop
/// language source - rather than as source text directly, so the shrinker
/// can apply semantic reductions (drop a read, rectangularize a bound,
/// drop the innermost loop) instead of blind text mutations.
///
/// Generated nests are valid by construction: read offsets are chosen
/// lexicographically non-negative, triangular bounds only reference outer
/// loop variables, and every symbolic bound uses a parameter from the
/// fuzzer's binding pool (n, m).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_FUZZ_NESTGEN_H
#define IRLT_FUZZ_NESTGEN_H

#include "fuzz/Rng.h"

#include <cstdint>
#include <string>
#include <vector>

namespace irlt {
namespace fuzz {

/// One loop of a generated nest. Bounds are rendered verbatim, so they
/// may be integer literals, parameter names (n, m), or an outer loop
/// variable with a small offset ("i + 1").
struct LoopSpec {
  std::string Var;
  std::string Lo;
  std::string Hi;
  int64_t Step = 1; ///< positive compile-time constant
};

/// One read of array `a` in the body, described by per-depth subscript
/// offsets relative to the loop variables (a(i + Off[0], j + Off[1])).
struct ReadSpec {
  std::vector<int64_t> Off;
};

/// Declarative description of a generated source nest.
struct NestSpec {
  std::vector<LoopSpec> Loops;
  std::vector<ReadSpec> Reads;
  /// Adds a second statement `c(subs) = a(subs) + <k>` creating
  /// cross-statement (but intra-instance) accesses.
  bool SecondStmt = false;

  unsigned depth() const { return static_cast<unsigned>(Loops.size()); }

  /// Renders the spec to loop-language source.
  std::string render() const;
};

/// Options steering nest generation.
struct NestGenOptions {
  unsigned MaxDepth = 3;
  /// When set, bounds occasionally use huge integer constants so that
  /// coefficient arithmetic in the transformation pipeline overflows;
  /// such cases must be rejected cleanly (LegalityResult Overflow), never
  /// crash.
  bool OverflowMode = false;
};

/// Generates a random nest spec: varying depth, constant / symbolic /
/// triangular bounds, constant steps, and a dependence-bearing stencil
/// body (one write to `a` plus 1-3 reads at lexicographically
/// non-negative offsets).
NestSpec generateNest(Rng &R, const NestGenOptions &Opts);

/// Whether a loop bound of \p Spec refers to another loop's index
/// variable. Triangular 3-deep nests can cost the dependence analysis
/// seconds, so corpora that time it redraw them.
bool isTriangular(const NestSpec &Spec);

/// Stream seed of perfbench's cold-script requests: request I under
/// benchmark seed S draws from Rng(caseSeed(S ^ ColdStreamSeed, I)).
constexpr uint64_t ColdStreamSeed = 0xc01d;

/// Draws a nest as perfbench's cold-script stream does (every tenth of
/// its requests is a paper nest instead): generateNest at MaxDepth 3,
/// redrawn while it is 3-deep and triangular. The request's script is
/// then drawn from \p R.
NestSpec generateColdNest(Rng &R);

} // namespace fuzz
} // namespace irlt

#endif // IRLT_FUZZ_NESTGEN_H
