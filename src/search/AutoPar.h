//===- search/AutoPar.h - Search-based auto-parallelization --------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's stated purpose for the framework (Sections 5-6): an
/// automatic transformation system that "consider[s] several alternative
/// transformations for a loop nest ... the loop nest remains unchanged
/// while the transformation system considers the legality and
/// effectiveness of applying various alternative transformations".
///
/// This module is that optimizer in miniature, for the parallelization
/// objective: enumerate candidate iteration-reordering sequences -
/// signed permutations, wavefront (hyperplane) skews in the style of
/// Lamport [9], each followed by Parallelize - filter them with the
/// uniform (fast) legality test without ever touching the nest, rank the
/// survivors by how many loops run parallel and how far out they sit,
/// and return the best sequence. Ties prefer cheaper templates
/// (ReversePermute over Unimodular), per Section 4.2.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SEARCH_AUTOPAR_H
#define IRLT_SEARCH_AUTOPAR_H

#include "transform/Sequence.h"

#include <optional>
#include <vector>

namespace irlt {

/// Knobs for the search.
struct AutoParOptions {
  /// Largest |skew factor| tried for wavefront candidates.
  int64_t MaxSkew = 2;
  /// Consider reversals in permutation candidates.
  bool TryReversals = true;
  /// Consider hyperplane (skew) candidates when plain permutations fail
  /// to parallelize the outer level.
  bool TryWavefronts = true;
};

/// One scored candidate.
struct AutoParCandidate {
  TransformSequence Seq;
  /// Parallel loops after the sequence (by output position, 0-based).
  std::vector<unsigned> ParallelLoops;
  /// Lexicographic score: number of parallel loops, then how outermost
  /// they are, then template cheapness. Higher is better.
  long Score = 0;
};

/// Result of a search.
struct AutoParResult {
  /// The best legal candidate, if any loop could be parallelized.
  std::optional<AutoParCandidate> Best;
  /// Number of candidates enumerated / found legal.
  unsigned Enumerated = 0;
  unsigned Legal = 0;
};

/// Searches for a legal sequence that parallelizes as much of \p Nest as
/// possible under dependence set \p D. Never mutates \p Nest; callers
/// apply the returned sequence themselves.
AutoParResult autoParallelize(const LoopNest &Nest, const DepSet &D,
                              const AutoParOptions &Options = {});

/// The vector-execution objective (the paper's other motivation): a loop
/// is vectorizable when, run innermost, it carries no dependence - i.e.
/// parallelizing *only* the innermost position stays legal. Searches the
/// same candidate space for a legal sequence whose innermost loop is
/// dependence-free; ties prefer cheaper templates.
AutoParResult autoVectorize(const LoopNest &Nest, const DepSet &D,
                            const AutoParOptions &Options = {});

} // namespace irlt

#endif // IRLT_SEARCH_AUTOPAR_H
