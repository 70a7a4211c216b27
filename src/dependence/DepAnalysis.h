//===- dependence/DepAnalysis.h - Array dependence analysis ---------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes the initial dependence-vector set of a perfect loop nest from
/// its array accesses, using "standard data dependence analysis
/// techniques" as the paper prescribes (its citations [4, 6, 10, 12]):
/// ZIV and GCD filters, then - for every pair they do not disprove -
/// hierarchical direction-vector refinement over an exact rational
/// Fourier-Motzkin system (an Omega-style backend, FMSolver.h).
///
/// Output vectors are canonical: exact distances wherever the FM
/// projection pins the difference to a single integer, direction values
/// otherwise; lexicographically negative and all-zero vectors are never
/// produced (Section 3.1: the original execution order satisfies the
/// dependence partial order).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_DEPENDENCE_DEPANALYSIS_H
#define IRLT_DEPENDENCE_DEPANALYSIS_H

#include "dependence/DepVector.h"
#include "ir/LoopNest.h"

#include <string>
#include <vector>

namespace irlt {

/// Options for the dependence analyzer.
struct DepAnalysisOptions {
  /// Refine direction entries to exact distances via FM projection.
  bool RefineDistances = true;
  /// Run the cheap ZIV and GCD filters before the FM engine.
  bool UseFastTests = true;
};

/// Which test decided one ordered reference pair (deps::DepOracle
/// provenance, docs/DEPENDENCE.md).
enum class DepDecision {
  IllTyped,   ///< subscript arity mismatch: conservative family emitted
  NonLinear,  ///< no analyzable dimension: conservative family emitted
  ZIV,        ///< constant-subscript disproof (independent)
  GCD,        ///< integer-infeasible subscript equation (independent)
  FM          ///< hierarchical Fourier-Motzkin refinement ran
};

/// Per-ordered-reference-pair provenance of a dependence analysis run.
struct DepPairInfo {
  std::string Array;        ///< the common array
  unsigned SrcOcc = 0;      ///< source occurrence index (writes, then reads)
  unsigned DstOcc = 0;      ///< target occurrence index
  bool SrcIsWrite = false;
  bool DstIsWrite = false;
  DepDecision Decided = DepDecision::FM;
  bool Independent = false; ///< the pair was proven dependence-free
  bool Exact = false;       ///< every emitted vector is a pure distance
  unsigned NumVectors = 0;  ///< vectors this pair contributed (pre-dedup)
};

/// Computes the dependence-vector set D of \p Nest (Definition 3.1).
DepSet analyzeDependences(const LoopNest &Nest,
                          const DepAnalysisOptions &Opts = {});

/// Same analysis, additionally recording per-pair provenance into
/// \p PairInfo (appended in pair-visit order). The returned set is
/// byte-identical to the overload above.
DepSet analyzeDependences(const LoopNest &Nest, const DepAnalysisOptions &Opts,
                          std::vector<DepPairInfo> &PairInfo);

/// Human-readable name of a DepDecision ("ziv", "gcd", "fm", ...).
const char *depDecisionName(DepDecision D);

/// The classic filters the analyzer runs before FM, exposed for unit
/// testing. Both reason about one subscript-pair equation
///   sum_k A[k]*I_k + CA  ==  sum_k B[k]*J_k + CB
/// between source iteration I and target iteration J.
namespace deptest {

/// ZIV: both subscripts constant. \returns false when provably no
/// dependence (constants differ), true when they are equal.
bool zivEqual(int64_t CA, int64_t CB);

/// GCD test on  sum Coefs[i]*v_i == C0  over free integers v: returns
/// false when no integer solution exists (gcd does not divide C0).
bool gcdFeasible(const std::vector<int64_t> &Coefs, int64_t C0);

} // namespace deptest

} // namespace irlt

#endif // IRLT_DEPENDENCE_DEPANALYSIS_H
