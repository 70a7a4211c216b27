//===- transform/Sequence.h - Transformation sequences --------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequence representation of Section 2: an iteration-reordering
/// transformation T = <t_1, ..., t_k> is a sequence of kernel template
/// instantiations. Composition is sequence concatenation (U after T is
/// <t_1..t_k, u_1..u_l>), which makes the system closed under
/// composition; reduce() shortens a sequence by fusing compatible
/// adjacent instantiations (e.g. two Unimodular steps multiply into one
/// matrix - the paper's efficiency note).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_TRANSFORM_SEQUENCE_H
#define IRLT_TRANSFORM_SEQUENCE_H

#include "transform/Template.h"

#include <vector>

namespace irlt {

/// An immutable-ish ordered list of template instantiations.
class TransformSequence {
public:
  TransformSequence() = default;
  explicit TransformSequence(std::vector<TemplateRef> Steps)
      : Steps(std::move(Steps)) {}

  static TransformSequence of(std::initializer_list<TemplateRef> List) {
    return TransformSequence(std::vector<TemplateRef>(List));
  }

  void append(TemplateRef T) { Steps.push_back(std::move(T)); }

  const std::vector<TemplateRef> &steps() const { return Steps; }
  size_t size() const { return Steps.size(); }
  bool empty() const { return Steps.empty(); }

  /// Sequence concatenation: this, then \p U (Section 2's  U o T).
  TransformSequence composedWith(const TransformSequence &U) const;

  /// Fuses compatible adjacent steps:
  ///  - Unimodular(M1) ; Unimodular(M2)      -> Unimodular(M2 * M1)
  ///  - ReversePermute ; ReversePermute      -> one ReversePermute
  ///  - ReversePermute ; Unimodular (either
  ///    order; the RP is a signed permutation
  ///    matrix)                              -> one Unimodular
  ///  - Parallelize    ; Parallelize         -> flag-wise OR
  /// Repeats to a fixed point (each fusion re-tries against the new
  /// predecessor), so reduced() is idempotent - which makes
  /// reduced().str() usable as a canonical memoization key for
  /// peephole-equivalent sequences (the search engine's dedup relies on
  /// this; see src/search/).
  TransformSequence reduced() const;

  /// "<ReversePermute(...), Block(...)>".
  std::string str() const;

private:
  std::vector<TemplateRef> Steps;
};

/// Outcome of the uniform legality test (Section 2, item 3).
struct LegalityResult {
  /// Why a sequence was rejected - the structured counterpart of Reason,
  /// used by irlt-fuzz to bucket outcomes without string matching.
  enum class RejectKind {
    None,                   ///< legal
    BoundsPrecondition,     ///< a Table 3/4 precondition failed
    DependencePrecondition, ///< the anchor-dependence side condition
    LexNegative,            ///< final mapped set admits a negative tuple
    ApplyFailure,           ///< bounds pipeline failed mid-sequence
    Overflow,               ///< coefficient arithmetic left int64 range
  };

  bool Legal = false;
  RejectKind Kind = RejectKind::None;
  /// Human-readable reason when illegal: either the violated bounds
  /// precondition (with its stage), or the lexicographically negative
  /// final dependence vector.
  std::string Reason;
  /// Structured reason when illegal: stage index and template name of the
  /// failing step (stage 0 for whole-sequence failures such as the final
  /// lexicographic test).
  Diag Why;
  /// The dependence set after the whole sequence (valid when the bounds
  /// stages all succeeded).
  DepSet FinalDeps;

  /// Marks the result illegal with both the structured and rendered
  /// reason.
  void reject(RejectKind K, Diag D) {
    Legal = false;
    Kind = K;
    Why = std::move(D);
    Reason = Why.str();
  }
};

/// Stable name of a RejectKind, e.g. "lex-negative" - used by the tools
/// to report structured verdicts and by the fuzzer's buckets.
const char *rejectKindName(LegalityResult::RejectKind K);

/// The uniform legality test IsLegal(T, N): (a) map the dependence set
/// through every stage and reject when the final set admits a
/// lexicographically negative tuple - intermediate stages need not be
/// legal; (b) check each stage's loop-bounds preconditions in order.
/// One uncached walk over the whole sequence, touching no cache. Callers
/// that check many sequences sharing prefixes own a prefix-memoized
/// engine instead (legality/IncrementalEngine.h; api::Pipeline holds
/// one), whose verdicts are byte-identical to this walk's.
LegalityResult isLegal(const TransformSequence &T, const LoopNest &Nest,
                       const DepSet &D);

/// The uniform code generator: pipes the nest through every stage's
/// bounds-mapping and init-statement rules. Fails with the first violated
/// precondition. (Legality of the dependence part is *not* checked here -
/// callers run isLegal first, mirroring the paper's separation.)
ErrorOr<LoopNest> applySequence(const TransformSequence &T,
                                const LoopNest &Nest);

/// Maps a dependence set through the whole sequence (T(D) of Section 3.2).
DepSet mapDependences(const TransformSequence &T, const DepSet &D);

} // namespace irlt

#endif // IRLT_TRANSFORM_SEQUENCE_H
