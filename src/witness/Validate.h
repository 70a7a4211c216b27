//===- witness/Validate.h - Guarded candidate validation ladder ----------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `--validate` guarded mode behind irlt-opt --auto and irlt-search
/// (docs/LEGALITY.md). A transformation candidate the legality test
/// accepted is cross-checked by bounded concrete execution under a set
/// of parameter bindings, and the result is one of three verdicts:
///
///   Confirmed    - every binding executed to completion and the
///                  transformed nest was equivalent under all of them;
///   Disproved    - some binding produced a concrete inequivalence (a
///                  reordered dependent pair, a diverging store, ...);
///                  the disproof is dumped as a replayable reproducer in
///                  the fuzzer's trio format;
///   Inconclusive - no binding disproved the candidate but at least one
///                  ran out of budget before finishing, or faulted
///                  (overflow, division by zero, sqrt of a negative
///                  value: the OverflowGuard policy).
///
/// validateLadder() strings the verdicts into graceful degradation:
/// candidates are tried best-first, a Disproved candidate falls through
/// to the next-best one, and when everything is disproved the ladder
/// lands on the identity sequence - never an error, never a crash.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_WITNESS_VALIDATE_H
#define IRLT_WITNESS_VALIDATE_H

#include "support/Json.h"
#include "witness/Witness.h"

#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace witness {

/// Budgets, bindings, and reproducer policy for validation.
struct ValidateOptions {
  /// Parameter bindings tried in order; all must confirm.
  std::vector<std::map<std::string, int64_t>> Bindings;
  /// Per-evaluation instance budget (the `--validate=N` knob).
  uint64_t MaxInstances = 200'000;
  /// Wall budget per evaluation; 0 keeps validation deterministic.
  uint64_t WallBudgetMillis = 0;
  /// Where disproof reproducers go; empty disables dumping.
  std::string ReproDir = "irlt-validate-repro";

  /// The native tier (`--validate=native`, docs/CODEGEN.md): after the
  /// interpreted bindings confirm, compile and run the emitted
  /// differential harness under NativeBindings - iteration spaces far
  /// beyond what the interpreter budget can cover. When no host C
  /// compiler exists the interpreted verdict stands, annotated as
  /// native-skipped (never silently dropped).
  bool Native = false;
  std::vector<std::map<std::string, int64_t>> NativeBindings;
  uint64_t NativeMaxCells = 1ull << 23;
  /// Per native binding: the one run of all of them gets this times
  /// their number.
  uint64_t NativeTimeoutMs = 60000;

  /// The request's deadline, when it has one: validateLadder starts no
  /// candidate after it, and the native tier's compile and run are
  /// killed when it passes (LadderResult::Cancelled).
  std::optional<std::chrono::steady_clock::time_point> Deadline;

  static ValidateOptions defaults();

  /// defaults() plus the native tier: the interpreted instance budget is
  /// raised 200k -> 1M (the native backend absorbs the large spaces, so
  /// the interpreter can afford deeper coverage; see the budget-split
  /// table in docs/LEGALITY.md), and the native bindings are sized so
  /// the larger one exceeds the interpreted budget.
  static ValidateOptions nativeDefaults();

  /// The preset a request or a --validate flag names: nativeDefaults()
  /// when \p Native, else defaults(), with a nonzero \p Budget as the
  /// interpreted instance budget.
  static ValidateOptions forRequest(bool Native, uint64_t Budget);
};

enum class ValidateStatus { Confirmed, Disproved, Inconclusive };

/// Stable lowercase name: "confirmed", "disproved", "inconclusive".
const char *validateStatusName(ValidateStatus S);

/// Verdict for one candidate.
struct CandidateOutcome {
  ValidateStatus Status = ValidateStatus::Inconclusive;
  /// Human-readable elaboration (which binding, what went wrong).
  std::string Detail;
  /// Structured diagnostic for disproofs (empty message otherwise).
  Diag Why;
  /// Nest path of the dumped reproducer; empty when none was written.
  std::string ReproPath;
};

/// Cross-checks one candidate sequence against ground truth: applies it
/// and runs the execution verifier (eval/Verify.h) under every binding.
/// Never throws and never exits; an unapplicable sequence is Disproved.
CandidateOutcome validateCandidate(const LoopNest &Nest,
                                   const TransformSequence &Seq,
                                   const ValidateOptions &Opts =
                                       ValidateOptions::defaults());

/// Result of walking a best-first candidate list.
struct LadderResult {
  /// Index of the chosen candidate, or -1 for the identity fallback.
  int Chosen = -1;
  /// One outcome per examined candidate (a prefix of the input list:
  /// the walk stops at the first Confirmed candidate).
  std::vector<CandidateOutcome> Outcomes;
  /// The deadline passed before the walk ended: Chosen is -1, and the
  /// last outcome may have been cut short.
  bool Cancelled = false;

  bool fellBackToIdentity() const { return Chosen < 0; }
};

/// The graceful-degradation ladder: validates \p Candidates in order and
/// picks the first Confirmed one. When nothing confirms, the first
/// Inconclusive candidate is chosen (it was accepted by the legality
/// test and could not be disproved within budget); when every candidate
/// is Disproved, the ladder falls back to the identity sequence. Past
/// Opts.Deadline the walk stops and reports Cancelled.
LadderResult validateLadder(const LoopNest &Nest,
                            const std::vector<TransformSequence> &Candidates,
                            const ValidateOptions &Opts =
                                ValidateOptions::defaults());

/// Writes the ladder as the "validate" member of the open JSON object in
/// \p W: the chosen index, the identity fallback, and one outcome per
/// examined candidate (its "reproducer" only when one was dumped).
void writeLadder(json::JsonWriter &W, const LadderResult &LR);

} // namespace witness
} // namespace irlt

#endif // IRLT_WITNESS_VALIDATE_H
