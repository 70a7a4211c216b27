//===- analysis/Analysis.h - Static diagnostics for scripts --------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static diagnostic and lint engine behind irlt-analyze (and the
/// --analyze surfaces of the other tools). The paper's central claim is
/// that legality of an arbitrary kernel-template sequence is decidable
/// *statically* - the Table 2 dependence mapping rules plus the Table 3/4
/// bounds preconditions over the const/invar/linear/nonlinear lattice -
/// and this module turns that decision procedure into *explanations*:
/// every isLegal() rejection becomes an error-class finding carrying the
/// stage index, template name, the exact table rule that fired, the
/// offending dependence vector or bounds expression, and the inferred
/// TypeState lattice element.
///
/// Error-class rules come from the legality stage function, which runs
/// each stage exactly as isLegal()'s walk does: the analyzer steps a
/// prefix through legality::stepStage (full mode, no cache) and maps
/// each stage rejection to a rule, so a sequence is error-clean if
/// and only if isLegal() accepts it, and the first error finding carries
/// isLegal()'s stage and message - the invariant the fuzzer's analyzer
/// oracle enforces. Warning-class lint rules flag legal-but-wasteful
/// scripts: stage pairs the reduced() peephole would fold, identity
/// stages, direction-vector information loss ahead of a Parallelize,
/// templates whose generated bounds degrade to nonlinear, and
/// saturation-risk coefficients (support/MathUtils.h).
///
/// Nothing here executes a nest: analysis uses the same bounds pipeline
/// and dependence mapping the legality test itself uses, never the
/// evaluator.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_ANALYSIS_ANALYSIS_H
#define IRLT_ANALYSIS_ANALYSIS_H

#include "support/Json.h"
#include "transform/Sequence.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace irlt {
namespace analysis {

/// Finding severity. Errors predict an isLegal() rejection; warnings are
/// lint (the sequence is typically legal but wasteful or fragile).
enum class FindingSeverity { Error, Warning };

/// "error" / "warning".
const char *severityName(FindingSeverity S);

/// One entry of the rule registry: stable id, severity, a short title,
/// and the paper-table (or design-doc) citation the rule enforces.
struct RuleInfo {
  const char *Id;
  FindingSeverity Severity;
  const char *Title;
  const char *Citation;
};

/// All rules, error class first, in id order.
const std::vector<RuleInfo> &ruleRegistry();

/// Monotonic registry version, bumped whenever a rule is added, removed,
/// or changes meaning. Carried in every irlt-analyze --json record header
/// so downstream triage can tell which rule set produced a report.
/// History: 1 = E100-E106/W200-W204; 2 = + W205/W206 (dependence-oracle
/// cross-check, docs/DEPENDENCE.md).
unsigned ruleRegistryVersion();

/// Registry lookup; nullptr for an unknown id.
const RuleInfo *findRule(std::string_view Id);

/// One finding. Provenance fields are filled when they apply and empty
/// otherwise; Stage is 1-based with 0 meaning "whole sequence" (the final
/// lexicographic test, pair rules reference their first stage).
struct Finding {
  std::string RuleId;
  FindingSeverity Severity = FindingSeverity::Error;
  unsigned Stage = 0;
  std::string TemplateName;
  std::string Message;
  /// Paper-table citation of the rule that fired (from the registry).
  std::string Citation;
  /// Inferred TypeState lattice element of the nest state the rule
  /// observed ("const", "invar", "linear", "nonlinear").
  std::string Lattice;
  /// Offending dependence vector rendering, e.g. "(-1, 0)".
  std::string DepVector;
  /// Offending bounds expression, e.g. "loop 2 upper bound `n - i`".
  std::string Bounds;
  /// Human-readable fix-it hint (warnings only).
  std::string FixIt;

  /// Renders as a structured Diag (severity, stage, template, message).
  Diag toDiag() const;
};

struct AnalysisOptions {
  /// Run the warning-class lint rules (errors always run).
  bool Lint = true;
  /// Cross-check the source nest's dependence set against the
  /// first-principles fm-exact backend (deps/DepOracle.h) and report
  /// W205 (pipeline strictly conservative) / W206 (pipeline
  /// under-reports: a soundness divergence) findings with the offending
  /// vectors. Off by default: the exact backend enumerates the full
  /// sign tree per reference pair, which is far more work than the
  /// production analyzer, and the rules are diagnostics, not part of
  /// the legality contract.
  bool CrossCheckDeps = false;
};

struct AnalysisReport {
  /// Findings in discovery order: per-stage walk findings first (the walk
  /// stops at the first error, like isLegal), then whole-sequence rules.
  std::vector<Finding> Findings;

  /// The fix-it sequence when at least one fixable lint finding fired
  /// (identity stages stripped, adjacent fusable stages folded); nullopt
  /// when no fix applies. Semantically equivalent to the input sequence
  /// on every nest both apply to (the fuzzer's oracle checks this under
  /// the evaluator).
  std::optional<TransformSequence> Fixed;

  unsigned errorCount() const;
  unsigned warningCount() const;
  bool hasErrors() const { return errorCount() != 0; }
};

/// Analyzes \p T against \p Nest with dependence set \p D. Never asserts
/// or throws on any parseable input: overflow degrades to an E104
/// finding, arity mismatches to E106, and apply failures to E105.
AnalysisReport analyzeSequence(const TransformSequence &T,
                               const LoopNest &Nest, const DepSet &D,
                               const AnalysisOptions &Opts = {});

/// True for a stage the fix-it may drop outright: an identity Unimodular
/// matrix, an identity ReversePermute, or an all-false Parallelize.
bool isIdentityStage(const TransformTemplate &T);

/// The fix-it transformation: identity stages stripped, then reduced().
/// May be empty (the identity sequence).
TransformSequence fixitSequence(const TransformSequence &T);

/// Cheap error-only scan used by the search pre-filter: true when the
/// final mapped dependence set admits a lexicographically negative tuple
/// (rule E100) - such a candidate cannot pass isLegal and need not be
/// costed.
bool finalDepsRejectable(const DepSet &MappedFinal);

/// Writes the standard findings object (the caller has already emitted
/// the surrounding key): {"errors": n, "warnings": m, "findings": [...]}
/// with one object per finding; empty provenance fields are omitted.
void writeReport(json::JsonWriter &W, const AnalysisReport &R);

/// Renders findings as structured Diags for text output (errors and
/// warnings, discovery order).
std::vector<Diag> toDiags(const AnalysisReport &R);

} // namespace analysis
} // namespace irlt

#endif // IRLT_ANALYSIS_ANALYSIS_H
