//===- fuzz/Differential.cpp - Differential fuzzing oracle ----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Differential.h"

#include "analysis/Analysis.h"
#include "cgen/NativeCheck.h"
#include "dependence/DepAnalysis.h"
#include "deps/CrossCheck.h"
#include "deps/DepOracle.h"
#include "driver/Script.h"
#include "eval/Verify.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "search/Search.h"
#include "support/MathUtils.h"
#include "transform/Sequence.h"
#include "transform/TypeState.h"

#include <optional>

using namespace irlt;
using namespace irlt::fuzz;

const char *irlt::fuzz::categoryName(Category C) {
  switch (C) {
  case Category::Legal:
    return "legal";
  case Category::Illegal:
    return "illegal";
  case Category::RejectedPrecondition:
    return "rejected-by-precondition";
  case Category::OverflowRejected:
    return "overflow-rejected";
  case Category::ParseRejected:
    return "parse-rejected";
  case Category::SourceSkipped:
    return "source-skipped";
  case Category::BudgetExceeded:
    return "budget-exceeded";
  case Category::FastPathUnsound:
    return "FAST-PATH-UNSOUND";
  case Category::OracleFailure:
    return "ORACLE-FAILURE";
  }
  return "?";
}

DifferentialOptions DifferentialOptions::defaults() {
  DifferentialOptions O;
  O.Bindings = {{{"n", 6}, {"m", 4}, {"b", 2}},
                {{"n", 9}, {"m", 5}, {"b", 3}}};
  return O;
}

namespace {

CaseOutcome outcome(Category Cat, std::string Detail = "") {
  return CaseOutcome{Cat, std::move(Detail)};
}

/// Does any diagnostic of a failed result mention overflow? Overflow
/// rejections travel as rendered diagnostics (the guard saturates and the
/// failing stage reports), so the bucketing is textual by design.
bool mentionsOverflow(const std::string &Message) {
  return Message.find("overflow") != std::string::npos;
}

} // namespace

CaseOutcome irlt::fuzz::runCase(const FuzzCase &C,
                                const DifferentialOptions &Opts) {
  // 1. Parse the rendered nest. The generator emits valid source by
  // construction, so a parse error is itself an oracle failure.
  ErrorOr<LoopNest> NestOr = parseLoopNest(C.Nest.render());
  if (!NestOr)
    return outcome(Category::OracleFailure,
                   "generated nest failed to parse: " + NestOr.message());
  LoopNest Nest = NestOr.take();

  // 2. Dependence analysis through the production oracle backend
  // (deps/DepOracle.h), which runs guarded: huge bounds can overflow the
  // distance arithmetic, in which case the summaries are saturated and
  // nothing downstream may be trusted.
  deps::DepResult DR = deps::pipelineOracle().analyze(Nest);
  if (DR.Overflowed)
    return outcome(Category::OverflowRejected,
                   "dependence analysis overflowed");
  DepSet D = std::move(DR.Deps);
  // Direction summaries are conservative; a generated source nest they
  // cannot prove valid is skipped, not failed.
  if (!D.allLexNonNegative())
    return outcome(Category::SourceSkipped,
                   "conservative summaries reject the source nest");

  // 3. Parse the script. Corrupted cases must fail with >= one diagnostic
  // per corrupted line (multi-error recovery); clean cases must parse.
  ErrorOr<TransformSequence> SeqOr =
      parseTransformScript(joinScript(C.Script), Nest.numLoops());
  if (C.CorruptedLines > 0) {
    if (SeqOr)
      return outcome(Category::OracleFailure,
                     "parser accepted a script with " +
                         std::to_string(C.CorruptedLines) +
                         " corrupted line(s)");
    if (SeqOr.diags().size() < C.CorruptedLines)
      return outcome(
          Category::OracleFailure,
          "parser reported " + std::to_string(SeqOr.diags().size()) +
              " diagnostic(s) for " + std::to_string(C.CorruptedLines) +
              " corrupted line(s): " + SeqOr.message());
    return outcome(Category::ParseRejected, SeqOr.message());
  }
  if (!SeqOr) {
    if (mentionsOverflow(SeqOr.message()))
      return outcome(Category::OverflowRejected, SeqOr.message());
    // Clean generated scripts parse by construction, but the shrinker
    // may drop a nest loop out from under a position-bearing directive;
    // that mismatch is a rejection, not an oracle failure (and it makes
    // such shrink candidates self-rejecting).
    return outcome(Category::ParseRejected, SeqOr.message());
  }
  TransformSequence Seq = SeqOr.take();

  // 4. Differential legality: the fast path must never accept what the
  // full test rejects. An overflow rejection carries no verdict - the
  // full test's own arithmetic saturated - so it is excluded from the
  // comparison (the fast path does none of that arithmetic and may
  // legitimately still accept). These are deliberate calls to the
  // uncached isLegal()/isLegalFast() walks rather than api::Pipeline: the
  // oracle diffs the paper's two walks against each other, and no cache
  // sits between them.
  LegalityResult L = isLegal(Seq, Nest, D);

  // 4b. Analyzer oracle: the static diagnostic engine steps the prefix
  // engine's stage function (legality::stepStage) without executing
  // anything (docs/ANALYSIS.md), so its error-class verdict must agree
  // with the paper's walk on every case - an error-clean report on an
  // illegal sequence or an error finding on a legal one are both bugs in
  // the analyzer or in the stage function.
  analysis::AnalysisReport AR = analysis::analyzeSequence(Seq, Nest, D);
  if (L.Legal && AR.hasErrors()) {
    std::string First;
    for (const analysis::Finding &F : AR.Findings)
      if (F.Severity == analysis::FindingSeverity::Error) {
        First = std::string(F.RuleId) + ": " + F.Message;
        break;
      }
    return outcome(Category::OracleFailure,
                   "analyzer: error-class finding on a legal sequence: " +
                       First);
  }
  if (!L.Legal && !AR.hasErrors())
    return outcome(
        Category::OracleFailure,
        "analyzer: error-clean report for an illegal sequence: " + L.Reason);

  if (!L.Legal && L.Kind == LegalityResult::RejectKind::Overflow)
    return outcome(Category::OverflowRejected, L.Reason);
  LegalityResult LF = isLegalFast(Seq, Nest, D);
  if (LF.Legal && !L.Legal)
    return outcome(Category::FastPathUnsound,
                   "fast path accepted what the full test rejects: " +
                       L.Reason);
  if (!L.Legal) {
    switch (L.Kind) {
    case LegalityResult::RejectKind::Overflow:
      return outcome(Category::OverflowRejected, L.Reason);
    case LegalityResult::RejectKind::LexNegative:
      return outcome(Category::Illegal, L.Reason);
    case LegalityResult::RejectKind::BoundsPrecondition:
    case LegalityResult::RejectKind::DependencePrecondition:
    case LegalityResult::RejectKind::ApplyFailure:
      return outcome(Category::RejectedPrecondition, L.Reason);
    case LegalityResult::RejectKind::None:
      return outcome(Category::OracleFailure,
                     "illegal verdict without a reject kind: " + L.Reason);
    }
  }

  // 5. Accepted: the generated code must exist...
  ErrorOr<LoopNest> Out = applySequence(Seq, Nest);
  if (!Out) {
    if (mentionsOverflow(Out.message()))
      return outcome(Category::OverflowRejected, Out.message());
    return outcome(Category::OracleFailure,
                   "apply failed after a legal verdict: " + Out.message());
  }

  // ...and so must the reduced sequence's (fusion can overflow when
  // multiplying huge matrices - guarded).
  TransformSequence Red;
  {
    OverflowGuard G;
    Red = Seq.reduced();
    if (G.triggered())
      return outcome(Category::OverflowRejected,
                     "sequence reduction overflowed");
  }
  ErrorOr<LoopNest> OutR = applySequence(Red, Nest);
  if (!OutR) {
    if (mentionsOverflow(OutR.message()))
      return outcome(Category::OverflowRejected, OutR.message());
    // Fusion changes the syntactic route through the Table 3/4
    // preconditions: a fused Unimodular generates its bounds in a single
    // FM pass without the per-stage simplification the chain benefits
    // from, so a later stage's (syntactic) precondition may cleanly
    // reject the reduced form where the chain applied. That makes the
    // metamorphic check vacuous - but only when the legality test
    // confirms a precondition-kind rejection; a lex-negative divergence
    // or an unexplained apply failure is still an oracle failure.
    LegalityResult LR = isLegal(Red, Nest, D);
    if (!LR.Legal &&
        (LR.Kind == LegalityResult::RejectKind::BoundsPrecondition ||
         LR.Kind == LegalityResult::RejectKind::DependencePrecondition ||
         LR.Kind == LegalityResult::RejectKind::ApplyFailure ||
         LR.Kind == LegalityResult::RejectKind::Overflow))
      return outcome(Category::RejectedPrecondition,
                     "reduced form cleanly rejected: " + OutR.message());
    return outcome(Category::OracleFailure,
                   "reduced sequence failed to apply: " + OutR.message());
  }

  // The analyzer's fix-it rewrite (identity stages stripped, reducible
  // pairs fused) must stay semantically equivalent too. Like the reduced
  // form above, a fused stage may be cleanly rejected by a syntactic
  // Table 3/4 precondition - that makes the check vacuous - but the fix
  // never changes the composite iteration mapping, so a lex-negative
  // rejection or an unexplained apply failure is an oracle failure.
  std::optional<LoopNest> OutF;
  if (AR.Fixed) {
    ErrorOr<LoopNest> OutFOr = applySequence(*AR.Fixed, Nest);
    if (!OutFOr) {
      if (mentionsOverflow(OutFOr.message()))
        return outcome(Category::OverflowRejected, OutFOr.message());
      LegalityResult LFX = isLegal(*AR.Fixed, Nest, D);
      if (LFX.Legal ||
          LFX.Kind == LegalityResult::RejectKind::LexNegative ||
          LFX.Kind == LegalityResult::RejectKind::None)
        return outcome(Category::OracleFailure,
                       "analyzer: fix-it sequence failed to apply: " +
                           OutFOr.message());
    } else {
      OutF = OutFOr.take();
    }
  }

  // 6. Ground truth + metamorphic check under every binding set.
  for (const auto &Binding : Opts.Bindings) {
    EvalConfig EC;
    EC.Params = Binding;
    EC.MaxInstances = Opts.MaxInstances;
    EC.WallBudgetMillis = Opts.WallBudgetMillis;

    OverflowGuard G;
    VerifyResult V = verifyTransformed(Nest, *Out, EC);
    if (G.triggered())
      return outcome(Category::OverflowRejected,
                     "evaluation arithmetic overflowed");
    if (V.BudgetExceeded)
      return outcome(Category::BudgetExceeded, V.Problem);
    if (!V.Ok)
      return outcome(Category::OracleFailure,
                     "legal sequence is not equivalence-preserving: " +
                         V.Problem);

    VerifyResult VR = verifyTransformed(Nest, *OutR, EC);
    if (G.triggered())
      return outcome(Category::OverflowRejected,
                     "evaluation arithmetic overflowed (reduced)");
    if (VR.BudgetExceeded)
      return outcome(Category::BudgetExceeded, VR.Problem);
    if (!VR.Ok)
      return outcome(Category::OracleFailure,
                     "reduced sequence diverged: " + VR.Problem);

    if (OutF) {
      VerifyResult VF = verifyTransformed(Nest, *OutF, EC);
      if (G.triggered())
        return outcome(Category::OverflowRejected,
                       "evaluation arithmetic overflowed (fix-it)");
      if (VF.BudgetExceeded)
        return outcome(Category::BudgetExceeded, VF.Problem);
      if (!VF.Ok)
        return outcome(Category::OracleFailure,
                       "analyzer: fix-it sequence diverged: " + VF.Problem);
    }
  }

  return outcome(Category::Legal);
}

CaseOutcome irlt::fuzz::runSearchCase(const FuzzCase &C,
                                      const DifferentialOptions &Opts) {
  ErrorOr<LoopNest> NestOr = parseLoopNest(C.Nest.render());
  if (!NestOr)
    return outcome(Category::OracleFailure,
                   "generated nest failed to parse: " + NestOr.message());
  LoopNest Nest = NestOr.take();

  deps::DepResult DR = deps::pipelineOracle().analyze(Nest);
  if (DR.Overflowed)
    return outcome(Category::OverflowRejected,
                   "dependence analysis overflowed");
  DepSet D = std::move(DR.Deps);
  if (!D.allLexNonNegative())
    return outcome(Category::SourceSkipped,
                   "conservative summaries reject the source nest");

  // A small but real slice of the search space: one step plus the
  // trailing Parallelize, beam 4. The cost model runs under the first
  // binding set so huge generated bounds stay inside the trace budget.
  search::SearchOptions SO;
  SO.Obj = search::Objective::Both;
  SO.Depth = 1;
  SO.Beam = 4;
  SO.TopK = 3;
  SO.MaxTraceInstances = Opts.MaxInstances;
  if (!Opts.Bindings.empty())
    SO.CostParams = Opts.Bindings.front();

  search::SearchResult R = search::searchTransformations(Nest, D, SO);
  if (!R.Error.empty()) {
    // Nests the cost model cannot execute (opaque calls) still go through
    // the parallelism-only objective, which never runs the nest.
    SO.Obj = search::Objective::Parallelism;
    R = search::searchTransformations(Nest, D, SO);
    if (!R.Error.empty())
      return outcome(Category::SourceSkipped, R.Error);
  }

  // Determinism: a second run with two workers must be byte-identical.
  search::SearchOptions SO2 = SO;
  SO2.Threads = 2;
  search::SearchResult R2 = search::searchTransformations(Nest, D, SO2);
  if (R.Best.has_value() != R2.Best.has_value() ||
      (R.Best && R.Best->Key != R2.Best->Key) ||
      R.Top.size() != R2.Top.size() ||
      R.Stats.Enumerated != R2.Stats.Enumerated ||
      R.Stats.Pruned != R2.Stats.Pruned ||
      R.Stats.Deduped != R2.Stats.Deduped ||
      R.Stats.Leaves != R2.Stats.Leaves || R.Stats.Legal != R2.Stats.Legal ||
      R.Stats.AnalyzerPruned != R2.Stats.AnalyzerPruned)
    return outcome(Category::OracleFailure,
                   "search result differs between 1 and 2 threads");

  // No candidate is a legitimate outcome (e.g. fully serial nests under
  // the parallelism objective).
  if (!R.Best)
    return outcome(Category::Legal, "search returned no candidate");

  for (const search::ScoredSequence &S : R.Top) {
    LegalityResult L = isLegal(S.Seq, Nest, D);
    if (!L.Legal)
      return outcome(Category::OracleFailure,
                     "search reported an illegal candidate <" + S.Key +
                         ">: " + L.Reason);
    ErrorOr<LoopNest> Out = applySequence(S.Seq, Nest);
    if (!Out)
      return outcome(Category::OracleFailure,
                     "search candidate <" + S.Key +
                         "> failed to apply: " + Out.message());
    for (const auto &Binding : Opts.Bindings) {
      EvalConfig EC;
      EC.Params = Binding;
      EC.MaxInstances = Opts.MaxInstances;
      EC.WallBudgetMillis = Opts.WallBudgetMillis;
      OverflowGuard G;
      VerifyResult V = verifyTransformed(Nest, *Out, EC);
      if (G.triggered())
        return outcome(Category::OverflowRejected,
                       "evaluation arithmetic overflowed (search)");
      if (V.BudgetExceeded)
        return outcome(Category::BudgetExceeded, V.Problem);
      if (!V.Ok)
        return outcome(Category::OracleFailure,
                       "search candidate <" + S.Key +
                           "> is not equivalence-preserving: " + V.Problem);
    }
  }
  return outcome(Category::Legal);
}

CaseOutcome irlt::fuzz::runDepsCase(const FuzzCase &C) {
  ErrorOr<LoopNest> NestOr = parseLoopNest(C.Nest.render());
  if (!NestOr)
    return outcome(Category::OracleFailure,
                   "generated nest failed to parse: " + NestOr.message());
  LoopNest Nest = NestOr.take();

  deps::DepResult Fast = deps::pipelineOracle().analyze(Nest);
  deps::DepResult Exact = deps::fmExactOracle().analyze(Nest);
  deps::CrossCheckResult CC = deps::crossCheckDeps(Fast, Exact);
  switch (CC.Stat) {
  case deps::CrossCheckResult::Status::Skipped:
    return outcome(Category::OverflowRejected,
                   "a dependence backend saturated its arithmetic");
  case deps::CrossCheckResult::Status::Soundness:
    // The production analyzer under-reports: every legality verdict
    // computed from its set is suspect. Dump with full context.
    return outcome(Category::FastPathUnsound,
                   "dependence " + CC.str() +
                       "; pipeline = " + Fast.Deps.str() +
                       ", fm-exact = " + Exact.Deps.str());
  case deps::CrossCheckResult::Status::PrecisionGap: {
    CaseOutcome O = outcome(Category::Legal, "dependence " + CC.str());
    O.DepsExtraVectors = static_cast<unsigned>(CC.Extra.size());
    return O;
  }
  case deps::CrossCheckResult::Status::Agree:
    break;
  }
  return outcome(Category::Legal);
}

CaseOutcome irlt::fuzz::runNativeCase(const FuzzCase &C,
                                      const DifferentialOptions &Opts,
                                      const std::string &Compiler) {
  CaseOutcome O = runCase(C, Opts);
  if (O.Cat != Category::Legal)
    return O;

  // Re-derive the transformed nest; runCase just proved every step of
  // this pipeline succeeds for the case.
  ErrorOr<LoopNest> NestOr = parseLoopNest(C.Nest.render());
  if (!NestOr)
    return O;
  ErrorOr<TransformSequence> SeqOr =
      parseTransformScript(joinScript(C.Script), NestOr->numLoops());
  if (!SeqOr)
    return O;
  ErrorOr<LoopNest> Out = [&]() -> ErrorOr<LoopNest> {
    OverflowGuard G;
    ErrorOr<LoopNest> R = applySequence(*SeqOr, *NestOr);
    if (G.triggered())
      return Failure("overflow");
    return R;
  }();
  if (!Out)
    return O;

  cgen::NativeCheckOptions NC;
  NC.Bindings = {Opts.Bindings.front()};
  // Serial and small: fuzz throughput wants compile time, not threads,
  // and generated nests are tiny at the fuzz bindings anyway.
  NC.UseOpenMP = false;
  NC.MaxCells = 1u << 20;
  NC.InterpMaxInstances = Opts.MaxInstances;
  NC.CrossCheckInterpreter = true;
  NC.Runner.Compiler = Compiler;
  NC.Runner.OpenMP = false;
  cgen::NativeCheckResult N = cgen::checkNative(*NestOr, &*Out, NC).front();

  switch (N.Status) {
  case cgen::NativeCheckStatus::Match:
    O.Native = CaseOutcome::NativeTier::Checked;
    return O;
  case cgen::NativeCheckStatus::Skipped:
  case cgen::NativeCheckStatus::Unavailable:
    O.Native = CaseOutcome::NativeTier::Skipped;
    return O;
  case cgen::NativeCheckStatus::Mismatch:
    // The legality test, the interpreter, and the analyzer all accepted
    // this case; compiled execution disagreeing with itself means the
    // emitted code is wrong.
    return CaseOutcome{Category::OracleFailure,
                       "native differential harness disagrees on a case "
                       "every interpreted oracle accepts: " +
                           N.Detail,
                       "native", CaseOutcome::NativeTier::Checked};
  case cgen::NativeCheckStatus::InterpDiverged:
    return CaseOutcome{Category::OracleFailure,
                       "interpreter and native execution disagree on the "
                       "final memory image: " +
                           N.Detail,
                       "both", CaseOutcome::NativeTier::Checked};
  case cgen::NativeCheckStatus::Failed:
    // Emitted code must always compile and run; an infrastructure
    // failure on a Legal case is a codegen bug, not noise.
    return CaseOutcome{Category::OracleFailure,
                       "native pipeline failed on emitted code: " + N.Detail,
                       "native", CaseOutcome::NativeTier::Checked};
  }
  return O;
}
