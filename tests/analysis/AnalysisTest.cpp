//===- tests/analysis/AnalysisTest.cpp - Static analysis unit tests ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the static diagnostic engine: registry integrity,
/// identity-stage detection, the fix-it fixed point, the error-clean
/// <=> isLegal agreement invariant (on hand-picked sequences, and finding
/// by finding over the legality fuzz corpus), the analyzer's independence
/// from the legality cache, and the E100 pre-filter predicate the search
/// engine uses.
///
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

#include "dependence/DepAnalysis.h"
#include "driver/Script.h"
#include "fuzz/NestGen.h"
#include "fuzz/Rng.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "legality/IncrementalEngine.h"
#include "support/MathUtils.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

using namespace irlt;
using namespace irlt::analysis;

namespace {

LoopNest nest(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N.take();
}

TransformSequence script(const std::string &Text, unsigned NumLoops) {
  ErrorOr<TransformSequence> S = parseTransformScript(Text, NumLoops);
  EXPECT_TRUE(static_cast<bool>(S)) << S.message();
  return S.take();
}

const std::string RectDep = "do i = 1, n\n"
                            "  do j = 1, m\n"
                            "    a(i, j) = a(i - 1, j) + 1\n"
                            "  enddo\n"
                            "enddo\n";

const std::string Triangular = "do i = 1, n\n"
                               "  do j = 1, i\n"
                               "    a(i, j) = a(i, j) + 1\n"
                               "  enddo\n"
                               "enddo\n";

TEST(RuleRegistry, ErrorRulesFirstUniqueIdsAndCitations) {
  const std::vector<RuleInfo> &Rules = ruleRegistry();
  ASSERT_FALSE(Rules.empty());
  bool SeenWarning = false;
  std::set<std::string> Ids;
  for (const RuleInfo &R : Rules) {
    EXPECT_TRUE(Ids.insert(R.Id).second) << "duplicate rule id " << R.Id;
    EXPECT_NE(std::string(R.Citation), "") << R.Id << " has no citation";
    EXPECT_NE(std::string(R.Title), "") << R.Id << " has no title";
    if (R.Severity == FindingSeverity::Warning)
      SeenWarning = true;
    else
      EXPECT_FALSE(SeenWarning) << "error rule " << R.Id
                                << " listed after a warning rule";
  }
  // The documented core set must exist.
  for (const char *Id :
       {"E100", "E101", "E102", "E103", "E104", "E105", "E106", "W200",
        "W201", "W202", "W203", "W204"})
    EXPECT_NE(findRule(Id), nullptr) << Id;
  EXPECT_EQ(findRule("E999"), nullptr);
}

TEST(IdentityStage, DetectsIdentityTemplates) {
  EXPECT_TRUE(
      isIdentityStage(*makeUnimodular(2, UnimodularMatrix::identity(2))));
  EXPECT_TRUE(isIdentityStage(
      *makeReversePermute(2, {false, false}, {0, 1})));
  EXPECT_TRUE(isIdentityStage(*makeParallelize(2, {false, false})));

  EXPECT_FALSE(isIdentityStage(
      *makeReversePermute(2, {false, false}, {1, 0})));
  EXPECT_FALSE(isIdentityStage(*makeParallelize(2, {true, false})));
  EXPECT_FALSE(
      isIdentityStage(*makeUnimodular(2, UnimodularMatrix::skew(2, 0, 1, 1))));
}

TEST(Fixit, StripsIdentityStagesToAFixedPoint) {
  // interchange ; interchange fuses to an identity ReversePermute, which
  // must itself be stripped - the fix-it iterates to a fixed point.
  TransformSequence Seq =
      script("interchange 1 2\ninterchange 1 2\nparallelize 1", 2);
  TransformSequence Fixed = fixitSequence(Seq);
  ASSERT_EQ(Fixed.size(), 1u);
  EXPECT_EQ(Fixed.steps()[0]->kind(), TransformTemplate::Kind::Parallelize);
}

TEST(Fixit, IdentityInputYieldsEmptySequence) {
  TransformSequence Seq = script("interchange 1 2\ninterchange 1 2", 2);
  EXPECT_EQ(fixitSequence(Seq).size(), 0u);
}

TEST(Analyze, CleanLegalScriptHasNoFindings) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  EXPECT_EQ(R.errorCount(), 0u);
  EXPECT_EQ(R.warningCount(), 0u);
  EXPECT_FALSE(R.Fixed.has_value());
}

TEST(Analyze, AgreesWithIsLegalOnSamples) {
  struct Sample {
    std::string Nest;
    std::string Script;
  };
  const Sample Samples[] = {
      {RectDep, "interchange 1 2"},
      {RectDep, "reverse 1"},
      {RectDep, "parallelize 1"},
      {RectDep, "parallelize 2"},
      {Triangular, "interchange 1 2"},
      {Triangular, "coalesce 1 2"},
      {Triangular, "block 1 2 4 4"},
      {Triangular, "skew 2 1 1\nunimodular 1 0 / -1 1"},
      {RectDep, "stripmine 1 4\ninterchange 2 3"},
  };
  for (const Sample &S : Samples) {
    LoopNest N = nest(S.Nest);
    DepSet D = analyzeDependences(N);
    TransformSequence Seq = script(S.Script, N.numLoops());
    LegalityResult L = isLegal(Seq, N, D);
    AnalysisReport R = analyzeSequence(Seq, N, D);
    EXPECT_EQ(L.Legal, !R.hasErrors())
        << "analyzer disagrees with isLegal on <" << S.Script << ">: "
        << L.Reason;
  }
}

/// The rule an isLegal() rejection maps to: the stage's reject kind, with
/// bounds preconditions split by the table that states them (Table 4 for
/// the splitting templates and the Custom StripMine extension).
std::string expectedRule(const LegalityResult &L,
                         const TransformSequence &Seq) {
  using RK = LegalityResult::RejectKind;
  switch (L.Kind) {
  case RK::LexNegative:
    return "E100";
  case RK::BoundsPrecondition: {
    using Kind = TransformTemplate::Kind;
    Kind K = Seq.steps()[L.Why.Stage - 1]->kind();
    return K == Kind::Block || K == Kind::Interleave || K == Kind::Custom
               ? "E102"
               : "E101";
  }
  case RK::DependencePrecondition:
    return "E103";
  case RK::Overflow:
    return "E104";
  case RK::ApplyFailure:
    return "E105";
  case RK::None:
    break;
  }
  return "";
}

/// Holds the analyzer's first error finding to isLegal()'s verdict on one
/// generated case: present exactly when isLegal() rejects, with the rule
/// of the reject kind, the same stage and the same message.
void expectFirstErrorMatches(const fuzz::NestSpec &NS,
                             const fuzz::GeneratedScript &GS,
                             const std::string &What) {
  ErrorOr<LoopNest> NestOr = parseLoopNest(NS.render());
  ASSERT_TRUE(static_cast<bool>(NestOr)) << What << ": " << NestOr.message();
  LoopNest N = NestOr.take();
  DepSet D;
  {
    // Overflow-mode nests can saturate the dependence analysis; both
    // sides see the same saturated set, so the comparison still holds.
    OverflowGuard G;
    D = analyzeDependences(N);
  }
  const std::string Script = fuzz::joinScript(GS.Lines);
  ErrorOr<TransformSequence> SeqOr =
      parseTransformScript(Script, N.numLoops());
  if (!SeqOr)
    return; // overflow-mode scripts can be unparseable
  TransformSequence Seq = SeqOr.take();

  LegalityResult L = isLegal(Seq, N, D);
  AnalysisReport R = analyzeSequence(Seq, N, D);
  const Finding *First = nullptr;
  for (const Finding &F : R.Findings)
    if (F.Severity == FindingSeverity::Error) {
      First = &F;
      break;
    }
  const std::string Tag = What + "\nnest:\n" + NS.render() + "script:\n" +
                          Script + "\nisLegal: " + L.Reason;
  ASSERT_EQ(First != nullptr, !L.Legal) << Tag;
  if (!First)
    return;
  EXPECT_EQ(First->RuleId, expectedRule(L, Seq)) << Tag;
  EXPECT_EQ(First->Stage, L.Why.Stage) << Tag;
  EXPECT_EQ(First->Message, L.Why.Message) << Tag;
}

TEST(Analyze, FirstErrorMatchesLegalityVerdictOnFuzzCorpus) {
  // The corpora of the IncrementalEquivalence suite: the plain generator
  // and its overflow mode, whose huge coefficients reach E104.
  fuzz::NestGenOptions NO;
  fuzz::ScriptGenOptions SO;
  for (unsigned I = 0; I < 2000; ++I) {
    fuzz::Rng R(fuzz::mix64(0xA11CEull ^ I));
    fuzz::NestSpec NS = fuzz::generateNest(R, NO);
    fuzz::GeneratedScript GS = fuzz::generateScript(R, NS.depth(), SO);
    expectFirstErrorMatches(NS, GS, "fuzz case " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
  NO.OverflowMode = true;
  SO.OverflowMode = true;
  for (unsigned I = 0; I < 200; ++I) {
    fuzz::Rng R(fuzz::mix64(0x0F10Dull ^ I));
    fuzz::NestSpec NS = fuzz::generateNest(R, NO);
    fuzz::GeneratedScript GS = fuzz::generateScript(R, NS.depth(), SO);
    expectFirstErrorMatches(NS, GS, "overflow case " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
}

TEST(Analyze, LeavesTheLegalityCacheUntouched) {
  // The analyzer steps the legality stage function directly, never an
  // engine, so it touches no cache - neither the process-wide engine the
  // benchmark harness still reads nor any other.
  LoopNest N = nest(Triangular);
  DepSet D = analyzeDependences(N);
  legality::IncrementalEngine &G = legality::IncrementalEngine::global();
  for (const char *Script : {"interchange 1 2", "block 1 2 4 4\nreverse 1",
                             "skew 2 1 1\nunimodular 1 0 / -1 1"}) {
    TransformSequence Seq = script(Script, 2);
    legality::EngineStats Before = G.stats();
    analyzeSequence(Seq, N, D);
    legality::EngineStats After = G.stats();
    EXPECT_EQ(After.Hits, Before.Hits) << Script;
    EXPECT_EQ(After.Misses, Before.Misses) << Script;
    EXPECT_EQ(After.Inserts, Before.Inserts) << Script;
    EXPECT_EQ(After.Uncacheable, Before.Uncacheable) << Script;
  }
}

TEST(Analyze, ErrorFindingCarriesProvenance) {
  LoopNest N = nest(Triangular);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  ASSERT_EQ(R.errorCount(), 1u);
  const Finding &F = R.Findings.front();
  EXPECT_EQ(F.RuleId, "E101");
  EXPECT_EQ(F.Stage, 1u);
  EXPECT_EQ(F.TemplateName, "ReversePermute");
  EXPECT_EQ(F.Lattice, "linear");
  EXPECT_NE(F.Bounds, "");
  EXPECT_NE(F.Citation, "");
}

TEST(Analyze, NoLintOptionSuppressesWarningsOnly) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  TransformSequence Seq =
      script("interchange 1 2\ninterchange 1 2\nparallelize 1", 2);
  AnalysisReport Full = analyzeSequence(Seq, N, D);
  EXPECT_GT(Full.warningCount(), 0u);
  EXPECT_TRUE(Full.Fixed.has_value());

  AnalysisOptions NoLint;
  NoLint.Lint = false;
  AnalysisReport Errors = analyzeSequence(Seq, N, D, NoLint);
  EXPECT_EQ(Errors.warningCount(), 0u);
  EXPECT_EQ(Errors.errorCount(), Full.errorCount());
}

TEST(Analyze, ToDiagsPrefixesRuleIds) {
  LoopNest N = nest(Triangular);
  DepSet D = analyzeDependences(N);
  AnalysisReport R = analyzeSequence(script("interchange 1 2", 2), N, D);
  std::vector<Diag> Diags = toDiags(R);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_EQ(Diags[0].Severity, DiagSeverity::Error);
  EXPECT_EQ(Diags[0].Stage, 1u);
  EXPECT_EQ(Diags[0].Message.rfind("[E101] ", 0), 0u) << Diags[0].Message;
}

TEST(Analyze, RegistryVersionCoversCrossCheckRules) {
  // Version 2 added W205/W206; the version must move with the registry so
  // --json consumers can trust rule semantics.
  EXPECT_EQ(ruleRegistryVersion(), 2u);
  EXPECT_NE(findRule("W205"), nullptr);
  EXPECT_NE(findRule("W206"), nullptr);
  EXPECT_EQ(findRule("W205")->Severity, FindingSeverity::Warning);
  EXPECT_EQ(findRule("W206")->Severity, FindingSeverity::Warning);
}

TEST(Analyze, CrossCheckDepsReportsPrecisionGapAsW205) {
  // Strided-outer triangular nest where the production analyzer keeps a
  // (0, 2) vector the exact backend disproves (the inner range is too
  // narrow): W205 with the vector as provenance, and only when the
  // cross-check option is on (it is costly and off by default).
  LoopNest N = nest("do i = 0, 5, 2\n"
                    "  do j = 3, i\n"
                    "    a(i, j) = a(i, j) + a(i - 1, j + 1) + a(i, j - 2)\n"
                    "  enddo\n"
                    "enddo\n");
  DepSet D = analyzeDependences(N);
  TransformSequence Seq;

  AnalysisReport Off = analyzeSequence(Seq, N, D);
  for (const Finding &F : Off.Findings) {
    EXPECT_NE(F.RuleId, "W205") << F.Message;
    EXPECT_NE(F.RuleId, "W206") << F.Message;
  }

  AnalysisOptions AO;
  AO.CrossCheckDeps = true;
  AnalysisReport On = analyzeSequence(Seq, N, D, AO);
  bool SawW205 = false;
  for (const Finding &F : On.Findings) {
    EXPECT_NE(F.RuleId, "W206") << F.Message;
    if (F.RuleId == "W205") {
      SawW205 = true;
      EXPECT_EQ(F.DepVector, "(0, 2)");
      EXPECT_EQ(F.Severity, FindingSeverity::Warning);
    }
  }
  EXPECT_TRUE(SawW205);
  EXPECT_EQ(On.errorCount(), 0u);
}

TEST(Analyze, CrossCheckDepsCleanOnAgreeingNest) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  AnalysisOptions AO;
  AO.CrossCheckDeps = true;
  AnalysisReport R = analyzeSequence(TransformSequence(), N, D, AO);
  for (const Finding &F : R.Findings) {
    EXPECT_NE(F.RuleId, "W205") << F.Message;
    EXPECT_NE(F.RuleId, "W206") << F.Message;
  }
}

TEST(PreFilter, FinalDepsRejectableMatchesLexTest) {
  LoopNest N = nest(RectDep);
  DepSet D = analyzeDependences(N);
  EXPECT_FALSE(finalDepsRejectable(D));

  TransformSequence Rev = script("reverse 1", 2);
  DepSet Mapped = Rev.steps()[0]->mapDependences(D);
  EXPECT_TRUE(finalDepsRejectable(Mapped));
}

} // namespace
