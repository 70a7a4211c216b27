//===- tests/legality/SequenceBuilderTest.cpp -----------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the sequence-extension API (legality/IncrementalEngine.h):
/// extend() verdicts and witness provenance, sticky failure, prefix
/// forking, cache counter reconciliation, the saturation-is-uncacheable
/// rule, and eviction transparency. Every verdict is held against
/// isLegal() or isLegalFast() - the uncached whole-sequence walks - on
/// all comparable fields.
///
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"
#include "dependence/DepAnalysis.h"
#include "ir/Parser.h"
#include "legality/IncrementalEngine.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

using namespace irlt;
using legality::IncrementalEngine;
using legality::Mode;
using legality::SequenceBuilder;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

/// Byte-level verdict equality on every surface a caller can observe.
void expectSameVerdict(const LegalityResult &Got, const LegalityResult &Want,
                       const std::string &What) {
  EXPECT_EQ(Got.Legal, Want.Legal) << What;
  EXPECT_EQ(Got.Kind, Want.Kind) << What;
  EXPECT_EQ(Got.Reason, Want.Reason) << What;
  EXPECT_EQ(Got.Why.str(), Want.Why.str()) << What;
  EXPECT_EQ(Got.FinalDeps.str(), Want.FinalDeps.str()) << What;
}

TEST(SequenceBuilder, ExtendLegalStepAndFinish) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  IncrementalEngine Eng;

  SequenceBuilder B = Eng.open(N, D);
  EXPECT_EQ(B.length(), 0u);
  EXPECT_EQ(B.outputLoops(), 2u);
  EXPECT_EQ(B.deps().str(), D.str());

  ASSERT_TRUE(B.extend(makeInterchange(2, 0, 1)));
  EXPECT_FALSE(B.hasFailed());
  EXPECT_EQ(B.length(), 1u);
  EXPECT_EQ(B.outputLoops(), 2u);

  TransformSequence S = TransformSequence::of({makeInterchange(2, 0, 1)});
  expectSameVerdict(B.finish(), isLegal(S, N, D), "interchange finish");
  EXPECT_TRUE(B.finish().Legal);
}

TEST(SequenceBuilder, FinishRejectsLexNegativeFinalSet) {
  // Dep (1, -1): legal as-is, lex-negative after interchange. The stage
  // itself survives (intermediate sets need not be non-negative); only
  // finish() rejects.
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j + 1)\n"
                     "  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  IncrementalEngine Eng;

  SequenceBuilder B = Eng.open(N, D);
  ASSERT_TRUE(B.extend(makeInterchange(2, 0, 1)));
  LegalityResult R = B.finish();
  EXPECT_FALSE(R.Legal);
  EXPECT_EQ(R.Kind, LegalityResult::RejectKind::LexNegative);

  TransformSequence S = TransformSequence::of({makeInterchange(2, 0, 1)});
  expectSameVerdict(R, isLegal(S, N, D), "lex-negative finish");
}

TEST(SequenceBuilder, StageRejectionCarriesProvenanceAndIsSticky) {
  // Coalesce of a triangular band violates its bounds precondition at
  // stage 1 (same case as Sequence.IsLegalReportsPreconditionStage).
  LoopNest N = parse("do i = 1, n\n  do j = i, n\n    a(i, j) = 1\n"
                     "  enddo\nenddo\n");
  IncrementalEngine Eng;

  SequenceBuilder B = Eng.open(N, DepSet());
  EXPECT_FALSE(B.extend(makeCoalesce(2, 1, 2)));
  ASSERT_TRUE(B.hasFailed());
  EXPECT_EQ(B.failure().Kind, LegalityResult::RejectKind::BoundsPrecondition);
  EXPECT_NE(B.failure().Reason.find("stage 1"), std::string::npos)
      << B.failure().Reason;

  TransformSequence S = TransformSequence::of({makeCoalesce(2, 1, 2)});
  expectSameVerdict(B.failure(), isLegal(S, N, DepSet()),
                    "coalesce stage rejection");

  // Sticky: further extension refuses, finish() returns the rejection.
  LegalityResult First = B.failure();
  EXPECT_FALSE(B.extend(makeInterchange(2, 0, 1)));
  expectSameVerdict(B.failure(), First, "failure is sticky");
  expectSameVerdict(B.finish(), First, "finish returns the stage failure");
}

TEST(SequenceBuilder, FailedBuilderRefusesEveryExtension) {
  LegalityResult V;
  V.reject(LegalityResult::RejectKind::Overflow,
           Diag::error("dependence analysis overflowed"));
  SequenceBuilder B = SequenceBuilder::failed(V);
  EXPECT_TRUE(B.hasFailed());
  EXPECT_FALSE(B.extend(makeInterchange(2, 0, 1)));
  expectSameVerdict(B.finish(), V, "pre-failed builder");
}

TEST(SequenceBuilder, CopyForksThePrefix) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j)\n  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  IncrementalEngine Eng;

  SequenceBuilder A = Eng.open(N, D);
  ASSERT_TRUE(A.extend(makeInterchange(2, 0, 1)));
  SequenceBuilder B = A; // fork: the search's expansion pattern
  ASSERT_TRUE(B.extend(makeInterchange(2, 0, 1)));
  EXPECT_EQ(A.length(), 1u);
  EXPECT_EQ(B.length(), 2u);
  // The fork diverged; the original's mapped set is untouched.
  EXPECT_EQ(B.deps().str(), D.str()); // two interchanges = identity
  EXPECT_NE(A.deps().str(), D.str());
}

TEST(SequenceBuilder, CacheCountersReconcileAndHitsAreByteIdentical) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  TransformSequence S = TransformSequence::of(
      {makeInterchange(2, 0, 1), makeUnimodular(2, UnimodularMatrix::skew(
                                                       2, 0, 1, 1))});
  IncrementalEngine Eng;

  LegalityResult Cold = Eng.check(S, N, D, Mode::Full);
  IncrementalEngine::Stats St = Eng.stats();
  EXPECT_EQ(St.Hits, 0u);
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.Inserts, 2u);
  EXPECT_EQ(St.Entries, St.Inserts - St.Evictions);

  LegalityResult Warm = Eng.check(S, N, D, Mode::Full);
  St = Eng.stats();
  EXPECT_EQ(St.Hits, 2u);
  EXPECT_EQ(St.Misses, 2u);
  expectSameVerdict(Warm, Cold, "warm whole-sequence check");
  expectSameVerdict(Warm, isLegal(S, N, D), "warm check vs isLegal");
}

TEST(SequenceBuilder, CachedStageRejectionIsByteIdentical) {
  LoopNest N = parse("do i = 1, n\n  do j = i, n\n    a(i, j) = 1\n"
                     "  enddo\nenddo\n");
  TransformSequence S = TransformSequence::of({makeCoalesce(2, 1, 2)});
  IncrementalEngine Eng;

  LegalityResult Cold = Eng.check(S, N, DepSet(), Mode::Full);
  LegalityResult Warm = Eng.check(S, N, DepSet(), Mode::Full);
  EXPECT_GE(Eng.stats().Hits, 1u) << "the rejection itself must be cached";
  expectSameVerdict(Warm, Cold, "cached stage rejection");
}

TEST(SequenceBuilder, SaturatedStagesAreNeverCached) {
  // Two skews of 2^32 each: mapping the (1, 0) dependence through both
  // multiplies the factors, which saturates int64 (2^64), so the chain
  // rejects with Overflow through saturating arithmetic - a verdict that
  // must be recomputed every time, mirroring the Pipeline's fingerprint
  // rule.
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j)\n  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  const int64_t F = int64_t(1) << 32;
  TransformSequence S = TransformSequence::of(
      {makeUnimodular(2, UnimodularMatrix::skew(2, 0, 1, F)),
       makeUnimodular(2, UnimodularMatrix::skew(2, 1, 0, F))});

  LegalityResult Ref = isLegal(S, N, D);
  ASSERT_FALSE(Ref.Legal);
  ASSERT_EQ(Ref.Kind, LegalityResult::RejectKind::Overflow) << Ref.Reason;

  IncrementalEngine Eng;
  LegalityResult Cold = Eng.check(S, N, D, Mode::Full);
  LegalityResult Warm = Eng.check(S, N, D, Mode::Full);
  expectSameVerdict(Cold, Ref, "cold saturated chain");
  expectSameVerdict(Warm, Ref, "warm saturated chain");
  // The saturated stage was computed twice and inserted neither time.
  EXPECT_EQ(Eng.stats().Uncacheable, 2u);
}

TEST(SequenceBuilder, EvictionIsTransparent) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  // Three distinct prefixes against a two-entry cache: something must be
  // evicted, and nothing observable may change.
  TransformSequence S = TransformSequence::of(
      {makeInterchange(2, 0, 1),
       makeUnimodular(2, UnimodularMatrix::skew(2, 0, 1, 1)),
       makeInterchange(2, 0, 1)});
  legality::EngineOptions O;
  O.CacheCapacity = 2;
  IncrementalEngine Eng(O);

  LegalityResult First = Eng.check(S, N, D, Mode::Full);
  LegalityResult Second = Eng.check(S, N, D, Mode::Full);
  IncrementalEngine::Stats St = Eng.stats();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_EQ(St.Entries, St.Inserts - St.Evictions);
  expectSameVerdict(First, isLegal(S, N, D), "bounded-cache first run");
  expectSameVerdict(Second, First, "bounded-cache second run");
}

/// The inverse of hashMix in its second argument: the V for which
/// hashMix(H, V) == T.
uint64_t unmix(uint64_t H, uint64_t T) {
  return (T ^ H) - 0x9e3779b97f4a7c15ull - (H << 6) - (H >> 2);
}

TEST(SequenceBuilder, RootHashCollisionCachesNothing) {
  // Root keys are 64-bit hashes. Build two nests that differ only in the
  // inner upper bound, i + 0 against two constants solved (through
  // Expr::structuralHash's recipe) for the same hash: interchange rejects
  // the triangular one and accepts the rectangular one, so a builder that
  // adopted the other root's entries would report the wrong verdict.
  const ExprRef Tri = Expr::add(Expr::intConst(0), Expr::var("i"));
  const uint64_t ConstSeed =
      hashMix(0, static_cast<uint64_t>(Expr::Kind::IntConst));
  const uint64_t AddSeed = hashMix(0, static_cast<uint64_t>(Expr::Kind::Add));
  ExprRef Rect;
  for (int64_t Q = 1; !Rect; ++Q) {
    uint64_t Lhs =
        hashMix(AddSeed, hashMix(ConstSeed, static_cast<uint64_t>(Q)));
    auto R = static_cast<int64_t>(
        unmix(ConstSeed, unmix(Lhs, Tri->structuralHash())));
    int64_t Sum;
    if (!__builtin_add_overflow(Q, R, &Sum))
      Rect = Expr::add(Expr::intConst(Q), Expr::intConst(R));
  }
  LoopNest A = parse("do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i, j) + 1\n"
                     "  enddo\nenddo\n");
  LoopNest B = A;
  A.Loops[1].Upper = Tri;
  B.Loops[1].Upper = Rect;
  ASSERT_EQ(A.structuralHash(), B.structuralHash());
  ASSERT_FALSE(A.equals(B));

  TransformSequence S = TransformSequence::of({makeInterchange(2, 0, 1)});
  DepSet D;
  ASSERT_NE(isLegal(S, A, D).Legal, isLegal(S, B, D).Legal);
  for (bool AFirst : {true, false}) {
    const LoopNest &First = AFirst ? A : B, &Second = AFirst ? B : A;
    const std::string What = AFirst ? "triangular first" : "rectangular first";
    IncrementalEngine Eng;
    expectSameVerdict(Eng.check(S, First, D, Mode::Full),
                      isLegal(S, First, D), What + ": first root");
    IncrementalEngine::Stats Before = Eng.stats();
    expectSameVerdict(Eng.check(S, Second, D, Mode::Full),
                      isLegal(S, Second, D), What + ": colliding root");
    IncrementalEngine::Stats After = Eng.stats();
    EXPECT_EQ(After.Hits + After.Misses, Before.Hits + Before.Misses) << What;
    EXPECT_EQ(After.Inserts, Before.Inserts) << What;
    EXPECT_EQ(After.Uncacheable, Before.Uncacheable + 1) << What;
    // The first root's entries are untouched and still hit.
    expectSameVerdict(Eng.check(S, First, D, Mode::Full),
                      isLegal(S, First, D), What + ": first root again");
    EXPECT_EQ(Eng.stats().Hits, After.Hits + 1) << What;
  }
}

TEST(SequenceBuilder, FastModeMaterializesCustomStages) {
  // StripMine has no type rule, so Fast mode materializes the concrete
  // nest lazily - the path with the trickiest stage attribution.
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j)\n  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  TransformSequence S = TransformSequence::of(
      {makeInterchange(2, 0, 1), makeStripMine(2, 1, Expr::intConst(2)),
       makeInterchange(3, 1, 2)});
  IncrementalEngine Eng;

  LegalityResult Ref = isLegalFast(S, N, D);
  expectSameVerdict(Eng.check(S, N, D, Mode::Fast), Ref, "fast cold");
  expectSameVerdict(Eng.check(S, N, D, Mode::Fast), Ref, "fast warm");
  // Fast and Full agree here end to end (not true in general; true for
  // this sequence).
  expectSameVerdict(Eng.check(S, N, D, Mode::Full), isLegal(S, N, D),
                    "full mode on the same chain");
}

TEST(SequenceBuilder, PipelineOpenSequenceMatchesCheckLegality) {
  api::Pipeline P;
  ErrorOr<LoopNest> N = P.loadNest("do i = 1, n\n  do j = 1, n\n"
                                   "    a(i, j) = a(i - 1, j + 1)\n"
                                   "  enddo\nenddo\n");
  ASSERT_TRUE(static_cast<bool>(N)) << N.message();
  TransformSequence S = TransformSequence::of({makeInterchange(2, 0, 1)});

  SequenceBuilder B = P.openSequence(*N);
  for (const TemplateRef &Step : S.steps())
    if (!B.extend(Step))
      break;
  LegalityResult Inc = B.hasFailed() ? B.failure() : B.finish();
  expectSameVerdict(Inc, P.checkLegality(S, *N), "openSequence vs Pipeline");
}

} // namespace
