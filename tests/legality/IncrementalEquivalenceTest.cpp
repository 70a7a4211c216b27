//===- tests/legality/IncrementalEquivalenceTest.cpp ----------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-identity property behind the prefix-memoized engine: over a
/// generated fuzz corpus, the incremental walk (cold cache, warm cache,
/// and cache disabled) must produce verdicts identical on every
/// observable field - Legal, RejectKind, rendered Reason, Diag
/// provenance, final mapped set - to isLegal() and isLegalFast(), the
/// uncached whole-sequence walks. Both legality modes are held to the
/// property, alpha-renamed twins share an engine with their originals,
/// the five strided-soundness regression nests are pinned explicitly, an
/// overflow corpus exercises the saturation-is-uncacheable rule, and
/// witness certificates are checked for stability across repeated
/// certification.
///
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "driver/Script.h"
#include "fuzz/NestGen.h"
#include "fuzz/Rng.h"
#include "fuzz/ScriptGen.h"
#include "ir/Parser.h"
#include "legality/IncrementalEngine.h"
#include "support/MathUtils.h"
#include "witness/Witness.h"

#include <gtest/gtest.h>

#include <cctype>

using namespace irlt;
using legality::IncrementalEngine;
using legality::Mode;

namespace {

void expectSameVerdict(const LegalityResult &Got, const LegalityResult &Want,
                       const std::string &What) {
  EXPECT_EQ(Got.Legal, Want.Legal) << What;
  EXPECT_EQ(Got.Kind, Want.Kind) << What;
  EXPECT_EQ(Got.Reason, Want.Reason) << What;
  EXPECT_EQ(Got.Why.str(), Want.Why.str()) << What;
  EXPECT_EQ(Got.FinalDeps.str(), Want.FinalDeps.str()) << What;
}

/// Holds one (nest, script) pair to the identity in both modes and all
/// three cache configurations. \p Shared accumulates a warm cache across
/// the whole corpus - deliberately, so late cases exercise hits on
/// prefixes earlier cases inserted.
void checkCase(const std::string &NestSrc, const std::string &Script,
               IncrementalEngine &Shared, const std::string &What) {
  ErrorOr<LoopNest> NestOr = parseLoopNest(NestSrc);
  ASSERT_TRUE(static_cast<bool>(NestOr)) << What << ": " << NestOr.message();
  LoopNest Nest = NestOr.take();
  DepSet D;
  {
    // Same discipline as the fuzz oracles: overflow-mode nests can
    // saturate the analysis; the guard turns that into saturating
    // arithmetic, and the property below is relative, so a saturated set
    // is still a valid (identical) input to both walks.
    OverflowGuard G;
    D = analyzeDependences(Nest);
  }

  ErrorOr<TransformSequence> SeqOr =
      parseTransformScript(Script, Nest.numLoops());
  if (!SeqOr)
    return; // overflow-mode scripts can be unparseable; not this property
  TransformSequence Seq = SeqOr.take();

  legality::EngineOptions NoCacheOpts;
  NoCacheOpts.EnableCache = false;
  for (Mode M : {Mode::Full, Mode::Fast}) {
    const std::string Tag =
        What + (M == Mode::Full ? " [full]" : " [fast]") + "\nnest:\n" +
        NestSrc + "script:\n" + Script;
    LegalityResult Ref =
        M == Mode::Full ? isLegal(Seq, Nest, D) : isLegalFast(Seq, Nest, D);

    IncrementalEngine NoCache(NoCacheOpts);
    expectSameVerdict(NoCache.check(Seq, Nest, D, M), Ref,
                      "cache disabled: " + Tag);
    expectSameVerdict(Shared.check(Seq, Nest, D, M), Ref, "cold: " + Tag);
    expectSameVerdict(Shared.check(Seq, Nest, D, M), Ref, "warm: " + Tag);
  }
}

TEST(IncrementalEquivalence, FuzzCorpusVerdictsAreByteIdentical) {
  IncrementalEngine Shared;
  fuzz::NestGenOptions NO;
  fuzz::ScriptGenOptions SO;
  const unsigned Cases = 2000;
  for (unsigned I = 0; I < Cases; ++I) {
    fuzz::Rng R(fuzz::mix64(0xA11CEull ^ I));
    fuzz::NestSpec NS = fuzz::generateNest(R, NO);
    fuzz::GeneratedScript GS = fuzz::generateScript(R, NS.depth(), SO);
    checkCase(NS.render(), fuzz::joinScript(GS.Lines), Shared,
              "fuzz case " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
  // The corpus repeats nest shapes, so the shared engine must have seen
  // real reuse - otherwise the property ran against a cache that never
  // engaged.
  EXPECT_GT(Shared.stats().Hits, 0u);
}

/// \p Src with the generator's index variables i, j, k, l renamed to
/// x, y, z, w (parameters n, m and arrays a, c keep their names).
std::string renameIndexVars(const std::string &Src) {
  static const std::string From = "ijkl", To = "xyzw";
  auto word = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) != 0;
  };
  std::string Out = Src;
  for (size_t I = 0; I < Src.size(); ++I) {
    size_t P = From.find(Src[I]);
    if (P != std::string::npos && (I == 0 || !word(Src[I - 1])) &&
        (I + 1 == Src.size() || !word(Src[I + 1])))
      Out[I] = To[P];
  }
  return Out;
}

TEST(IncrementalEquivalence, RenamedTwinsMatchTheirOwnWalks) {
  // Cached states and verdicts carry the nest's own variable names, so a
  // shared engine must not answer an alpha-renamed copy from the
  // original's entries. The corpus above always uses the same names.
  IncrementalEngine Shared;
  fuzz::NestGenOptions NO;
  fuzz::ScriptGenOptions SO;
  const unsigned Cases = 500;
  for (unsigned I = 0; I < Cases; ++I) {
    fuzz::Rng R(fuzz::mix64(0x2E7A3Eull ^ I));
    fuzz::NestSpec NS = fuzz::generateNest(R, NO);
    std::string Script =
        fuzz::joinScript(fuzz::generateScript(R, NS.depth(), SO).Lines);
    std::string Src = NS.render();
    checkCase(Src, Script, Shared, "fuzz case " + std::to_string(I));
    checkCase(renameIndexVars(Src), Script, Shared,
              "renamed fuzz case " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
  EXPECT_GT(Shared.stats().Hits, 0u);
}

TEST(IncrementalEquivalence, OverflowCorpusIsIdenticalAndUncacheable) {
  IncrementalEngine Shared;
  fuzz::NestGenOptions NO;
  NO.OverflowMode = true;
  fuzz::ScriptGenOptions SO;
  SO.OverflowMode = true;
  const unsigned Cases = 200;
  for (unsigned I = 0; I < Cases; ++I) {
    fuzz::Rng R(fuzz::mix64(0x0F10Dull ^ I));
    fuzz::NestSpec NS = fuzz::generateNest(R, NO);
    fuzz::GeneratedScript GS = fuzz::generateScript(R, NS.depth(), SO);
    checkCase(NS.render(), fuzz::joinScript(GS.Lines), Shared,
              "overflow case " + std::to_string(I));
    if (HasFatalFailure())
      return;
  }
  // Huge coefficients must have saturated somewhere, and every saturated
  // stage bypassed insertion (the PR 4 fingerprint rule). Roots are keyed
  // by a structural hash, which cannot saturate, so the count comes only
  // from saturated stages.
  EXPECT_GT(Shared.stats().Uncacheable, 0u);
}

/// The five strided-soundness regression pairs (tests/integration/
/// StridedSoundnessRegressionTest.cpp) - the nests whose legality the
/// machinery historically got wrong, pinned here against the incremental
/// walk too.
TEST(IncrementalEquivalence, StridedSoundnessNestsMatch) {
  IncrementalEngine Shared;
  checkCase("do i = 1, n\n  do j = 1, n\n    do k = 1, n\n"
            "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
            "block 1 3 2 2 2\n"
            "unimodular 1 0 0 0 0 0 / 0 1 0 0 0 0 / 0 0 1 0 0 0 / "
            "0 0 1 0 0 1 / 0 0 0 0 1 0 / 0 0 0 1 0 0\n"
            "unimodular 1 0 0 0 0 0 / 0 1 0 0 0 0 / 0 0 1 0 0 0 / "
            "0 0 0 1 0 0 / 0 0 0 1 1 0 / 0 0 0 0 0 1\n",
            Shared, "strided 1 (block+unimodular chain)");
  checkCase("do i = 1, n\n  do j = i + 1, n, 2\n    do k = 1, n\n"
            "      a(i, j, k) = a(i, j, k) + a(i - 2, j, k)\n"
            "    enddo\n  enddo\nenddo\n",
            "unimodular 0 0 -1 / 0 1 0 / 1 0 0\n", Shared,
            "strided 2 (strided lower bound permute)");
  checkCase("do i = 1, n\n  do j = 1, n\n    do k = j, n, 2\n"
            "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
            "    enddo\n  enddo\nenddo\n",
            "stripmine 1 3\n"
            "unimodular 0 0 0 1 / 0 0 1 0 / 0 1 0 0 / 1 0 0 0\n", Shared,
            "strided 3 (stripmine+reversal on strided start)");
  checkCase("do i = 1, n, 2\n  do j = 1, n\n    do k = 1, n\n"
            "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
            "skew 3 1 -1\n"
            "unimodular 1 -1 0 / 0 1 0 / 0 0 1\n", Shared,
            "strided 4 (fast-path skew chain)");
  checkCase("do i = m, n\n  do j = 1, n\n    do k = j, n, 2\n"
            "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
            "    enddo\n  enddo\nenddo\n",
            "unimodular 0 0 -1 / 0 1 0 / 1 0 0\n", Shared,
            "strided 5 (search regression nest)");
}

TEST(IncrementalEquivalence, WitnessCertificatesAreStableColdAndWarm) {
  // certify() runs the uncached isLegal() walk, so a second
  // certification recomputes everything from scratch. The rendered
  // certificate must not change, and the third-party checker, which
  // re-derives the verdict, must accept both.
  struct Case {
    const char *Nest;
    const char *Script;
  } Cases[] = {
      {"do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
       "  enddo\nenddo\n",
       "interchange 1 2\n"},
      {"do i = 1, n\n  do j = 1, n\n    a(i, j) = a(i - 1, j + 1)\n"
       "  enddo\nenddo\n",
       "interchange 1 2\n"},
      {"do i = 1, n\n  do j = i, n\n    a(i, j) = 1\n  enddo\nenddo\n",
       "coalesce 1 2\n"},
  };
  for (const Case &C : Cases) {
    ErrorOr<LoopNest> NestOr = parseLoopNest(C.Nest);
    ASSERT_TRUE(static_cast<bool>(NestOr)) << NestOr.message();
    LoopNest Nest = NestOr.take();
    DepSet D = analyzeDependences(Nest);
    ErrorOr<TransformSequence> SeqOr =
        parseTransformScript(C.Script, Nest.numLoops());
    ASSERT_TRUE(static_cast<bool>(SeqOr)) << SeqOr.message();
    TransformSequence Seq = SeqOr.take();

    witness::Certificate Cold = witness::certify(Seq, Nest, D);
    witness::Certificate Warm = witness::certify(Seq, Nest, D);
    EXPECT_EQ(Cold.str(), Warm.str()) << C.Script;
    EXPECT_EQ(Cold.Accepted, isLegal(Seq, Nest, D).Legal) << C.Script;
    EXPECT_EQ(witness::checkCertificate(Cold, Seq, Nest, D), "") << C.Script;
    EXPECT_EQ(witness::checkCertificate(Warm, Seq, Nest, D), "") << C.Script;
  }
}

} // namespace
