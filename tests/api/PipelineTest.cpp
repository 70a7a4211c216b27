//===- tests/api/PipelineTest.cpp - irlt::api facade tests ----------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "api/Pipeline.h"

#include <gtest/gtest.h>

#include <thread>

using namespace irlt;
using namespace irlt::api;

namespace {

const char *Matmul = "arrays B, C\n"
                     "do i = 1, n\n"
                     "  do j = 1, n\n"
                     "    do k = 1, n\n"
                     "      A(i, j) += B(i, k) * C(k, j)\n"
                     "    enddo\n"
                     "  enddo\n"
                     "enddo\n";

const char *Stencil =
    "do i = 2, n - 1\n"
    "  do j = 2, n - 1\n"
    "    a(i, j) = (a(i, j) + a(i - 1, j) + a(i, j - 1) + a(i + 1, j) + "
    "a(i, j + 1)) / 5\n"
    "  enddo\n"
    "enddo\n";

LoopNest load(Pipeline &P, const char *Src) {
  ErrorOr<LoopNest> N = P.loadNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return N.take();
}

TransformSequence script(Pipeline &P, const char *Text, unsigned NumLoops) {
  ErrorOr<TransformSequence> Seq = P.parseScript(Text, NumLoops);
  EXPECT_TRUE(static_cast<bool>(Seq)) << Seq.message();
  return Seq.take();
}

void expectSameVerdict(const LegalityResult &A, const LegalityResult &B,
                       const std::string &What) {
  EXPECT_EQ(A.Legal, B.Legal) << What;
  EXPECT_EQ(A.Kind, B.Kind) << What;
  EXPECT_EQ(A.Reason, B.Reason) << What;
  EXPECT_EQ(A.FinalDeps.str(), B.FinalDeps.str()) << What;
}

/// Four stages that parse against both nests below; the walk of each
/// nest consumes all four unless a stage rejects.
const char *FourStages = "interchange 1 2\nreverse 2\ninterchange 1 2\n"
                         "reverse 1";

} // namespace

TEST(Pipeline, LoadParseApplyEmit) {
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  ErrorOr<TransformSequence> Seq = P.parseScript("interchange 1 3", 3);
  ASSERT_TRUE(static_cast<bool>(Seq)) << Seq.message();
  ErrorOr<LoopNest> Out = P.apply(*Seq, Nest);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->numLoops(), 3u);
  EXPECT_NE(P.emit(*Out, EmitKind::Loop).find("do"), std::string::npos);
  EXPECT_NE(P.emit(*Out, EmitKind::C).find("kernel"), std::string::npos);
  // applyScript is the one-shot composition of the two.
  ErrorOr<LoopNest> Out2 = P.applyScript(Nest, "interchange 1 3");
  ASSERT_TRUE(static_cast<bool>(Out2)) << Out2.message();
  EXPECT_EQ(Out->str(), Out2->str());
}

TEST(Pipeline, StructuredFailuresCarryDiags) {
  Pipeline P;
  ErrorOr<LoopNest> Bad = P.loadNest("do i = \n");
  EXPECT_FALSE(static_cast<bool>(Bad));
  EXPECT_FALSE(Bad.message().empty());
  ErrorOr<TransformSequence> BadSeq = P.parseScript("frobnicate 1 2", 2);
  EXPECT_FALSE(static_cast<bool>(BadSeq));
  EXPECT_FALSE(BadSeq.diags().empty());
}

TEST(Pipeline, DependenceCacheHitsOnRepeatAndRename) {
  Pipeline P;
  LoopNest Nest = load(P, Stencil);
  std::shared_ptr<const DepSet> D1 = P.dependences(Nest);
  CacheStats S1 = P.cacheStats();
  EXPECT_EQ(S1.DepMisses, 1u);
  EXPECT_EQ(S1.DepHits, 0u);

  std::shared_ptr<const DepSet> D2 = P.dependences(Nest);
  EXPECT_EQ(D1.get(), D2.get()) << "repeat lookup must share the entry";

  // An alpha-renamed copy of the same nest is the same cache entry.
  LoopNest Renamed = load(
      P, "do p = 2, n - 1\n"
         "  do q = 2, n - 1\n"
         "    a(p, q) = (a(p, q) + a(p - 1, q) + a(p, q - 1) + a(p + 1, q) + "
         "a(p, q + 1)) / 5\n"
         "  enddo\n"
         "enddo\n");
  std::shared_ptr<const DepSet> D3 = P.dependences(Renamed);
  EXPECT_EQ(D1.get(), D3.get());
  CacheStats S3 = P.cacheStats();
  EXPECT_EQ(S3.DepMisses, 1u);
  EXPECT_EQ(S3.DepHits, 2u);
  EXPECT_EQ(S3.DepEntries, 1u);
  EXPECT_GT(S3.depHitRate(), 0.5);
}

TEST(Pipeline, LegalityCacheKeysOnReducedSequence) {
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  ErrorOr<TransformSequence> A = P.parseScript("interchange 1 2", 3);
  ASSERT_TRUE(static_cast<bool>(A));
  LegalityResult L1 = P.checkLegality(*A, Nest);
  EXPECT_TRUE(L1.Legal);
  EXPECT_EQ(P.cacheStats().LegalityMisses, 1u);

  // A different spelling with the same reduced() form hits the entry.
  ErrorOr<TransformSequence> B = P.parseScript("permute 2 1 3", 3);
  ASSERT_TRUE(static_cast<bool>(B));
  ASSERT_EQ(A->reduced().str(), B->reduced().str());
  LegalityResult L2 = P.checkLegality(*B, Nest);
  EXPECT_EQ(P.cacheStats().LegalityHits, 1u);
  EXPECT_EQ(L1.Legal, L2.Legal);
  EXPECT_EQ(L1.FinalDeps.str(), L2.FinalDeps.str());

  // A genuinely different sequence is a different entry.
  ErrorOr<TransformSequence> C = P.parseScript("interchange 1 3", 3);
  ASSERT_TRUE(static_cast<bool>(C));
  P.checkLegality(*C, Nest);
  EXPECT_EQ(P.cacheStats().LegalityMisses, 2u);
}

TEST(Pipeline, CachedAndUncachedVerdictsAgree) {
  PipelineOptions Off;
  Off.EnableCache = false;
  Pipeline Cached, Uncached(Off);
  LoopNest Nest = load(Cached, Stencil);
  ErrorOr<TransformSequence> Seq =
      Cached.parseScript("skew 1 2 1\ninterchange 1 2", 2);
  ASSERT_TRUE(static_cast<bool>(Seq));
  TransformSequence R = Seq->reduced();
  for (const TransformSequence &S : {*Seq, R}) {
    LegalityResult LC = Cached.checkLegality(S, Nest);
    LegalityResult LU = Uncached.checkLegality(S, Nest);
    EXPECT_EQ(LC.Legal, LU.Legal);
    EXPECT_EQ(LC.Kind, LU.Kind);
    EXPECT_EQ(LC.Reason, LU.Reason);
    EXPECT_EQ(LC.FinalDeps.str(), LU.FinalDeps.str());
  }
  EXPECT_EQ(Uncached.cacheStats().DepMisses, 0u);
  EXPECT_EQ(Uncached.cacheStats().LegalityMisses, 0u);
}

TEST(Pipeline, ClearCachesDropsEntries) {
  Pipeline P;
  LoopNest Nest = load(P, Stencil);
  P.dependences(Nest);
  P.checkLegality(TransformSequence(), Nest);
  P.checkLegality(script(P, "skew 1 2 1\ninterchange 1 2", 2), Nest);
  EXPECT_GT(P.cacheStats().DepEntries, 0u);
  EXPECT_GT(P.cacheStats().LegalityEntries, 0u);
  P.clearCaches();
  CacheStats S = P.cacheStats();
  EXPECT_EQ(S.DepEntries, 0u);
  EXPECT_EQ(S.LegalityEntries, 0u);
  // Cleared entries count as evictions, so the counters still reconcile.
  EXPECT_EQ(S.DepInserts - S.DepEvictions, S.DepEntries);
  EXPECT_EQ(S.LegalityInserts - S.LegalityEvictions, S.LegalityEntries);
}

TEST(Pipeline, LegalityRunsThroughThePipelinesOwnEngine) {
  legality::IncrementalEngine &G = legality::IncrementalEngine::global();
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  TransformSequence Seq = script(P, FourStages, 3);
  auto expectOwnEngineOnly = [&](const char *What, auto &&Call) {
    legality::EngineStats Before = G.stats();
    uint64_t Lookups = P.cacheStats().LegalityLookups;
    Call();
    legality::EngineStats After = G.stats();
    EXPECT_EQ(After.Hits, Before.Hits) << What;
    EXPECT_EQ(After.Misses, Before.Misses) << What;
    EXPECT_EQ(After.Inserts, Before.Inserts) << What;
    EXPECT_EQ(After.Uncacheable, Before.Uncacheable) << What;
    EXPECT_GT(P.cacheStats().LegalityLookups, Lookups) << What;
  };
  expectOwnEngineOnly("checkLegality", [&] { P.checkLegality(Seq, Nest); });
  expectOwnEngineOnly("checkLegalityFast",
                      [&] { P.checkLegalityFast(Seq, Nest); });
  expectOwnEngineOnly("openSequence", [&] {
    legality::SequenceBuilder B = P.openSequence(Nest);
    for (const TemplateRef &Step : Seq.steps())
      B.extend(Step);
    B.finish();
  });
  expectOwnEngineOnly("searchAuto", [&] {
    search::SearchOptions SO;
    SO.Beam = 2;
    SO.Depth = 1;
    P.searchAuto(Nest, SO);
  });
}

TEST(Pipeline, CacheCapacityBoundsTheLegalityEngine) {
  PipelineOptions Bounded;
  Bounded.CacheCapacity = 2;
  Pipeline Tiny(Bounded), Unbounded;
  for (int Round = 0; Round < 2; ++Round) {
    for (const char *Src : {Matmul, Stencil}) {
      LoopNest Nest = load(Tiny, Src);
      TransformSequence Seq = script(Tiny, FourStages, Nest.numLoops());
      expectSameVerdict(Tiny.checkLegality(Seq, Nest),
                        Unbounded.checkLegality(Seq, Nest), Src);
      EXPECT_LE(Tiny.cacheStats().LegalityEntries, 2u);
    }
  }
  CacheStats S = Tiny.cacheStats();
  EXPECT_GT(S.LegalityEvictions, 0u);
  EXPECT_EQ(S.LegalityHits + S.LegalityMisses, S.LegalityLookups);
  EXPECT_EQ(S.LegalityInserts - S.LegalityEvictions, S.LegalityEntries);
}

TEST(Pipeline, CacheOffRecordsNoLegalityLookups) {
  PipelineOptions Off;
  Off.EnableCache = false;
  Pipeline Cached, Uncached(Off);
  for (const char *Src : {Matmul, Stencil}) {
    LoopNest Nest = load(Cached, Src);
    TransformSequence Seq = script(Cached, FourStages, Nest.numLoops());
    expectSameVerdict(Uncached.checkLegality(Seq, Nest),
                      Cached.checkLegality(Seq, Nest), Src);
    expectSameVerdict(Uncached.checkLegalityFast(Seq, Nest),
                      Cached.checkLegalityFast(Seq, Nest), Src);
    legality::SequenceBuilder B = Uncached.openSequence(Nest);
    for (const TemplateRef &Step : Seq.steps())
      B.extend(Step);
    expectSameVerdict(B.finish(), Cached.checkLegality(Seq, Nest), Src);
  }
  search::SearchOptions SO;
  SO.Beam = 2;
  SO.Depth = 1;
  LoopNest Nest = load(Cached, Matmul);
  search::SearchResult RU = Uncached.searchAuto(Nest, SO);
  search::SearchResult RC = Cached.searchAuto(Nest, SO);
  ASSERT_TRUE(RU.Best.has_value() && RC.Best.has_value());
  EXPECT_EQ(RU.Best->Seq.str(), RC.Best->Seq.str());
  EXPECT_EQ(RU.Stats.Legal, RC.Stats.Legal);
  CacheStats S = Uncached.cacheStats();
  EXPECT_EQ(S.LegalityLookups, 0u);
  EXPECT_EQ(S.LegalityInserts, 0u);
  EXPECT_EQ(S.LegalityEntries, 0u);
}

TEST(Pipeline, SearchAutoFindsLegalSequence) {
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  search::SearchOptions SO;
  SO.Beam = 4;
  SO.Depth = 1;
  search::SearchResult R = P.searchAuto(Nest, SO);
  EXPECT_TRUE(R.Error.empty()) << R.Error;
  ASSERT_TRUE(R.Best.has_value());
  LegalityResult L = P.checkLegality(R.Best->Seq, Nest);
  EXPECT_TRUE(L.Legal) << L.Reason;
}

TEST(Pipeline, ValidateLadderConfirmsLegalCandidate) {
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  ErrorOr<TransformSequence> Seq = P.parseScript("interchange 1 2", 3);
  ASSERT_TRUE(static_cast<bool>(Seq));
  witness::ValidateOptions VO = witness::ValidateOptions::defaults();
  VO.MaxInstances = 10'000;
  VO.ReproDir.clear();
  witness::LadderResult LR = P.validate(Nest, {*Seq}, VO);
  EXPECT_EQ(LR.Chosen, 0);
  ASSERT_EQ(LR.Outcomes.size(), 1u);
  EXPECT_EQ(LR.Outcomes[0].Status, witness::ValidateStatus::Confirmed)
      << LR.Outcomes[0].Detail;
}

TEST(Pipeline, CertifyAndCheckRoundTrip) {
  Pipeline P;
  LoopNest Nest = load(P, Matmul);
  ErrorOr<TransformSequence> Seq = P.parseScript("interchange 1 2", 3);
  ASSERT_TRUE(static_cast<bool>(Seq));
  witness::Certificate C = P.certify(*Seq, Nest);
  EXPECT_EQ(P.checkCertificate(C, *Seq, Nest), "");
}

TEST(Pipeline, ConcurrentLookupsAreSafeAndConsistent) {
  Pipeline P;
  LoopNest Nest = load(P, Stencil);
  ErrorOr<TransformSequence> Seq =
      P.parseScript("skew 1 2 1\ninterchange 1 2", 2);
  ASSERT_TRUE(static_cast<bool>(Seq));
  TransformSequence R = Seq->reduced();
  LegalityResult Expected = P.checkLegality(R, Nest);

  std::vector<std::thread> Threads;
  std::vector<int> Bad(8, 0);
  for (int T = 0; T < 8; ++T) {
    Threads.emplace_back([&, T] {
      for (int I = 0; I < 50; ++I) {
        LegalityResult L = P.checkLegality(R, Nest);
        if (L.Legal != Expected.Legal ||
            L.FinalDeps.str() != Expected.FinalDeps.str())
          Bad[T]++;
        if (!P.dependences(Nest))
          Bad[T]++;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  for (int B : Bad)
    EXPECT_EQ(B, 0);
  CacheStats S = P.cacheStats();
  EXPECT_EQ(S.DepEntries, 1u);
  EXPECT_EQ(S.LegalityEntries, 1u);
}

TEST(Pipeline, CacheCapacityEvictsDeterministicallyAndRecomputesIdentically) {
  PipelineOptions Bounded;
  Bounded.CacheCapacity = 1;
  Pipeline Tiny(Bounded), Unbounded;
  LoopNest A = load(Tiny, Matmul);
  LoopNest B = load(Tiny, Stencil);
  LoopNest AU = load(Unbounded, Matmul);
  LoopNest BU = load(Unbounded, Stencil);

  // Alternating two nests through a capacity-1 cache churns constantly;
  // every recompute must match the unbounded pipeline's entry exactly.
  std::string RefA = Unbounded.dependences(AU)->str();
  std::string RefB = Unbounded.dependences(BU)->str();
  for (int I = 0; I < 4; ++I) {
    EXPECT_EQ(Tiny.dependences(A)->str(), RefA);
    EXPECT_EQ(Tiny.dependences(B)->str(), RefB);
  }

  CacheStats S = Tiny.cacheStats();
  EXPECT_GT(S.DepEvictions, 0u) << "capacity 1 under two keys must evict";
  EXPECT_LE(S.DepEntries, 1u);
  EXPECT_EQ(S.DepHits + S.DepMisses, S.DepLookups);
  EXPECT_EQ(S.DepInserts - S.DepEvictions, S.DepEntries);

  // Same churn on the legality cache: two sequences against one nest.
  ErrorOr<TransformSequence> S1 = Tiny.parseScript("interchange 1 2", 3);
  ErrorOr<TransformSequence> S2 = Tiny.parseScript("interchange 1 3", 3);
  ASSERT_TRUE(static_cast<bool>(S1) && static_cast<bool>(S2));
  LegalityResult R1 = Unbounded.checkLegality(*S1, AU);
  LegalityResult R2 = Unbounded.checkLegality(*S2, AU);
  for (int I = 0; I < 4; ++I) {
    LegalityResult T1 = Tiny.checkLegality(*S1, A);
    LegalityResult T2 = Tiny.checkLegality(*S2, A);
    EXPECT_EQ(T1.Legal, R1.Legal);
    EXPECT_EQ(T1.FinalDeps.str(), R1.FinalDeps.str());
    EXPECT_EQ(T2.Legal, R2.Legal);
    EXPECT_EQ(T2.FinalDeps.str(), R2.FinalDeps.str());
  }
  S = Tiny.cacheStats();
  EXPECT_GT(S.LegalityEvictions, 0u);
  EXPECT_LE(S.LegalityEntries, 1u);
  EXPECT_EQ(S.LegalityHits + S.LegalityMisses, S.LegalityLookups);
  EXPECT_EQ(S.LegalityInserts - S.LegalityEvictions, S.LegalityEntries);
}

TEST(Pipeline, CacheCountersAreStableAcrossIdenticalRuns) {
  // Eviction determinism: the same access sequence yields the same
  // counters, not merely the same values (recency is never timing-based).
  auto runOnce = [] {
    PipelineOptions O;
    O.CacheCapacity = 2;
    Pipeline P(O);
    LoopNest A = load(P, Matmul);
    LoopNest B = load(P, Stencil);
    for (int I = 0; I < 6; ++I)
      P.dependences(I % 3 == 0 ? B : A);
    return P.cacheStats();
  };
  CacheStats X = runOnce(), Y = runOnce();
  EXPECT_EQ(X.DepHits, Y.DepHits);
  EXPECT_EQ(X.DepMisses, Y.DepMisses);
  EXPECT_EQ(X.DepInserts, Y.DepInserts);
  EXPECT_EQ(X.DepEvictions, Y.DepEvictions);
  EXPECT_EQ(X.DepEntries, Y.DepEntries);
}
