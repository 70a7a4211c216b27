//===- tests/search/SearchThreadScalingTest.cpp ---------------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search determinism contract under the per-prefix threading model:
/// the result - winner, top-k order, every score, and every stat counter
/// - is byte-identical for any thread count, including counts beyond the
/// hardware (which are clamped), and whichever legality engine confirms
/// the leaves: the one a search builds for itself, a fresh one, or one
/// an earlier search warmed. Plus the thread-scaling assertion that
/// used to be inverted in BM_SearchMatmulDepth2Threads: on a machine
/// with >= 4 cores, a 4-worker depth-2 search must not be slower than
/// the 1-worker run. The timing test skips loudly on single-core
/// runners and under sanitizers, where wall-clock ratios are
/// meaningless; the byte-identity tests always run (they are part of
/// the TSan lane).
///
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "ir/Parser.h"
#include "legality/IncrementalEngine.h"
#include "search/Search.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace irlt;
using namespace irlt::search;

namespace {

LoopNest matmul() {
  ErrorOr<LoopNest> N = parseLoopNest("arrays B, C\n"
                                      "do i = 1, n\n"
                                      "  do j = 1, n\n"
                                      "    do k = 1, n\n"
                                      "      A(i, j) += B(i, k) * C(k, j)\n"
                                      "    enddo\n"
                                      "  enddo\n"
                                      "enddo\n");
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

SearchOptions depth2Options(unsigned Threads) {
  SearchOptions O;
  O.Obj = Objective::Both;
  O.Depth = 2;
  O.Beam = 4;
  O.Threads = Threads;
  return O;
}

void expectSameResult(const SearchResult &A, const SearchResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.Stats.Enumerated, B.Stats.Enumerated) << What;
  EXPECT_EQ(A.Stats.Pruned, B.Stats.Pruned) << What;
  EXPECT_EQ(A.Stats.Deduped, B.Stats.Deduped) << What;
  EXPECT_EQ(A.Stats.Leaves, B.Stats.Leaves) << What;
  EXPECT_EQ(A.Stats.Legal, B.Stats.Legal) << What;
  ASSERT_EQ(A.Top.size(), B.Top.size()) << What;
  for (size_t I = 0; I < A.Top.size(); ++I) {
    EXPECT_EQ(A.Top[I].Key, B.Top[I].Key) << What << " rank " << I;
    EXPECT_EQ(A.Top[I].Cost, B.Top[I].Cost) << What << " rank " << I;
    EXPECT_EQ(A.Top[I].MissRatio, B.Top[I].MissRatio) << What << " rank " << I;
    EXPECT_EQ(A.Top[I].ParScore, B.Top[I].ParScore) << What << " rank " << I;
    EXPECT_EQ(A.Top[I].ParallelLoops, B.Top[I].ParallelLoops)
        << What << " rank " << I;
    EXPECT_EQ(A.Top[I].Seq.str(), B.Top[I].Seq.str()) << What << " rank " << I;
  }
  ASSERT_EQ(A.Best.has_value(), B.Best.has_value()) << What;
  if (A.Best)
    EXPECT_EQ(A.Best->Key, B.Best->Key) << What;
}

TEST(SearchThreadScaling, ResultsAreByteIdenticalAcrossThreadCounts) {
  LoopNest N = matmul();
  DepSet D = analyzeDependences(N);
  SearchResult One = searchTransformations(N, D, depth2Options(1));
  ASSERT_TRUE(One.Error.empty()) << One.Error;
  ASSERT_FALSE(One.Top.empty());
  for (unsigned T : {2u, 4u, 7u}) {
    SearchResult Many = searchTransformations(N, D, depth2Options(T));
    expectSameResult(Many, One, "threads=" + std::to_string(T));
  }
}

TEST(SearchThreadScaling, OversubscribedThreadCountIsClampedNotSlower) {
  // 64 requested workers on any machine: the clamp keeps the pool at
  // hardware size, so this must behave (and verify) exactly like the
  // 1-thread run. Pure byte-identity - safe under sanitizers.
  LoopNest N = matmul();
  DepSet D = analyzeDependences(N);
  expectSameResult(searchTransformations(N, D, depth2Options(64)),
                   searchTransformations(N, D, depth2Options(1)),
                   "threads=64");
}

TEST(SearchThreadScaling, OwnEngineMatchesFreshAndWarmSharedEngines) {
  // A search given no engine builds one for the call; passing a fresh
  // engine or a warm one (whose cached prefixes the leaves then hit)
  // must not change a byte of the result.
  LoopNest N = matmul();
  DepSet D = analyzeDependences(N);
  SearchResult Own = searchTransformations(N, D, depth2Options(4));
  ASSERT_FALSE(Own.Top.empty());
  legality::IncrementalEngine Fresh, Shared;
  expectSameResult(searchTransformations(N, D, depth2Options(4), Fresh), Own,
                   "fresh engine");
  (void)searchTransformations(N, D, depth2Options(1), Shared);
  uint64_t WarmHits = Shared.stats().Hits;
  expectSameResult(searchTransformations(N, D, depth2Options(4), Shared), Own,
                   "warm shared engine");
  EXPECT_GT(Shared.stats().Hits, WarmHits);
}

bool underSanitizer() {
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

TEST(SearchThreadScaling, FourThreadsNoSlowerThanOneOnMultiCore) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "SKIPPING thread-scaling wall-clock assertion: only "
                 << std::thread::hardware_concurrency()
                 << " hardware thread(s) on this runner - the 4-worker pool "
                    "is clamped to hardware size, so there is nothing to "
                    "measure. Run on a >=4-core machine to exercise this.";
  if (underSanitizer())
    GTEST_SKIP() << "SKIPPING thread-scaling wall-clock assertion under a "
                    "sanitizer: instrumentation distorts wall-clock ratios.";

  LoopNest N = matmul();
  DepSet D = analyzeDependences(N);
  auto timeIt = [&](unsigned Threads) {
    double Best = 1e300;
    for (int Rep = 0; Rep < 3; ++Rep) {
      auto T0 = std::chrono::steady_clock::now();
      SearchResult R = searchTransformations(N, D, depth2Options(Threads));
      auto T1 = std::chrono::steady_clock::now();
      EXPECT_TRUE(R.Error.empty()) << R.Error;
      Best = std::min(Best, std::chrono::duration<double>(T1 - T0).count());
    }
    return Best;
  };
  double T1 = timeIt(1);
  double T4 = timeIt(4);
  // Min-of-3 on >=4 real cores: the per-prefix work units must at the
  // very least not lose to serial (5% noise allowance).
  EXPECT_LE(T4, T1 * 1.05)
      << "4-thread depth-2 search (" << T4 << "s) is slower than 1-thread ("
      << T1 << "s)";
}

} // namespace
