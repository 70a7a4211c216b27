//===- tests/transform/AutoParTest.cpp -------------------------------------===//
//
// The search-based auto-parallelizer (the Section 5/6 "automatic
// transformation system" built on the framework): found sequences must
// be legal, semantically verified, and match the expected shapes on the
// classic kernels.
//
//===----------------------------------------------------------------------===//

#include "dependence/DepAnalysis.h"
#include "eval/Verify.h"
#include "ir/Parser.h"
#include "search/AutoPar.h"
#include "transform/Templates.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

LoopNest parse(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return *N;
}

void verifyBest(const LoopNest &Nest, const AutoParResult &R,
                std::map<std::string, int64_t> Params) {
  ASSERT_TRUE(R.Best.has_value());
  ErrorOr<LoopNest> Out = applySequence(R.Best->Seq, Nest);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EvalConfig C;
  C.Params = std::move(Params);
  VerifyResult V = verifyTransformed(Nest, *Out, C);
  EXPECT_TRUE(V.Ok) << V.Problem;
}

TEST(AutoPar, FullyIndependentNestParallelizesEverything) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n    a(i, j) = i + j\n"
                     "  enddo\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(R.Best->ParallelLoops, (std::vector<unsigned>{0, 1}));
  verifyBest(N, R, {{"n", 6}});
}

TEST(AutoPar, MatmulParallelizesIJ) {
  LoopNest N = parse("arrays B, C\n"
                     "do i = 1, n\n  do j = 1, n\n    do k = 1, n\n"
                     "      A(i, j) += B(i, k) * C(k, j)\n"
                     "    enddo\n  enddo\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  // The k-reduction stays sequential; i and j run parallel (outermost).
  EXPECT_EQ(R.Best->ParallelLoops, (std::vector<unsigned>{0, 1}));
  verifyBest(N, R, {{"n", 5}});
}

TEST(AutoPar, StencilNeedsAWavefront) {
  LoopNest N = parse("do i = 2, n - 1\n  do j = 2, n - 1\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  // No signed permutation can parallelize anything...
  AutoParOptions NoWave;
  NoWave.TryWavefronts = false;
  AutoParResult RP = autoParallelize(N, D, NoWave);
  EXPECT_FALSE(RP.Best.has_value());
  // ...but the hyperplane search finds the skewed inner loop.
  AutoParResult R = autoParallelize(N, D);
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(R.Best->ParallelLoops, (std::vector<unsigned>{1}));
  verifyBest(N, R, {{"n", 9}});
}

TEST(AutoPar, FullySerialChainFindsNothing) {
  LoopNest N = parse("do i = 2, n\n  a(i) = a(i - 1) + 1\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  EXPECT_FALSE(R.Best.has_value());
  EXPECT_GT(R.Enumerated, 0u);
}

TEST(AutoPar, OuterCarriedPrefersInterchange) {
  // Dependence carried by i only; j is parallel in place, but swapping
  // brings the parallel loop outermost, which scores higher.
  LoopNest N = parse("do i = 2, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  EXPECT_EQ(R.Best->ParallelLoops, (std::vector<unsigned>{0}));
  // The winning base must be an interchange (ReversePermute), not a
  // wavefront: cheap templates win ties and outer-parallel beats inner.
  ASSERT_GE(R.Best->Seq.size(), 1u);
  EXPECT_EQ(R.Best->Seq.steps()[0]->name(), "ReversePermute");
  verifyBest(N, R, {{"n", 7}});
}

TEST(AutoPar, ThreeDeepWavefront) {
  // Classic 3-D Gauss-Seidel-like body: all three loops carry.
  LoopNest N = parse(
      "do i = 2, n\n  do j = 2, n\n    do k = 2, n\n"
      "      a(i, j, k) = a(i - 1, j, k) + a(i, j - 1, k) + a(i, j, k - 1)\n"
      "    enddo\n  enddo\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  // The hyperplane i+j+k sequentializes one loop and parallelizes two.
  EXPECT_EQ(R.Best->ParallelLoops.size(), 2u);
  verifyBest(N, R, {{"n", 5}});
}

TEST(AutoPar, SearchNeverMutatesTheNest) {
  LoopNest N = parse("do i = 2, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo\n");
  std::string Before = N.str();
  autoParallelize(N, analyzeDependences(N));
  EXPECT_EQ(N.str(), Before);
}

TEST(AutoPar, CountsAreReported) {
  LoopNest N = parse("do i = 1, n\n  do j = 1, n\n    a(i, j) = 1\n"
                     "  enddo\nenddo\n");
  AutoParResult R = autoParallelize(N, analyzeDependences(N));
  EXPECT_GT(R.Enumerated, 8u);
  EXPECT_GT(R.Legal, 0u);
  EXPECT_LE(R.Legal, R.Enumerated);
}

} // namespace
