//===- tests/dependence/DepAnalysisTest.cpp --------------------------------===//

#include "dependence/DepAnalysis.h"
#include "eval/Verify.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

DepSet analyze(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message();
  return analyzeDependences(*N);
}

TEST(DepAnalysis, UniformDistanceFlow) {
  // a(i) = a(i-2): flow distance 2 (and only that).
  DepSet D = analyze("do i = 3, n\n"
                     "  a(i) = a(i - 2)\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{(2)}");
}

TEST(DepAnalysis, NoDependenceOnDisjointSubscripts) {
  // ZIV: a(1) vs a(2) never alias.
  DepSet D = analyze("do i = 1, n\n"
                     "  a(1) = a(2)\n"
                     "enddo\n");
  // Only the write-write self pair on a(1) carries (+) - a(1) is written
  // every iteration.
  EXPECT_EQ(D.str(), "{(+)}");
}

TEST(DepAnalysis, GcdFilterKillsParityMismatch) {
  // a(2i) = a(2i+1): 2i == 2i'+1 has no integer solution.
  DepSet D = analyze("do i = 1, n\n"
                     "  a(2*i) = a(2*i + 1)\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{}");
}

TEST(DepAnalysis, CoupledSubscriptsStencil) {
  DepSet D = analyze("do i = 2, n - 1\n"
                     "  do j = 2, n - 1\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{(0, 1), (1, 0)}");
}

TEST(DepAnalysis, AntiDependenceFromForwardRead) {
  // Reading a(i+1) makes iteration i+1's write wait: anti distance 1.
  DepSet D = analyze("do i = 1, n - 1\n"
                     "  a(i) = a(i + 1)\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{(1)}");
}

TEST(DepAnalysis, ReductionCarriesAllOuter) {
  // Matmul: A(i, j) accumulated over k -> (0, 0, +).
  DepSet D = analyze("arrays B, C\n"
                     "do i = 1, n\n"
                     "  do j = 1, n\n"
                     "    do k = 1, n\n"
                     "      A(i, j) += B(i, k) * C(k, j)\n"
                     "    enddo\n"
                     "  enddo\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{(0, 0, +)}");
}

TEST(DepAnalysis, ScalarLikeArrayCarriesEverything) {
  // b(1) is written and read by every iteration: distances refine to
  // nothing better than (+) at the outer level.
  DepSet D = analyze("do i = 1, n\n"
                     "  b(1) = b(1) + a(i)\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{(+)}");
}

TEST(DepAnalysis, TriangularBoundsRespectRegion) {
  // In the triangle j <= i, a(i, j) = a(j, i) only self-conflicts on the
  // diagonal (j == i), which is the same instance: transposed-read pairs
  // lie outside the triangle, so no cross-iteration dependence... except
  // the diagonal write/read which is intra-instance. Expect empty.
  DepSet D = analyze("do i = 1, n\n"
                     "  do j = 1, i\n"
                     "    a(i, j) = a(j, i) + 1\n"
                     "  enddo\n"
                     "enddo\n");
  EXPECT_EQ(D.str(), "{}");
}

TEST(DepAnalysis, WithoutBoundsTriangularPairWouldAlias) {
  // Same body over the full square: (i,j) writes what (j,i) reads.
  DepSet D = analyze("do i = 1, n\n"
                     "  do j = 1, n\n"
                     "    a(i, j) = a(j, i) + 1\n"
                     "  enddo\n"
                     "enddo\n");
  EXPECT_FALSE(D.empty());
  // The flow i1=j2, j1=i2 gives d = (j1-i1, i1-j1) = (d, -d): directions.
  bool FoundSkewPair = false;
  for (const DepVector &V : D.vectors())
    if (V.str() == "(+, -)")
      FoundSkewPair = true;
  EXPECT_TRUE(FoundSkewPair) << D.str();
}

TEST(DepAnalysis, NonlinearSubscriptFallsBackConservatively) {
  DepSet D = analyze("do i = 1, n\n"
                     "  a(idx(i)) = a(i) + 1\n"
                     "enddo\n");
  // idx(i) is opaque: the analyzer must assume any forward dependence.
  EXPECT_EQ(D.str(), "{(+)}");
}

TEST(DepAnalysis, SymbolicOffsetsAnalyzeExactly) {
  // a(i + m) vs a(i): distance m unknown, but the *pairing* m apart is
  // linear in the shared symbol; direction refinement keeps both signs
  // out when bounds cannot order them - the result must cover distance m
  // for any m, i.e. direction entries.
  DepSet D = analyze("do i = 1, n\n"
                     "  a(i + m) = a(i) + 1\n"
                     "enddo\n");
  EXPECT_FALSE(D.empty());
  for (const DepVector &V : D.vectors())
    EXPECT_FALSE(V.canBeLexNegative()) << V.str();
}

TEST(DepAnalysis, MatchesGroundTruthOnConcreteRuns) {
  // The analyzer's set must cover every concretely observed dependence
  // distance (soundness against the evaluator's ground truth).
  struct Case {
    const char *Src;
    int64_t N;
  } Cases[] = {
      {"do i = 2, n - 1\n  do j = 2, n - 1\n"
       "    a(i, j) = a(i - 1, j + 1) + a(i, j - 1)\n  enddo\nenddo\n",
       8},
      {"do i = 1, n\n  do j = 1, i\n    a(i, j) = a(j, i) + 1\n"
       "  enddo\nenddo\n",
       7},
      {"do i = 3, n\n  a(i) = a(i - 2) + a(i - 3)\nenddo\n", 12},
  };
  for (const Case &Cs : Cases) {
    ErrorOr<LoopNest> N = parseLoopNest(Cs.Src);
    ASSERT_TRUE(static_cast<bool>(N)) << N.message();
    DepSet D = analyzeDependences(*N);

    EvalConfig C;
    C.Params["n"] = Cs.N;
    C.RecordAccesses = true;
    ArrayStore Store;
    EvalResult Run = evaluate(*N, C, Store);
    for (const auto &[A, B] : dependentInstancePairs(Run)) {
      std::vector<int64_t> Delta;
      // Index-value deltas: the analyzer's vectors are in value units
      // (they differ from activation ordinals in non-rectangular nests).
      for (size_t K = 0; K < Run.Instances[A].size(); ++K)
        Delta.push_back(Run.Instances[B][K] - Run.Instances[A][K]);
      bool Covered = false;
      for (const DepVector &V : D.vectors())
        if (V.containsTuple(Delta))
          Covered = true;
      EXPECT_TRUE(Covered) << Cs.Src << " misses "
                           << DepVector::distances(Delta).str() << " in "
                           << D.str();
    }
  }
}

//===--- Classic filters ---------------------------------------------------===

TEST(ClassicTests, Ziv) {
  EXPECT_TRUE(deptest::zivEqual(3, 3));
  EXPECT_FALSE(deptest::zivEqual(3, 4));
}

TEST(ClassicTests, Gcd) {
  EXPECT_TRUE(deptest::gcdFeasible({2, -2}, 4));
  EXPECT_FALSE(deptest::gcdFeasible({2, -2}, 3));
  EXPECT_TRUE(deptest::gcdFeasible({3, 6}, 9));
  EXPECT_TRUE(deptest::gcdFeasible({}, 0));
  EXPECT_FALSE(deptest::gcdFeasible({}, 1));
  EXPECT_FALSE(deptest::gcdFeasible({4, 6}, 5));
}

} // namespace
