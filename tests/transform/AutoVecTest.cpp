//===- tests/transform/AutoVecTest.cpp -------------------------------------===//
//
// The vector-execution objective (Section 1 lists it with parallel
// execution and locality): autoVectorize must find sequences whose
// innermost loop carries no dependence, verified by execution.
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

TEST(AutoVec, AlreadyVectorizableKeepsIdentity) {
  LoopNest N = parse("do i = 2, n\n  do j = 1, n\n"
                     "    a(i, j) = a(i - 1, j) + 1\n  enddo\nenddo\n");
  AutoParResult R = autoVectorize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  // Inner loop j is dependence-free in place: one Parallelize step only.
  EXPECT_EQ(R.Best->Seq.size(), 1u);
  EXPECT_EQ(R.Best->ParallelLoops, (std::vector<unsigned>{1}));
}

TEST(AutoVec, InnerCarriedNeedsInterchange) {
  // The dependence is carried by the inner loop; moving it outward makes
  // the (new) innermost loop vectorizable.
  LoopNest N = parse("do i = 1, n\n  do j = 2, n\n"
                     "    a(i, j) = a(i, j - 1) + 1\n  enddo\nenddo\n");
  DepSet D = analyzeDependences(N);
  EXPECT_EQ(D.str(), "{(0, 1)}");
  AutoParResult R = autoVectorize(N, D);
  ASSERT_TRUE(R.Best.has_value());
  ASSERT_GE(R.Best->Seq.size(), 2u);
  EXPECT_EQ(R.Best->Seq.steps()[0]->name(), "ReversePermute");

  ErrorOr<LoopNest> Out = applySequence(R.Best->Seq, N);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->Loops[1].Kind, LoopKind::ParDo);
  EvalConfig C;
  C.Params["n"] = 7;
  VerifyResult V = verifyTransformed(N, *Out, C);
  EXPECT_TRUE(V.Ok) << V.Problem;
}

TEST(AutoVec, StencilVectorizesViaWavefront) {
  LoopNest N = parse("do i = 2, n - 1\n  do j = 2, n - 1\n"
                     "    a(i, j) = a(i - 1, j) + a(i, j - 1)\n"
                     "  enddo\nenddo\n");
  AutoParResult R = autoVectorize(N, analyzeDependences(N));
  ASSERT_TRUE(R.Best.has_value());
  ErrorOr<LoopNest> Out = applySequence(R.Best->Seq, N);
  ASSERT_TRUE(static_cast<bool>(Out)) << Out.message();
  EXPECT_EQ(Out->Loops[Out->numLoops() - 1].Kind, LoopKind::ParDo);
  EvalConfig C;
  C.Params["n"] = 10;
  VerifyResult V = verifyTransformed(N, *Out, C);
  EXPECT_TRUE(V.Ok) << V.Problem;
}

TEST(AutoVec, SerialChainHasNoVectorForm) {
  LoopNest N = parse("do i = 3, n\n  a(i) = a(i - 1) + a(i - 2)\nenddo\n");
  AutoParResult R = autoVectorize(N, analyzeDependences(N));
  EXPECT_FALSE(R.Best.has_value());
}

} // namespace
