//===- tests/ir/NestHashTest.cpp - Canonical nest fingerprint tests -------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
// The fingerprint keys the facade's dependence cache (api/Pipeline.h),
// so the bar is asymmetric: a missed merge costs a redundant analysis
// run, but a *false* merge silently returns the wrong dependence set.
// The equality cases prove renames and term reordering merge; the
// distinctness cases - including every pairwise combination of the
// StridedSoundnessRegressionTest nests, and a coefficient merge that
// overflows - prove structurally different nests never collide.
//
//===----------------------------------------------------------------------===//

#include "ir/NestHash.h"

#include "api/Pipeline.h"
#include "ir/Parser.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

std::string keyOf(const std::string &Src) {
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  EXPECT_TRUE(static_cast<bool>(N)) << N.message() << "\n" << Src;
  return canonicalNestKey(*N);
}

} // namespace

TEST(NestHash, AlphaRenamedIndexVariablesAgree) {
  std::string A = keyOf("do i = 1, n\n"
                        "  do j = 1, i\n"
                        "    a(i, j) = a(i, j) + 1\n"
                        "  enddo\n"
                        "enddo\n");
  std::string B = keyOf("do p = 1, n\n"
                        "  do q = 1, p\n"
                        "    a(p, q) = a(p, q) + 1\n"
                        "  enddo\n"
                        "enddo\n");
  EXPECT_EQ(A, B);
}

TEST(NestHash, FreeParameterNamesStayDistinct) {
  // Parameters are runtime inputs: binding-sensitive callers (validation,
  // cost models) must not see nests over n and m merge.
  EXPECT_NE(keyOf("do i = 1, n\n  a(i) = 0\nenddo\n"),
            keyOf("do i = 1, m\n  a(i) = 0\nenddo\n"));
}

TEST(NestHash, ReorderedBoundTermsAgree) {
  std::string A = keyOf("do i = 1, n + m - 1\n"
                        "  do j = i + 1, n\n"
                        "    a(i, j) = a(i, j) + 1\n"
                        "  enddo\n"
                        "enddo\n");
  std::string B = keyOf("do i = 1, m + n - 1\n"
                        "  do j = 1 + i, n\n"
                        "    a(i, j) = a(i, j) + 1\n"
                        "  enddo\n"
                        "enddo\n");
  EXPECT_EQ(A, B);
}

TEST(NestHash, LikeTermsAndConstantsFold) {
  EXPECT_EQ(keyOf("do i = 1, 2 * n + 1 + 1\n  a(i) = 0\nenddo\n"),
            keyOf("do i = 1, n + n + 2\n  a(i) = 0\nenddo\n"));
}

TEST(NestHash, CommutativeMinMaxOperandsAgree) {
  EXPECT_EQ(keyOf("do i = 1, min(n, m)\n  a(i) = 0\nenddo\n"),
            keyOf("do i = 1, min(m, n)\n  a(i) = 0\nenddo\n"));
}

TEST(NestHash, RenamedVariableInsideMinAgrees) {
  EXPECT_EQ(keyOf("do i = 1, n\n"
                  "  do j = i, min(i + 4, n)\n"
                  "    a(i, j) = 0\n"
                  "  enddo\n"
                  "enddo\n"),
            keyOf("do x = 1, n\n"
                  "  do y = x, min(n, 4 + x)\n"
                  "    a(x, y) = 0\n"
                  "  enddo\n"
                  "enddo\n"));
}

TEST(NestHash, DifferentBoundsDiffer) {
  EXPECT_NE(keyOf("do i = 1, n\n  a(i) = 0\nenddo\n"),
            keyOf("do i = 2, n\n  a(i) = 0\nenddo\n"));
  EXPECT_NE(keyOf("do i = 1, n\n  a(i) = 0\nenddo\n"),
            keyOf("do i = 1, n, 2\n  a(i) = 0\nenddo\n"));
}

TEST(NestHash, DifferentSubscriptsDiffer) {
  EXPECT_NE(keyOf("do i = 2, n\n  a(i) = a(i - 1)\nenddo\n"),
            keyOf("do i = 2, n\n  a(i) = a(i - 2)\nenddo\n"));
}

TEST(NestHash, LoopKindDiffers) {
  EXPECT_NE(keyOf("do i = 1, n\n  a(i) = 0\nenddo\n"),
            keyOf("pardo i = 1, n\n  a(i) = 0\nenddo\n"));
}

TEST(NestHash, ParameterVersusIndexVariableDiffer) {
  // In A the subscript uses the inner index; in B a same-named free
  // parameter. Renaming must track binding structure, not spelling.
  EXPECT_NE(keyOf("do i = 1, n\n"
                  "  do j = 1, n\n"
                  "    a(i, j) = a(i, j) + 1\n"
                  "  enddo\n"
                  "enddo\n"),
            keyOf("do i = 1, n\n"
                  "  do k = 1, n\n"
                  "    a(i, j) = a(i, j) + 1\n"
                  "  enddo\n"
                  "enddo\n"));
}

TEST(NestHash, StridedRegressionNestsNeverMerge) {
  // The five pinned nests of StridedSoundnessRegressionTest: structurally
  // close (3-deep, same array, similar strides) - exactly the shapes
  // where a sloppy canonicalizer would produce a false merge, and where
  // a false merge would resurrect the soundness bug those tests pin.
  const char *Nests[] = {
      "do i = 1, n\n  do j = 1, n\n    do k = 1, n\n"
      "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
      "do i = 1, n\n  do j = i + 1, n, 2\n    do k = 1, n\n"
      "      a(i, j, k) = a(i, j, k) + a(i - 2, j, k)\n"
      "    enddo\n  enddo\nenddo\n",
      "do i = 1, n\n  do j = 1, n\n    do k = j, n, 2\n"
      "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
      "    enddo\n  enddo\nenddo\n",
      "do i = 1, n, 2\n  do j = 1, n\n    do k = 1, n\n"
      "      a(i, j, k) = a(i, j, k)\n    enddo\n  enddo\nenddo\n",
      "do i = m, n\n  do j = 1, n\n    do k = j, n, 2\n"
      "      a(i, j, k) = a(i, j, k) + a(i, j - 2, k)\n"
      "    enddo\n  enddo\nenddo\n",
  };
  constexpr size_t N = sizeof(Nests) / sizeof(Nests[0]);
  std::string Keys[N];
  for (size_t I = 0; I < N; ++I)
    Keys[I] = keyOf(Nests[I]);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = I + 1; J < N; ++J)
      EXPECT_NE(Keys[I], Keys[J]) << "nests " << I << " and " << J;
  // And each one is stable under alpha-renaming of its index variables.
  std::string Renamed = keyOf(
      "do x1 = 1, n\n  do x2 = x1 + 1, n, 2\n    do x3 = 1, n\n"
      "      a(x1, x2, x3) = a(x1, x2, x3) + a(x1 - 2, x2, x3)\n"
      "    enddo\n  enddo\nenddo\n");
  EXPECT_EQ(Keys[1], Renamed);
}

TEST(NestHash, StructuralHashIsStableAndKeyDerived) {
  std::string Src = "do i = 1, n\n  do j = 1, i\n    a(i, j) = a(i, j) + 1\n"
                    "  enddo\nenddo\n";
  ErrorOr<LoopNest> N = parseLoopNest(Src);
  ASSERT_TRUE(static_cast<bool>(N));
  EXPECT_EQ(structuralNestHash(*N), structuralNestHash(*N));
  ErrorOr<LoopNest> R = parseLoopNest(
      "do p = 1, n\n  do q = 1, p\n    a(p, q) = a(p, q) + 1\n"
      "  enddo\nenddo\n");
  ASSERT_TRUE(static_cast<bool>(R));
  EXPECT_EQ(structuralNestHash(*N), structuralNestHash(*R));
}

TEST(NestHash, CanonicalExprKeyMergesCommutativeProducts) {
  ErrorOr<LoopNest> A = parseLoopNest("do i = 1, n * m\n  a(i) = 0\nenddo\n");
  ErrorOr<LoopNest> B = parseLoopNest("do i = 1, m * n\n  a(i) = 0\nenddo\n");
  ASSERT_TRUE(static_cast<bool>(A));
  ASSERT_TRUE(static_cast<bool>(B));
  EXPECT_EQ(canonicalNestKey(*A), canonicalNestKey(*B));
}

TEST(NestHash, MergedCoefficientOverflowTripsTheGuard) {
  // i * n and n * i are separate terms of the linear form but one
  // canonical atom, so their coefficients merge in the key: 2^62 + 2^62
  // overflows, which must trip the guard like the linear form's own
  // arithmetic does, making the nest uncacheable.
  const char *Merged = "do i = 1, n\n"
                       "  c(i) = i * n * 4611686018427387904 + "
                       "n * i * 4611686018427387904\n"
                       "enddo\n";
  ErrorOr<LoopNest> N = parseLoopNest(Merged);
  ASSERT_TRUE(static_cast<bool>(N)) << N.message();
  OverflowGuard Guard;
  canonicalNestKey(*N);
  EXPECT_TRUE(Guard.triggered());
}

TEST(NestHash, MergedCoefficientOverflowNeverSharesADependenceEntry) {
  // Wrapped instead of saturated, the merged coefficient above would be
  // -2^63, and the key would equal that of a nest whose single
  // coefficient is -2^63: the second nest would be answered from the
  // first one's dependence entry.
  api::Pipeline P;
  ErrorOr<LoopNest> Merged = P.loadNest(
      "do i = 1, n\n"
      "  c(i) = i * n * 4611686018427387904 + n * i * 4611686018427387904\n"
      "enddo\n");
  ErrorOr<LoopNest> Single = P.loadNest(
      "do i = 1, n\n  c(i) = i * n * (-4611686018427387904 * 2)\nenddo\n");
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  ASSERT_TRUE(static_cast<bool>(Single)) << Single.message();
  std::shared_ptr<const DepSet> First = P.dependences(*Merged);
  std::shared_ptr<const DepSet> Second = P.dependences(*Single);
  EXPECT_NE(First.get(), Second.get());
  EXPECT_EQ(P.cacheStats().DepHits, 0u);
}
