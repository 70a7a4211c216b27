//===- tests/transform/UnimodularMatrixTest.cpp ----------------------------===//

#include "transform/UnimodularMatrix.h"

#include "support/MathUtils.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

TEST(UnimodularMatrix, Generators) {
  EXPECT_EQ(UnimodularMatrix::identity(3).str(),
            "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]");
  EXPECT_EQ(UnimodularMatrix::reversal(2, 1).str(), "[[1, 0], [0, -1]]");
  EXPECT_EQ(UnimodularMatrix::interchange(2, 0, 1).str(), "[[0, 1], [1, 0]]");
  EXPECT_EQ(UnimodularMatrix::skew(2, 0, 1, 1).str(), "[[1, 0], [1, 1]]");
}

TEST(UnimodularMatrix, PermutationMatrix) {
  // Output loop Perm[k] carries input loop k: perm = [2, 0, 1].
  UnimodularMatrix P = UnimodularMatrix::permutation(3, {2, 0, 1});
  std::vector<int64_t> Y = P.apply(std::vector<int64_t>{10, 20, 30});
  // y[2] = x0, y[0] = x1, y[1] = x2.
  EXPECT_EQ(Y, (std::vector<int64_t>{20, 30, 10}));
  EXPECT_TRUE(P.isUnimodular());
}

TEST(UnimodularMatrix, DeterminantBareiss) {
  EXPECT_EQ(UnimodularMatrix::identity(4).determinant(), 1);
  EXPECT_EQ(UnimodularMatrix::interchange(3, 0, 2).determinant(), -1);
  EXPECT_EQ(UnimodularMatrix::reversal(3, 1).determinant(), -1);
  EXPECT_EQ(UnimodularMatrix::skew(3, 0, 2, 7).determinant(), 1);
  UnimodularMatrix M(2, {2, 0, 0, 2});
  EXPECT_EQ(M.determinant(), 4);
  EXPECT_FALSE(M.isUnimodular());
  UnimodularMatrix Singular(2, {1, 2, 2, 4});
  EXPECT_EQ(Singular.determinant(), 0);
  // A pivot-swap case (zero on the diagonal).
  UnimodularMatrix Swap(3, {0, 1, 0, 1, 0, 0, 0, 0, 1});
  EXPECT_EQ(Swap.determinant(), -1);
}

TEST(UnimodularMatrix, Int64MinDiagonalIsNotUnimodular) {
  // det = INT64_MIN is exact; |det| is not representable.
  OverflowGuard Guard;
  UnimodularMatrix M(2, {INT64_MIN, 0, 0, 1});
  EXPECT_FALSE(M.isUnimodular());
  EXPECT_EQ(M.determinant(), INT64_MIN);
  EXPECT_FALSE(Guard.triggered());
}

TEST(UnimodularMatrix, Int64MinPivotAfterRowSwapIsNotUnimodular) {
  // The row swap negates the INT64_MIN pivot: det = 2^63 overflows, and
  // the guard records it.
  OverflowGuard Guard;
  UnimodularMatrix M(2, {0, 1, INT64_MIN, 0});
  EXPECT_FALSE(M.isUnimodular());
  EXPECT_TRUE(Guard.triggered());
}

TEST(UnimodularMatrix, InverseOfInt64MinSkewRecordsOverflow) {
  // A skew by INT64_MIN is unimodular, but its inverse needs -INT64_MIN.
  OverflowGuard Guard;
  UnimodularMatrix M = UnimodularMatrix::skew(2, 0, 1, INT64_MIN);
  ASSERT_TRUE(M.isUnimodular());
  M.inverse();
  EXPECT_TRUE(Guard.triggered());
}

TEST(UnimodularMatrix, MultiplicationComposesGenerators) {
  // Figure 1: skew then interchange = [[1, 1], [1, 0]].
  UnimodularMatrix Skew = UnimodularMatrix::skew(2, 0, 1, 1);
  UnimodularMatrix Inter = UnimodularMatrix::interchange(2, 0, 1);
  EXPECT_EQ((Inter * Skew).str(), "[[1, 1], [1, 0]]");
}

TEST(UnimodularMatrix, InverseIsExact) {
  std::vector<UnimodularMatrix> Ms = {
      UnimodularMatrix::identity(3),
      UnimodularMatrix::interchange(3, 0, 2),
      UnimodularMatrix::skew(3, 1, 2, -3),
      UnimodularMatrix(2, {1, 1, 1, 0}), // Figure 1's combined matrix
      UnimodularMatrix(3, {1, 2, 3, 0, 1, 4, 0, 0, -1}),
  };
  for (const UnimodularMatrix &M : Ms) {
    ASSERT_TRUE(M.isUnimodular()) << M.str();
    UnimodularMatrix I = M * M.inverse();
    EXPECT_EQ(I, UnimodularMatrix::identity(M.size())) << M.str();
  }
}

TEST(UnimodularMatrix, ApplyToDistanceVector) {
  UnimodularMatrix M(2, {1, 1, 1, 0});
  DepVector D = M.apply(DepVector::distances({1, 0}));
  EXPECT_EQ(D.str(), "(1, 1)");
  DepVector D2 = M.apply(DepVector::distances({0, 1}));
  EXPECT_EQ(D2.str(), "(1, 0)");
}

TEST(UnimodularMatrix, ApplyExtendedForDirections) {
  // Table 2: "appropriately extended for direction values".
  UnimodularMatrix M(2, {1, 1, 1, 0});
  DepVector D = M.apply(DepVector({DepElem::zero(), DepElem::pos()}));
  EXPECT_EQ(D.str(), "(+, 0)");
  // Skew of (+, -): first row +-: unbounded positive plus unbounded
  // negative reaches everything.
  DepVector D2 = M.apply(DepVector({DepElem::pos(), DepElem::neg()}));
  EXPECT_EQ(D2.str(), "(*, +)");
  // Reversal flips a direction exactly.
  UnimodularMatrix R = UnimodularMatrix::reversal(2, 0);
  EXPECT_EQ(R.apply(DepVector({DepElem::zeroPos(), DepElem::nonZero()})).str(),
            "(0-, +-)");
}

TEST(UnimodularMatrix, ApplyDirectionSoundness) {
  // Sampled soundness: M x for x drawn from the entries' value sets stays
  // inside the mapped vector's tuple set.
  UnimodularMatrix M(2, {2, 1, 1, 1});
  ASSERT_TRUE(M.isUnimodular());
  std::vector<DepElem> Pool = {DepElem::distance(2), DepElem::pos(),
                               DepElem::zeroNeg(), DepElem::any()};
  for (const DepElem &A : Pool)
    for (const DepElem &B : Pool) {
      DepVector In({A, B});
      DepVector Out = M.apply(In);
      for (int64_t VA : A.valuesWithin(3))
        for (int64_t VB : B.valuesWithin(3)) {
          std::vector<int64_t> Y = M.apply(std::vector<int64_t>{VA, VB});
          EXPECT_TRUE(Out.containsTuple(Y))
              << In.str() << " -> " << Out.str() << " misses (" << Y[0]
              << ", " << Y[1] << ")";
        }
    }
}

TEST(UnimodularMatrix, RowIsUnit) {
  UnimodularMatrix M = UnimodularMatrix::skew(3, 0, 2, 5);
  EXPECT_TRUE(M.rowIsUnit(0, 0));
  EXPECT_TRUE(M.rowIsUnit(1, 1));
  EXPECT_FALSE(M.rowIsUnit(2, 2));
  EXPECT_FALSE(M.rowIsUnit(0, 1));
}

} // namespace
