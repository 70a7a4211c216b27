//===- tests/support/MathUtilsTest.cpp ------------------------------------===//

#include "support/MathUtils.h"

#include <gtest/gtest.h>

using namespace irlt;

TEST(MathUtils, FloorDivRoundsTowardNegativeInfinity) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(6, 3), 2);
  EXPECT_EQ(floorDiv(-6, 3), -2);
  EXPECT_EQ(floorDiv(0, 5), 0);
}

TEST(MathUtils, CeilDivRoundsTowardPositiveInfinity) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(7, -2), -3);
  EXPECT_EQ(ceilDiv(-7, -2), 4);
  EXPECT_EQ(ceilDiv(6, 3), 2);
}

TEST(MathUtils, FloorModFollowsDivisorSign) {
  EXPECT_EQ(floorMod(7, 3), 1);
  EXPECT_EQ(floorMod(-7, 3), 2);
  EXPECT_EQ(floorMod(7, -3), -2);
  EXPECT_EQ(floorMod(-7, -3), -1);
}

TEST(MathUtils, FloorIdentity) {
  // a == floorDiv(a,b)*b + floorMod(a,b) for every sign combination.
  for (int64_t A = -20; A <= 20; ++A)
    for (int64_t B : {-7, -3, -1, 1, 2, 5})
      EXPECT_EQ(A, floorDiv(A, B) * B + floorMod(A, B)) << A << " " << B;
}

TEST(MathUtils, Gcd) {
  EXPECT_EQ(gcd(12, 18), 6);
  EXPECT_EQ(gcd(-12, 18), 6);
  EXPECT_EQ(gcd(0, 5), 5);
  EXPECT_EQ(gcd(0, 0), 0);
  EXPECT_EQ(gcd(17, 13), 1);
}

TEST(MathUtils, Sign) {
  EXPECT_EQ(sign(5), 1);
  EXPECT_EQ(sign(-5), -1);
  EXPECT_EQ(sign(0), 0);
}
