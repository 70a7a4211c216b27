//===- tests/cachesim/CacheTest.cpp ----------------------------------------===//

#include "cachesim/Cache.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

using namespace irlt;

namespace {

TEST(CacheSim, ColdMissesThenHits) {
  CacheSim C(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(C.access(0));
  EXPECT_TRUE(C.access(8));   // same line
  EXPECT_TRUE(C.access(63));  // same line
  EXPECT_FALSE(C.access(64)); // next line
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(CacheSim, LruEviction) {
  // Direct-mapped-ish: 2 sets x 1 way x 64B lines = 128 B.
  CacheSim C(CacheConfig{128, 64, 1});
  EXPECT_FALSE(C.access(0));    // set 0
  EXPECT_FALSE(C.access(128));  // set 0, evicts line 0
  EXPECT_FALSE(C.access(0));    // miss again
  EXPECT_EQ(C.misses(), 3u);
}

TEST(CacheSim, AssociativityKeepsBothWays) {
  CacheSim C(CacheConfig{128, 64, 2}); // one set, two ways
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(64));
  EXPECT_TRUE(C.access(0));
  EXPECT_TRUE(C.access(64));
  // Last uses: 0@3, 64@4 -> line 0 is LRU and gets evicted by line 128.
  EXPECT_FALSE(C.access(128));
  EXPECT_FALSE(C.access(0));   // was evicted
  EXPECT_TRUE(C.access(128));  // most recent lines survive
}

TEST(CacheSim, NonPowerOfTwoSetCount) {
  // 3 sets x 3 ways x 64B lines: the set index is the line number mod 3.
  CacheSim C(CacheConfig{576, 64, 3});
  for (uint64_t Line : {0, 3, 6}) // fill set 0
    EXPECT_FALSE(C.access(Line * 64));
  EXPECT_FALSE(C.access(1 * 64)); // set 1 leaves set 0 alone
  EXPECT_TRUE(C.access(0));
  EXPECT_FALSE(C.access(9 * 64)); // set 0 again: evicts line 3, its LRU
  EXPECT_TRUE(C.access(6 * 64));
  EXPECT_FALSE(C.access(3 * 64));
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 6u);
}

TEST(CacheSim, Reset) {
  CacheSim C(CacheConfig{128, 64, 2});
  C.access(0);
  C.reset();
  EXPECT_EQ(C.accesses(), 0u);
  EXPECT_FALSE(C.access(0));
}

TEST(ArrayLayout, ColumnMajorAddresses) {
  ArrayLayout L;
  L.declare("a", {1, 1}, {10, 10});
  uint64_t Base = L.addressOf("a", {1, 1});
  // Column-major: first subscript varies fastest.
  EXPECT_EQ(L.addressOf("a", {2, 1}) - Base, 8u);
  EXPECT_EQ(L.addressOf("a", {1, 2}) - Base, 80u);
}

TEST(ArrayLayout, DisjointArrays) {
  ArrayLayout L;
  L.declare("a", {1}, {100});
  L.declare("b", {1}, {100});
  // 800 bytes each, 4KiB aligned with a guard page between.
  EXPECT_GE(L.addressOf("b", {1}), L.addressOf("a", {100}) + 4096);
}

TEST(CacheSim, StreamingVsBlockedTraceShape) {
  // Column-major matrix walked row-wise misses every access with a tiny
  // cache; walked column-wise it hits within lines.
  ErrorOr<LoopNest> RowWise =
      parseLoopNest("arrays a\ndo i = 1, 64\n  do j = 1, 64\n"
                    "    s(1) = a(j, i)\n  enddo\nenddo\n");
  ErrorOr<LoopNest> ColWise =
      parseLoopNest("arrays a\ndo i = 1, 64\n  do j = 1, 64\n"
                    "    s(1) = a(i, j)\n  enddo\nenddo\n");
  ASSERT_TRUE(static_cast<bool>(RowWise));
  ASSERT_TRUE(static_cast<bool>(ColWise));
  // Note: in "a(j, i)" the first (fastest) subscript is the inner loop j:
  // that's the friendly order; "a(i, j)" strides by 64 elements.
  (void)0;

  ArrayLayout L;
  L.declare("a", {1, 1}, {64, 64});
  L.declare("s", {1}, {1});
  CacheConfig CC{2048, 64, 2};

  EvalConfig C;
  C.RecordAccesses = true;
  ArrayStore S1, S2;
  EvalResult R1 = evaluate(*RowWise, C, S1); // friendly (unit stride)
  EvalResult R2 = evaluate(*ColWise, C, S2); // strided

  double FriendlyMiss = replayTrace(R1.Accesses, L, CC);
  double StridedMiss = replayTrace(R2.Accesses, L, CC);
  EXPECT_LT(FriendlyMiss, StridedMiss);
  EXPECT_LT(FriendlyMiss, 0.2);
  EXPECT_GT(StridedMiss, 0.4);
}

} // namespace
