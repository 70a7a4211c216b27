//===- tests/cachesim/CacheTest.cpp ----------------------------------------===//

#include "cachesim/Cache.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <random>

using namespace irlt;

namespace {

/// The reference simulator: per-set lines stamped with a global clock,
/// the least recently stamped one evicted. CacheSim keeps each set's tags
/// most recently used first instead and must agree on every access.
class ReferenceLru {
public:
  explicit ReferenceLru(const CacheConfig &C)
      : Config(C), NumSets(C.SizeBytes / (C.LineBytes * C.Associativity)),
        Lines(NumSets * C.Associativity), Fill(NumSets, 0) {}

  bool access(uint64_t Addr) {
    uint64_t LineAddr = Addr / Config.LineBytes;
    uint64_t SetIdx = LineAddr % NumSets, Tag = LineAddr / NumSets;
    ++Clock;
    Line *S = &Lines[SetIdx * Config.Associativity];
    unsigned N = Fill[SetIdx];
    for (unsigned I = 0; I < N; ++I)
      if (S[I].Tag == Tag) {
        S[I].LastUse = Clock;
        ++Hits;
        return true;
      }
    ++Misses;
    if (N < Config.Associativity) {
      S[N] = Line{Tag, Clock};
      Fill[SetIdx] = N + 1;
      return false;
    }
    unsigned Victim = 0;
    for (unsigned I = 1; I < N; ++I)
      if (S[I].LastUse < S[Victim].LastUse)
        Victim = I;
    S[Victim] = Line{Tag, Clock};
    return false;
  }

  uint64_t Hits = 0, Misses = 0;

private:
  struct Line {
    uint64_t Tag, LastUse;
  };
  CacheConfig Config;
  uint64_t NumSets;
  std::vector<Line> Lines;
  std::vector<unsigned> Fill;
  uint64_t Clock = 0;
};

/// Feeds \p Addrs to both simulators and compares every outcome.
void expectSameAsReference(const CacheConfig &C,
                           const std::vector<uint64_t> &Addrs,
                           const std::string &What) {
  CacheSim Sim(C);
  ReferenceLru Ref(C);
  for (size_t I = 0; I < Addrs.size(); ++I)
    ASSERT_EQ(Sim.access(Addrs[I]), Ref.access(Addrs[I]))
        << What << ": access " << I << " at " << Addrs[I];
  EXPECT_EQ(Sim.hits(), Ref.Hits) << What;
  EXPECT_EQ(Sim.misses(), Ref.Misses) << What;
  EXPECT_GT(Sim.hits(), 0u) << What << ": the stream should reuse lines";
  EXPECT_GT(Sim.misses(), C.SizeBytes / C.LineBytes)
      << What << ": the stream should evict";
}

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

TEST(CacheSim, AgreesWithTimestampLruOnRandomAndStridedStreams) {
  std::mt19937_64 Rng(20261019);
  for (unsigned Ways : {1u, 2u, 4u, 8u}) {
    // Power-of-two set counts take the shift path; 12 sets or 48-byte
    // lines take the division path.
    using Geometry = std::pair<uint64_t, uint64_t>; // sets, line bytes
    for (auto [Sets, LineBytes] :
         {Geometry{16, 64}, Geometry{32, 32}, Geometry{12, 64},
          Geometry{16, 48}}) {
      CacheConfig C{Sets * Ways * LineBytes, LineBytes, Ways};
      std::string What = std::to_string(Ways) + "-way, " +
                         std::to_string(Sets) + " sets of " +
                         std::to_string(LineBytes) + "-byte lines";
      uint64_t Span = 4 * C.SizeBytes;
      std::vector<uint64_t> Random;
      for (unsigned I = 0; I < 20000; ++I)
        Random.push_back(Rng() % Span + (I % 3 == 0 ? (1ull << 40) : 0));
      expectSameAsReference(C, Random, What + ", random");
      std::vector<uint64_t> Strided;
      for (uint64_t Stride : {8ull, 56ull, 200ull, 4104ull})
        for (unsigned Pass = 0; Pass < 3; ++Pass)
          for (uint64_t I = 0; I < 1500; ++I)
            Strided.push_back(Pass * 24 + I * Stride % (3 * C.SizeBytes));
      expectSameAsReference(C, Strided, What + ", strided");
    }
  }
}

} // namespace
