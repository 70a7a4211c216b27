//===- tests/support/LruTest.cpp - Bounded LRU map tests ------------------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "support/Lru.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace irlt;

namespace {

std::shared_ptr<const int> val(int V) {
  return std::make_shared<const int>(V);
}

/// Resident keys from least- to most-recently used.
std::vector<std::string> order(const LruMap<int> &M) {
  std::vector<std::string> Keys;
  M.forEachLruToMru([&](const std::string &K, const int &) {
    Keys.push_back(K);
  });
  return Keys;
}

} // namespace

TEST(Lru, UnboundedNeverEvicts) {
  LruMap<int> M(0);
  for (int I = 0; I < 100; ++I)
    M.insert("k" + std::to_string(I), val(I));
  EXPECT_EQ(M.size(), 100u);
  EXPECT_EQ(M.evictions(), 0u);
  EXPECT_EQ(M.inserts(), 100u);
}

TEST(Lru, EvictsLeastRecentlyUsedInAccessOrder) {
  LruMap<int> M(2);
  M.insert("a", val(1));
  M.insert("b", val(2));
  EXPECT_NE(M.lookup("a"), nullptr); // refresh: a is now MRU
  M.insert("c", val(3));             // evicts b, the LRU
  EXPECT_EQ(M.lookup("b"), nullptr);
  EXPECT_NE(M.lookup("a"), nullptr);
  EXPECT_NE(M.lookup("c"), nullptr);
  EXPECT_EQ(M.evictions(), 1u);
}

TEST(Lru, InsertOfPresentKeyRefreshesAndReturnsExisting) {
  LruMap<int> M(2);
  auto First = M.insert("a", val(1));
  M.insert("b", val(2));
  auto Again = M.insert("a", val(99)); // dedup: refresh, keep the old value
  EXPECT_EQ(Again, First);
  EXPECT_EQ(*Again, 1);
  EXPECT_EQ(M.inserts(), 2u) << "a re-insert is not a new insert";
  M.insert("c", val(3)); // b is LRU now (a was refreshed)
  EXPECT_EQ(M.lookup("b"), nullptr);
}

TEST(Lru, EvictedEntryStaysValidForHolders) {
  LruMap<int> M(1);
  auto Held = M.insert("a", val(7));
  M.insert("b", val(8)); // evicts a
  EXPECT_EQ(M.lookup("a"), nullptr);
  EXPECT_EQ(*Held, 7) << "shared_ptr keeps evicted values alive";
}

TEST(Lru, InsertHandsBackTheEvictedEntry) {
  LruMap<int> M(1);
  std::shared_ptr<const int> Evicted;
  M.insert("a", val(7), &Evicted);
  EXPECT_EQ(Evicted, nullptr) << "nothing evicted yet";
  M.insert("b", val(8), &Evicted);
  ASSERT_NE(Evicted, nullptr);
  EXPECT_EQ(*Evicted, 7);
}

TEST(Lru, ReconciliationInvariantHoldsUnderMixedTraffic) {
  LruMap<int> M(5);
  // A deterministic access mix (the serve eviction tests pin the same
  // invariant end to end through the Pipeline counters).
  for (int I = 0; I < 200; ++I) {
    M.insert("k" + std::to_string(I % 13), val(I));
    M.lookup("k" + std::to_string(I % 7));
  }
  EXPECT_EQ(M.inserts() - M.evictions(), M.size());
  EXPECT_LE(M.size(), 5u);
}

TEST(Lru, EvictionOrderIsDeterministic) {
  auto runOnce = [] {
    LruMap<int> M(3);
    for (int I = 0; I < 50; ++I) {
      M.insert("k" + std::to_string(I % 9), val(I));
      if (I % 4 == 0)
        M.lookup("k" + std::to_string(I % 5));
    }
    return order(M);
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST(Lru, ForEachVisitsLruToMru) {
  LruMap<int> M(0);
  M.insert("a", val(1));
  M.insert("b", val(2));
  M.insert("c", val(3));
  M.lookup("a"); // a becomes MRU
  std::vector<std::string> Keys = order(M);
  ASSERT_EQ(Keys.size(), 3u);
  EXPECT_EQ(Keys.front(), "b"); // LRU first
  EXPECT_EQ(Keys.back(), "a");  // MRU last
}
