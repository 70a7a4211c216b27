//===- cachesim/Cache.cpp - Set-associative LRU cache simulator ----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cachesim/Cache.h"

#include "support/MathUtils.h"

#include <cassert>

using namespace irlt;

CacheSim::CacheSim(const CacheConfig &Config) : Config(Config) {
  assert(Config.LineBytes > 0 && Config.Associativity > 0 &&
         Config.SizeBytes >= Config.LineBytes * Config.Associativity &&
         "malformed cache geometry");
  NumSets = Config.SizeBytes / (Config.LineBytes * Config.Associativity);
  assert(NumSets > 0);
  auto isPow2 = [](uint64_t V) { return (V & (V - 1)) == 0; };
  Pow2 = isPow2(Config.LineBytes) && isPow2(NumSets);
  LineShift = static_cast<unsigned>(__builtin_ctzll(Config.LineBytes));
  SetShift = static_cast<unsigned>(__builtin_ctzll(NumSets));
  Tags.resize(NumSets * Config.Associativity);
  Fill.assign(NumSets, 0);
}

void CacheSim::reset() {
  Fill.assign(NumSets, 0);
  Hits = Misses = 0;
}

void ArrayLayout::declare(const std::string &Array, std::vector<int64_t> Lows,
                          std::vector<int64_t> Highs) {
  assert(Lows.size() == Highs.size() && "extent arity mismatch");
  // Extents and offsets wrap modulo 2^64, in unsigned arithmetic: a span
  // of the whole int64 range is not representable as int64.
  uint64_t Elems = 1;
  for (size_t D = 0; D < Lows.size(); ++D) {
    assert(Highs[D] >= Lows[D] && "empty array extent");
    Elems *= static_cast<uint64_t>(Highs[D]) - static_cast<uint64_t>(Lows[D]) +
             1;
  }
  Info I;
  I.Base = NextBase;
  I.Lows = std::move(Lows);
  I.Highs = std::move(Highs);
  Arrays.emplace(Array, std::move(I));
  uint64_t Bytes = Elems * 8;
  NextBase += (Bytes + 4095) / 4096 * 4096 + 4096; // 4KiB-align + guard page
}

uint64_t ArrayLayout::addressOf(const std::string &Array,
                                const std::vector<int64_t> &Subs) const {
  auto It = Arrays.find(Array);
  assert(It != Arrays.end() && "access to undeclared array");
  const Info &I = It->second;
  assert(Subs.size() == I.Lows.size() && "subscript arity mismatch");
  // Column-major: the first subscript varies fastest.
  uint64_t Offset = 0;
  uint64_t Stride = 1;
  for (size_t D = 0; D < Subs.size(); ++D) {
    assert(Subs[D] >= I.Lows[D] && Subs[D] <= I.Highs[D] &&
           "subscript out of declared range");
    Offset += (static_cast<uint64_t>(Subs[D]) -
               static_cast<uint64_t>(I.Lows[D])) *
              Stride;
    Stride *= static_cast<uint64_t>(I.Highs[D]) -
              static_cast<uint64_t>(I.Lows[D]) + 1;
  }
  return I.Base + Offset * 8;
}

double irlt::replayTrace(const std::vector<MemAccess> &Accesses,
                         const ArrayLayout &Layout,
                         const CacheConfig &Config) {
  CacheSim Sim(Config);
  for (const MemAccess &A : Accesses)
    Sim.access(Layout.addressOf(A.Array, A.Subs));
  return Sim.missRatio();
}
