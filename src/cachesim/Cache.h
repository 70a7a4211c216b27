//===- cachesim/Cache.h - Set-associative LRU cache simulator ------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative LRU cache simulator fed by the evaluator's memory
/// traces. The paper motivates Block/Interleave by data locality but
/// reports no machine numbers; this simulator is the documented
/// substitution (DESIGN.md Section 4): it measures the miss ratio of the
/// *generated* loop nests, exercising exactly the code the framework
/// emits.
///
/// Arrays are laid out column-major (the paper's loops are Fortran-ish)
/// at disjoint base addresses with 8-byte elements.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_CACHESIM_CACHE_H
#define IRLT_CACHESIM_CACHE_H

#include "eval/Evaluator.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace irlt {

/// Geometry of a simulated cache.
struct CacheConfig {
  uint64_t SizeBytes = 32 * 1024;
  uint64_t LineBytes = 64;
  unsigned Associativity = 4;
};

/// Simple set-associative LRU cache.
class CacheSim {
public:
  explicit CacheSim(const CacheConfig &Config);

  /// Accesses one byte address; returns true on hit.
  bool access(uint64_t Addr);

  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }
  uint64_t accesses() const { return Hits + Misses; }
  double missRatio() const {
    return accesses() == 0
               ? 0.0
               : static_cast<double>(Misses) / static_cast<double>(accesses());
  }

  void reset();

private:
  CacheConfig Config;
  uint64_t NumSets;
  /// When the line size and the set count are powers of two (the usual
  /// geometry), the set/tag split is shifts and a mask.
  bool Pow2 = false;
  unsigned LineShift = 0, SetShift = 0;
  // Set S holds Fill[S] lines (tag, lastUse) at Lines[S * Associativity];
  // a linear scan is fine at these associativities.
  struct Line {
    uint64_t Tag;
    uint64_t LastUse;
  };
  std::vector<Line> Lines;
  std::vector<unsigned> Fill;
  uint64_t Clock = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Column-major layout of the arrays appearing in a trace.
class ArrayLayout {
public:
  /// Declares array extents; subscripts are assumed in [Low_d, High_d].
  /// Arrays are packed at disjoint 4KiB-aligned bases in declaration
  /// order; elements are 8 bytes.
  void declare(const std::string &Array, std::vector<int64_t> Lows,
               std::vector<int64_t> Highs);

  /// Byte address of one element. Asserts the array was declared and the
  /// subscripts are in range.
  uint64_t addressOf(const std::string &Array,
                     const std::vector<int64_t> &Subs) const;

private:
  struct Info {
    uint64_t Base;
    std::vector<int64_t> Lows;
    std::vector<int64_t> Highs;
  };
  std::map<std::string, Info> Arrays;
  uint64_t NextBase = 0;
};

/// Replays \p Accesses through a cache; returns the final miss ratio.
double replayTrace(const std::vector<MemAccess> &Accesses,
                   const ArrayLayout &Layout, const CacheConfig &Config);

} // namespace irlt

#endif // IRLT_CACHESIM_CACHE_H
