//===- support/Lru.h - Bounded LRU map with eviction accounting ----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded least-recently-used map with deterministic eviction order
/// and explicit accounting, shared by the api::Pipeline memoization
/// caches (when a capacity is configured) and the serve subsystem's
/// cache journal. Not thread-safe by itself: callers that share an
/// LruMap across threads guard it with their own mutex, exactly like the
/// plain map it replaces.
///
/// Determinism contract: given the same sequence of lookup()/insert()
/// calls, the eviction order (and therefore the set of resident entries
/// and every counter) is identical on every run and platform - recency
/// is a pure function of the call sequence, never of time. The
/// reconciliation invariants the eviction tests pin:
///
///   inserts() - evictions() == size()
///   every lookup is counted exactly once as a hit or a miss upstream
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_SUPPORT_LRU_H
#define IRLT_SUPPORT_LRU_H

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

namespace irlt {

/// Keyed map with LRU eviction once a capacity is set. Values are held
/// as shared_ptr<const V>, so an evicted entry stays valid for callers
/// still holding a reference (the Pipeline hands cache entries out this
/// way).
template <typename V> class LruMap {
public:
  /// \p Capacity 0 means unbounded (no eviction ever happens).
  explicit LruMap(size_t Capacity = 0) : Cap(Capacity) {}

  /// Returns the entry (refreshing its recency) or nullptr.
  std::shared_ptr<const V> lookup(const std::string &Key) {
    auto It = Index.find(Key);
    if (It == Index.end())
      return nullptr;
    Order.splice(Order.begin(), Order, It->second);
    return It->second->second;
  }

  /// Inserts \p Val unless \p Key is already present (in which case the
  /// existing entry is refreshed and returned, matching the insert-race
  /// semantics of the Pipeline caches). May evict the least-recently-used
  /// entry when over capacity; \p Evicted, when given, receives it.
  std::shared_ptr<const V> insert(const std::string &Key,
                                  std::shared_ptr<const V> Val,
                                  std::shared_ptr<const V> *Evicted = nullptr) {
    auto It = Index.find(Key);
    if (It != Index.end()) {
      Order.splice(Order.begin(), Order, It->second);
      return It->second->second;
    }
    Order.emplace_front(Key, std::move(Val));
    Index.emplace(Key, Order.begin());
    ++Inserts;
    if (Cap && Order.size() > Cap) {
      if (Evicted)
        *Evicted = std::move(Order.back().second);
      Index.erase(Order.back().first);
      Order.pop_back();
      ++Evictions;
    }
    return Order.front().second;
  }

  size_t size() const { return Order.size(); }
  size_t capacity() const { return Cap; }
  uint64_t inserts() const { return Inserts; }
  uint64_t evictions() const { return Evictions; }

  /// Drops every entry. The dropped entries count as evictions, so the
  /// counters stay monotonic and inserts() - evictions() == size() holds.
  void clear() {
    Evictions += Order.size();
    Order.clear();
    Index.clear();
  }

  /// Visits entries from least- to most-recently used (the order a dump
  /// wants: reloading in visit order reproduces the recency list).
  template <typename Fn> void forEachLruToMru(Fn &&F) const {
    for (auto It = Order.rbegin(); It != Order.rend(); ++It)
      F(It->first, *It->second);
  }

private:
  size_t Cap;
  /// Front = most recently used.
  std::list<std::pair<std::string, std::shared_ptr<const V>>> Order;
  std::unordered_map<std::string,
                     typename std::list<
                         std::pair<std::string, std::shared_ptr<const V>>>::
                         iterator>
      Index;
  uint64_t Inserts = 0;
  uint64_t Evictions = 0;
};

} // namespace irlt

#endif // IRLT_SUPPORT_LRU_H
