//===- eval/Evaluator.h - Loop-nest interpreter ----------------------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An interpreter for loop nests: binds symbolic parameters and opaque
/// functions, enumerates the iteration space (bounds may contain min/max,
/// flooring div/mod, symbolic parameters and opaque calls), executes the
/// initialization statements and the body against an array store, and
/// records an execution trace.
///
/// The trace captures, per body execution:
///  - the *original* index tuple (values of BodyIndexVars after the init
///    statements) - the identity of the execution instance (Def. 3.3);
///  - the *loop* index tuple of the nest being run (for tile counting and
///    parallel-order checks);
///  - optionally every memory access (for the cache simulator).
///
/// This is the measurement substrate for every experiment: semantic
/// equivalence of transformed nests, dependence-order preservation,
/// tiles-with-work counts, wavefront parallelism, and cache traces.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_EVAL_EVALUATOR_H
#define IRLT_EVAL_EVALUATOR_H

#include "ir/LoopNest.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace irlt {

/// Sparse integer array storage, keyed by array name and subscript tuple.
class ArrayStore {
public:
  int64_t read(const std::string &Array,
               const std::vector<int64_t> &Subs) const;
  void write(const std::string &Array, const std::vector<int64_t> &Subs,
             int64_t Value);

  bool operator==(const ArrayStore &O) const { return Data == O.Data; }

  size_t numWrittenCells() const;

private:
  std::map<std::string, std::map<std::vector<int64_t>, int64_t>> Data;
};

/// One recorded memory access.
struct MemAccess {
  bool IsWrite;
  std::string Array;
  std::vector<int64_t> Subs;
};

/// The outcome of running a nest.
struct EvalResult {
  /// True when the run stopped early because an EvalConfig budget
  /// (MaxInstances or WallBudgetMillis) was exhausted; the trace and
  /// store are then incomplete and must not be treated as ground truth.
  bool LimitHit = false;
  /// Which budget stopped the run (empty when LimitHit is false).
  std::string LimitReason;
  /// Original-index tuples (BodyIndexVars values), in execution order.
  std::vector<std::vector<int64_t>> Instances;
  /// Loop-variable tuples of the executed nest, parallel to Instances.
  std::vector<std::vector<int64_t>> LoopTuples;
  /// Iteration-number tuples (Definition 3.3): per body execution, the
  /// 0-based ordinal of each loop within its current activation. Parallel
  /// to Instances. These are the units dependence vectors are defined in.
  std::vector<std::vector<int64_t>> OrdinalTuples;
  /// Iterations entered per loop level (LevelCounts[k] counts headers of
  /// loop k+1's body, i.e. iterations of loop k).
  std::vector<uint64_t> LevelCounts;
  /// All memory accesses in order (empty unless RecordAccesses).
  std::vector<MemAccess> Accesses;
  /// For each access, the 0-based index of the body execution (instance)
  /// it belongs to; parallel to Accesses.
  std::vector<uint64_t> AccessOwner;
};

/// User-supplied opaque function, e.g. colstr or rowidx.
using OpaqueFn = std::function<int64_t(const std::vector<int64_t> &)>;

/// Evaluator configuration and bindings.
struct EvalConfig {
  std::map<std::string, int64_t> Params;   ///< e.g. {"n", 8}
  std::map<std::string, OpaqueFn> Funcs;   ///< e.g. {"colstr", ...}
  bool RecordTrace = true;                 ///< fill Instances/LoopTuples
  bool RecordAccesses = false;             ///< fill Accesses
  bool ExecuteBody = true;                 ///< actually read/write arrays
  uint64_t MaxInstances = 50'000'000;      ///< iteration budget
  /// Wall-clock budget in milliseconds; 0 means unlimited. Checked every
  /// few hundred body executions, so a runaway nest (fuzzer input, a
  /// --verify invocation on a pathological case) stops with LimitHit
  /// instead of hanging.
  uint64_t WallBudgetMillis = 0;
};

/// Runs \p Nest against \p Store. Built-in opaque functions: sqrt (integer
/// square root), abs, sgn; arrays dispatch to the store. An unbound
/// variable, like division by zero, records on a live OverflowGuard and
/// reads as 0 (and asserts without one); an unknown call asserts. Loop
/// indices step with two's-complement wrap. When a budget in \p Config
/// is exhausted the run stops early with EvalResult::LimitHit set;
/// callers that need ground truth must check it.
EvalResult evaluate(const LoopNest &Nest, const EvalConfig &Config,
                    ArrayStore &Store);

/// Parallelism statistics of a run: distinct "time steps" when pardo
/// loops execute concurrently (projection of loop tuples onto the
/// sequential loop positions).
struct ParallelismStats {
  uint64_t Instances = 0;
  uint64_t SequentialSteps = 0;
  double AvgParallelism = 0.0;
  uint64_t MaxParallelism = 0;
};
ParallelismStats parallelismStats(const LoopNest &Nest, const EvalResult &R);

} // namespace irlt

#endif // IRLT_EVAL_EVALUATOR_H
