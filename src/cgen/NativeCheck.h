//===- cgen/NativeCheck.h - One-call native differential check ------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The orchestration layer over Cgen.h + NativeRunner.h that the
/// witness validator, the fuzzer's `--native` oracle, and the tools
/// share: shape-infer, optionally cross-check the interpreter on the
/// same seeded images, emit, compile, run, classify. A list of bindings
/// is one program with a section per binding, so it costs one compile
/// and one run. Every outcome is a NativeCheckStatus; Detail strings
/// are deterministic (no compiler logs or timings) so engine output
/// stays byte-identical across runs.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_CGEN_NATIVECHECK_H
#define IRLT_CGEN_NATIVECHECK_H

#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "ir/LoopNest.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace irlt {
namespace cgen {

enum class NativeCheckStatus {
  Match,         ///< native original == native transformed (and, when
                 ///< cross-checking, == interpreted)
  Mismatch,      ///< native original != native transformed
  InterpDiverged,///< native sides agree with each other but not with the
                 ///< interpreter: a codegen/evaluator inconsistency
  Unavailable,   ///< no host C compiler
  Skipped,       ///< case not checkable (opaque call, cell cap, interp
                 ///< overflow/budget, unbound parameter)
  Failed         ///< infrastructure failure (compile error on emitted
                 ///< code, run crash, timeout, bad output)
};

const char *nativeCheckStatusName(NativeCheckStatus S);

struct NativeCheckOptions {
  uint64_t Seed = 42;
  /// Checked in order, one program section each.
  std::vector<std::map<std::string, int64_t>> Bindings;
  unsigned TimingReps = 0;
  bool UseOpenMP = true;
  uint64_t MaxCells = 1ull << 23;
  /// Budget for the shape probe and the interpreted cross-check.
  uint64_t InterpMaxInstances = 1u << 22;
  /// Also run the interpreter on the same seeded images and require its
  /// checksums to equal the native ones (the fuzz oracle's mode).
  bool CrossCheckInterpreter = false;
  NativeRunOptions Runner;
};

struct NativeCheckResult {
  NativeCheckStatus Status = NativeCheckStatus::Skipped;
  /// Deterministic classification text (safe for engine output).
  std::string Detail;
  /// The raw runner result (Detail there may be nondeterministic).
  NativeResult Native;
  /// Interpreted checksums (only meaningful with CrossCheckInterpreter).
  InterpChecksums Interp;
};

/// Full pipeline: emittability, then shapes and the optional interpreted
/// reference per binding, then one program with a section per binding,
/// one compile, one run, and a verdict per section. \returns one result
/// per binding, in order, ending at the first that is not a Match: the
/// bindings after it are not run, as if each were checked alone and the
/// caller stopped there. \p Transformed may be null.
std::vector<NativeCheckResult> checkNative(const LoopNest &Original,
                                           const LoopNest *Transformed,
                                           const NativeCheckOptions &Options);

} // namespace cgen
} // namespace irlt

#endif // IRLT_CGEN_NATIVECHECK_H
