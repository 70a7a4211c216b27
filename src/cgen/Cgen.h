//===- cgen/Cgen.h - Native differential program emission -----------------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers a (original, transformed) nest pair into one standalone C
/// translation unit with a deterministic differential harness
/// (docs/CODEGEN.md):
///
///  - array storage is dense flat int64 buffers sized by *shape
///    inference* (interval analysis over the loop bounds, falling back
///    to an interpreter probe when a bound or subscript is not
///    interval-evaluable), with bounds-checked access macros that
///    redirect out-of-shape accesses to a sink cell and count them -
///    an incorrect transformation can never scribble outside a buffer;
///  - both kernels are emitted with codegen/CEmitter.h (`pardo` loops
///    become `#pragma omp parallel for`);
///  - `main` seeds every buffer from splitmix64 over (seed, array,
///    cell), runs original then transformed from identical images, and
///    compares an FNV-1a checksum plus the full memory image;
///  - the verdict is printed as one machine-readable `IRLT_RESULT`
///    JSON line and doubles as the exit status (0 match, 7 mismatch).
///
/// The same seeding and checksum are reimplemented here over the
/// interpreter's ArrayStore, so the fuzzer can cross-check interpreted
/// and native execution cell-for-cell (interpretChecksums).
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_CGEN_CGEN_H
#define IRLT_CGEN_CGEN_H

#include "ir/LoopNest.h"
#include "support/ErrorOr.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace irlt {
namespace cgen {

/// Dense storage shape of one array: per-dimension inclusive lower
/// bounds and extents (>= 1), row-major.
struct ArrayShape {
  std::string Name;
  std::vector<int64_t> Lower;
  std::vector<int64_t> Extent;

  uint64_t cells() const {
    uint64_t N = 1;
    for (int64_t E : Extent)
      N *= static_cast<uint64_t>(E);
    return N;
  }
};

/// Infers shapes by interval analysis: every loop variable is bounded by
/// the hull of its lower/upper bound intervals, and every subscript is
/// interval-evaluated under those bounds. Sound over-approximation;
/// fails when a bound or subscript contains an opaque call or a
/// divisor interval straddling zero.
ErrorOr<std::vector<ArrayShape>> inferShapes(
    const LoopNest &Nest, const std::map<std::string, int64_t> &Bindings);

/// Infers shapes by running the interpreter with access recording and
/// taking per-dimension min/max. Exact, but costs one interpreted run.
ErrorOr<std::vector<ArrayShape>> probeShapes(
    const LoopNest &Nest, const std::map<std::string, int64_t> &Bindings,
    uint64_t MaxInstances);

/// The production entry: interval analysis first, interpreter probe as
/// the fallback (docs/CODEGEN.md).
ErrorOr<std::vector<ArrayShape>> arrayShapes(
    const LoopNest &Nest, const std::map<std::string, int64_t> &Bindings,
    uint64_t ProbeMaxInstances);

/// Options for emitProgram.
struct ProgramOptions {
  /// Seed of the deterministic array images; the same (seed, array,
  /// cell) triple yields the same value in C and in the interpreter.
  uint64_t Seed = 42;
  /// Values for every free scalar parameter of both nests.
  std::map<std::string, int64_t> Bindings;
  /// Timing repetitions in the harness (0 = correctness only); the
  /// reported time per kernel is the minimum over the repetitions,
  /// each from a freshly seeded image.
  unsigned TimingReps = 0;
  /// Emit `#pragma omp parallel for` on pardo loops.
  bool UseOpenMP = true;
  /// Per-array cell cap; emission fails above it (the harness uses
  /// static buffers).
  uint64_t MaxCells = 1ull << 23;
};

/// \returns an empty string when the nest can be lowered to C, else the
/// reason (an opaque call other than sqrt/abs/sgn, no loops, ...).
std::string checkEmittable(const LoopNest &Nest);

/// Emits the standalone differential translation unit. \p Transformed
/// may be null (single-kernel harness: the transformed side is skipped
/// and the verdict is trivially a match). \p Shapes must cover every
/// access of both nests under \p Bindings - use arrayShapes on the
/// *original* nest (a correct transformation touches the same cells;
/// an incorrect one is caught by the harness's bounds-checked macros).
ErrorOr<std::string> emitProgram(const LoopNest &Original,
                                 const LoopNest *Transformed,
                                 const std::vector<ArrayShape> &Shapes,
                                 const ProgramOptions &Options);

/// One binding of a multi-binding program, with the array shapes under
/// it (arrayShapes of the original nest at that binding).
struct ProgramSection {
  std::map<std::string, int64_t> Bindings;
  std::vector<ArrayShape> Shapes;
};

/// Emits one translation unit that checks the pair under every section
/// in order, so a list of bindings costs one compile and one run. Each
/// section is the program the form above writes for its binding, with
/// its symbols prefixed (`b0_`, `b1_`, ...); it prints its own
/// IRLT_RESULT line, and the first section that does not match ends the
/// run with its exit status. One section writes exactly the form
/// above's program (Options.Bindings is not read here).
ErrorOr<std::string> emitProgram(const LoopNest &Original,
                                 const LoopNest *Transformed,
                                 const std::vector<ProgramSection> &Sections,
                                 const ProgramOptions &Options);

/// The deterministic initial value of flat cell \p Flat of array number
/// \p ArrayIdx (position in the name-sorted shape list) under \p Seed.
/// Values stay in [-63, 63] so generated bodies cannot overflow int64
/// within any realistic iteration count.
int64_t seededCell(uint64_t Seed, uint64_t ArrayIdx, uint64_t Flat);

/// Interpreted twin of the harness: seeds an ArrayStore from the same
/// (seed, array, cell) stream, evaluates the nest(s), and returns the
/// same FNV-1a checksum the native binary prints.
struct InterpChecksums {
  bool Ok = false;
  bool Overflow = false;       ///< arithmetic saturated; no verdict
  bool BudgetExceeded = false; ///< instance budget ran out; no verdict
  std::string Detail;
  uint64_t Original = 0;
  uint64_t Transformed = 0; ///< == Original when Transformed was null
};
InterpChecksums interpretChecksums(const LoopNest &Original,
                                   const LoopNest *Transformed,
                                   const std::vector<ArrayShape> &Shapes,
                                   const ProgramOptions &Options,
                                   uint64_t MaxInstances);

} // namespace cgen
} // namespace irlt

#endif // IRLT_CGEN_CGEN_H
