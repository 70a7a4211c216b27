//===- cgen/NativeRunner.h - Compile-and-run execution of emitted C -------===//
//
// Part of the IRLT project: a reproduction of Sarkar & Thekkath,
// "A General Framework for Iteration-Reordering Loop Transformations"
// (PLDI 1992). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a host C compiler over a program emitted by cgen::emitProgram
/// and parses the harness's IRLT_RESULT record back into a structured
/// result. Every failure mode is a status, never a crash: no compiler,
/// compile error, run timeout, run crash, unparseable output, and the
/// harness's own mismatch verdict all come back as NativeStatus values
/// with a diagnostic Detail (docs/CODEGEN.md).
///
/// The compiler is probed as `$IRLT_CC`, then `cc`, `gcc`, `clang` (the
/// first that answers `--version`); compilation uses `-O2 -fwrapv` so
/// native arithmetic wraps deterministically, and `-fopenmp` is dropped
/// automatically when the host compiler rejects it.
///
/// Every child runs in its own process group, with its output captured
/// through a pipe; the runner wakes when the child writes or exits, and
/// kills the whole group at the timeout. In a scratch directory the
/// runner made, the compiler keeps its temporary files there too. The
/// binary starts with `OMP_WAIT_POLICY=passive` unless the caller's
/// environment sets that variable, so idle OpenMP workers sleep instead
/// of spinning.
///
//===----------------------------------------------------------------------===//

#ifndef IRLT_CGEN_NATIVERUNNER_H
#define IRLT_CGEN_NATIVERUNNER_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace irlt {
namespace cgen {

/// \returns the first working host C compiler (see file comment), or ""
/// when none answers. Not cached; callers probe once and reuse.
std::string probeCompiler();

/// How a native run ended.
enum class NativeStatus {
  Ok,           ///< compiled, ran, harness reported a match
  Mismatch,     ///< compiled, ran, harness reported checksum/image mismatch
  NoCompiler,   ///< no usable host C compiler
  CompileError, ///< the compiler rejected the emitted program
  RunTimeout,   ///< the binary exceeded the run timeout and was killed
  RunError,     ///< the binary crashed or exited with an unexpected code
  BadOutput     ///< the binary ran but printed no parseable IRLT_RESULT
};

const char *nativeStatusName(NativeStatus S);

struct NativeRunOptions {
  /// Compiler executable; empty means probe (per call).
  std::string Compiler;
  /// Pass -fopenmp (retried without it if the compiler rejects it).
  bool OpenMP = true;
  uint64_t CompileTimeoutMs = 120000;
  /// Per section: the run may take Sections times this.
  uint64_t RunTimeoutMs = 60000;
  /// IRLT_RESULT lines the program prints when every section runs
  /// (emitProgram writes one section per binding).
  unsigned Sections = 1;
  /// When set, the compile and the run are each capped at the time left
  /// before it, and a process still running then is killed with its
  /// group.
  std::optional<std::chrono::steady_clock::time_point> Deadline;
  /// Scratch directory; empty means a fresh mkdtemp under TMPDIR.
  std::string WorkDir;
  /// Keep the .c/.bin files instead of deleting them (for reproducers).
  bool KeepFiles = false;
};

/// The outcome of a run; its fields are those of the first section.
struct NativeResult {
  NativeStatus Status = NativeStatus::RunError;
  std::string Detail; ///< human-readable; compiler/runtime output excerpt
  int ExitCode = -1;  ///< harness exit code (0 match, 7 mismatch)
  bool Match = false;
  uint64_t ChecksumOriginal = 0;
  uint64_t ChecksumTransformed = 0;
  uint64_t OobOriginal = 0;
  uint64_t OobTransformed = 0;
  uint64_t NsOriginal = 0;
  uint64_t NsTransformed = 0;
  int64_t Threads = 0;
  int64_t Cells = 0;
  /// Where the program was written (empty unless KeepFiles).
  std::string SourcePath;
  /// One result per section, in order, ending at the first that is not
  /// Ok (the sections after it did not run). A run that failed before
  /// any section could (no compiler, compile error) has one entry.
  std::vector<NativeResult> Sections;
};

/// Writes \p Program to disk, compiles it, runs the binary under the
/// timeout, and parses one IRLT_RESULT line per section.
NativeResult runNative(const std::string &Program,
                       const NativeRunOptions &Options);

} // namespace cgen
} // namespace irlt

#endif // IRLT_CGEN_NATIVERUNNER_H
