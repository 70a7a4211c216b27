//===- cgen/NativeCheck.cpp - One-call native differential check ----------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//

#include "cgen/NativeCheck.h"

#include "codegen/CEmitter.h"
#include "support/Printing.h"

#include <optional>

using namespace irlt;
using namespace irlt::cgen;

namespace {

std::string hex64(uint64_t V) {
  return formatStr("0x%016llx", static_cast<unsigned long long>(V));
}

bool allParamsBound(const LoopNest &Nest,
                    const std::map<std::string, int64_t> &B,
                    std::string &Missing) {
  for (const std::string &P : freeParameters(Nest))
    if (!B.count(P)) {
      Missing = P;
      return false;
    }
  return true;
}

} // namespace

const char *irlt::cgen::nativeCheckStatusName(NativeCheckStatus S) {
  switch (S) {
  case NativeCheckStatus::Match:
    return "match";
  case NativeCheckStatus::Mismatch:
    return "mismatch";
  case NativeCheckStatus::InterpDiverged:
    return "interp-diverged";
  case NativeCheckStatus::Unavailable:
    return "unavailable";
  case NativeCheckStatus::Skipped:
    return "skipped";
  case NativeCheckStatus::Failed:
    return "failed";
  }
  return "unknown";
}

namespace {

NativeCheckResult skipped(std::string Detail) {
  NativeCheckResult R;
  R.Status = NativeCheckStatus::Skipped;
  R.Detail = std::move(Detail);
  return R;
}

/// The checks one binding passes before it gets a program section:
/// every parameter bound, array shapes within the cell cap, and the
/// optional interpreted reference. \returns the skip that ends the
/// bindings' list, or nothing after filling \p Section and \p Interp.
std::optional<NativeCheckResult>
prepareSection(const LoopNest &Original, const LoopNest *Transformed,
               const std::map<std::string, int64_t> &Bindings,
               const NativeCheckOptions &Options, ProgramSection &Section,
               InterpChecksums &Interp) {
  std::string Missing;
  if (!allParamsBound(Original, Bindings, Missing) ||
      (Transformed && !allParamsBound(*Transformed, Bindings, Missing)))
    return skipped("unbound scalar parameter: " + Missing);

  ErrorOr<std::vector<ArrayShape>> Shapes =
      arrayShapes(Original, Bindings, Options.InterpMaxInstances);
  if (!Shapes)
    return skipped("no shapes: " + Shapes.message());
  for (const ArrayShape &S : *Shapes)
    if (S.cells() > Options.MaxCells)
      return skipped("array " + S.Name + " above the cell cap");

  // Interpreted reference first: it carries the overflow guard, so any
  // case whose arithmetic would overflow (where native wrapping and
  // interpreted saturation could diverge for reasons unrelated to the
  // transformation) is skipped before native execution.
  if (Options.CrossCheckInterpreter) {
    ProgramOptions PO;
    PO.Seed = Options.Seed;
    PO.Bindings = Bindings;
    PO.MaxCells = Options.MaxCells;
    Interp = interpretChecksums(Original, Transformed, *Shapes, PO,
                                Options.InterpMaxInstances);
    if (!Interp.Ok)
      return skipped("interpreter reference unavailable: " + Interp.Detail);
  }
  Section = {Bindings, Shapes.take()};
  return std::nullopt;
}

/// The verdict on one section's run.
NativeCheckResult classify(const NativeResult &Native,
                           const InterpChecksums &Interp,
                           const NativeCheckOptions &Options) {
  NativeCheckResult R;
  R.Native = Native;
  R.Interp = Interp;
  switch (Native.Status) {
  case NativeStatus::NoCompiler:
    R.Status = NativeCheckStatus::Unavailable;
    R.Detail = "no host C compiler";
    return R;
  case NativeStatus::CompileError:
  case NativeStatus::RunTimeout:
  case NativeStatus::RunError:
  case NativeStatus::BadOutput:
    R.Status = NativeCheckStatus::Failed;
    R.Detail =
        std::string("native run failed: ") + nativeStatusName(Native.Status);
    return R;
  case NativeStatus::Mismatch:
    R.Status = NativeCheckStatus::Mismatch;
    R.Detail = "native mismatch: original " + hex64(Native.ChecksumOriginal) +
               " vs transformed " + hex64(Native.ChecksumTransformed) +
               (Native.OobOriginal != Native.OobTransformed
                    ? " (out-of-shape access counts differ)"
                    : "");
    return R;
  case NativeStatus::Ok:
    break;
  }

  if (Options.CrossCheckInterpreter &&
      (Interp.Original != Native.ChecksumOriginal ||
       Interp.Transformed != Native.ChecksumTransformed)) {
    R.Status = NativeCheckStatus::InterpDiverged;
    R.Detail = "interpreter/native divergence: interpreted " +
               hex64(Interp.Original) + "/" + hex64(Interp.Transformed) +
               " vs native " + hex64(Native.ChecksumOriginal) + "/" +
               hex64(Native.ChecksumTransformed);
    return R;
  }

  R.Status = NativeCheckStatus::Match;
  R.Detail = "native match: checksum " + hex64(Native.ChecksumOriginal);
  return R;
}

} // namespace

std::vector<NativeCheckResult>
irlt::cgen::checkNative(const LoopNest &Original, const LoopNest *Transformed,
                        const NativeCheckOptions &Options) {
  std::string Reason = checkEmittable(Original);
  if (Reason.empty() && Transformed)
    Reason = checkEmittable(*Transformed);
  if (!Reason.empty())
    return {skipped("not emittable: " + Reason)};

  // The first binding that cannot get a section ends the list; the
  // bindings before it are compiled and run.
  std::vector<ProgramSection> Sections;
  std::vector<InterpChecksums> Interp;
  std::optional<NativeCheckResult> Stop;
  for (const auto &Bindings : Options.Bindings) {
    ProgramSection Section;
    InterpChecksums Reference;
    Stop = prepareSection(Original, Transformed, Bindings, Options, Section,
                          Reference);
    if (Stop)
      break;
    Sections.push_back(std::move(Section));
    Interp.push_back(std::move(Reference));
  }

  std::vector<NativeCheckResult> Out;
  if (!Sections.empty()) {
    ProgramOptions PO;
    PO.Seed = Options.Seed;
    PO.TimingReps = Options.TimingReps;
    PO.UseOpenMP = Options.UseOpenMP;
    PO.MaxCells = Options.MaxCells;
    ErrorOr<std::string> Program =
        emitProgram(Original, Transformed, Sections, PO);
    if (!Program)
      return {skipped("emission failed: " + Program.message())};

    NativeRunOptions RO = Options.Runner;
    RO.Sections = static_cast<unsigned>(Sections.size());
    NativeResult Run = runNative(*Program, RO);
    for (size_t I = 0; I < Run.Sections.size(); ++I) {
      Out.push_back(classify(Run.Sections[I], Interp[I], Options));
      if (Out.back().Status != NativeCheckStatus::Match)
        return Out;
    }
  }
  if (Stop)
    Out.push_back(std::move(*Stop));
  return Out;
}
