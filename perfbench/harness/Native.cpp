//===- perfbench/harness/Native.cpp - Native timing of produced code ------===//
//
// Part of the IRLT project (PLDI'92 iteration-reordering framework repro).
//
//===----------------------------------------------------------------------===//
//
// The speed of the code the requests pick, measured outside the timed
// region: each (original, transformed) pair is lowered by cgen into one C
// program that runs both kernels from identical memory images, compares
// the images, and times each kernel (best of several repetitions).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "api/Pipeline.h"
#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "engine/Wire.h"
#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>

using namespace irlt;

namespace perfbench {

namespace {

/// Kernel repetitions per run of a timed pair (each run reports each
/// kernel's fastest), and further runs of it. The speedup is the median
/// over runs of the per-run ratio: the machine's speed drifts by 20%
/// between runs, but both kernels of one run see the same machine.
constexpr unsigned TimingReps = 20;
constexpr unsigned ExtraRuns = 4;

struct Entry {
  std::string Name;
  LoopNest Original;
  LoopNest Transformed;
  std::map<std::string, int64_t> Bindings;
  bool Timed = false;
};

/// Re-derives the nest request \p I turned its nest into: its script, or
/// its auto winner searched again (which must be the served one).
std::optional<Entry> derive(api::Pipeline &P, const Corpus &C, uint64_t I,
                            const std::string &Record, Report &R) {
  std::string Where = "panel: request " + std::to_string(I) + ": ";
  ErrorOr<engine::BatchRequest> Req =
      engine::parseRequestLine(C.at(I).Line, I + 1);
  if (!Req) {
    R.fail(Where + Req.message());
    return std::nullopt;
  }
  ErrorOr<LoopNest> Nest = P.loadNest(Req->NestSource);
  if (!Nest) {
    R.fail(Where + Nest.message());
    return std::nullopt;
  }
  TransformSequence Seq;
  if (!Req->Auto.empty()) {
    search::SearchOptions SO;
    SO.Obj = Req->Auto == "locality" ? search::Objective::Locality
             : Req->Auto == "par"    ? search::Objective::Parallelism
                                     : search::Objective::Both;
    SO.Beam = Req->Beam;
    SO.Depth = Req->Depth;
    SO.TopK = Req->TopK;
    search::SearchResult SR = P.searchAuto(*Nest, SO);
    if (SR.Best)
      Seq = SR.Best->Seq;
    ErrorOr<json::JsonValue> V = json::JsonValue::parse(Record);
    std::string Served = V ? V->stringOr("sequence") : "";
    if (Seq.str() != Served) {
      R.fail(Where + "the winner searched again is " + Seq.str() +
             ", the served one " + Served);
      return std::nullopt;
    }
  } else {
    ErrorOr<TransformSequence> S = P.parseScript(Req->Script, Nest->numLoops());
    if (!S) {
      R.fail(Where + S.message());
      return std::nullopt;
    }
    Seq = Req->Reduce ? S->reduced() : *S;
  }
  ErrorOr<LoopNest> Out = P.apply(Seq, *Nest);
  if (!Out) {
    R.fail(Where + Out.message());
    return std::nullopt;
  }
  return Entry{"", *Nest, *Out, {}, false};
}

double ratio(uint64_t NsOriginal, uint64_t NsTransformed) {
  return static_cast<double>(NsOriginal) /
         static_cast<double>(std::max<uint64_t>(NsTransformed, 1));
}

/// Runs a kept harness binary; \returns its (original, transformed) kernel
/// times, or nothing when it fails or reports a mismatch.
std::optional<std::pair<uint64_t, uint64_t>> runKept(const std::string &Bin) {
  std::FILE *P = popen(("'" + Bin + "'").c_str(), "r");
  if (!P)
    return std::nullopt;
  std::string Out;
  char Buf[4096];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Out.append(Buf, N);
  if (pclose(P) != 0)
    return std::nullopt;
  size_t At = Out.find("IRLT_RESULT ");
  if (At == std::string::npos)
    return std::nullopt;
  size_t Eol = Out.find('\n', At);
  ErrorOr<json::JsonValue> V = json::JsonValue::parse(
      Out.substr(At + 12, Eol == std::string::npos ? Eol : Eol - At - 12));
  int64_t Orig = V ? V->intOr("ns_original", 0) : 0;
  int64_t Trans = V ? V->intOr("ns_transformed", 0) : 0;
  if (Orig <= 0 || Trans <= 0)
    return std::nullopt;
  return std::make_pair(static_cast<uint64_t>(Orig),
                        static_cast<uint64_t>(Trans));
}

} // namespace

void measurePanel(const Options &O, const Corpus &C,
                  const std::map<int, uint64_t> &FirstOfSlot,
                  const Records &Kept, unsigned Untimed, Report &R) {
  api::Pipeline P(api::PipelineOptions{false, {}, 0});
  std::vector<Entry> Entries;
  for (const auto &[Slot, I] : FirstOfSlot) {
    std::optional<Entry> E = derive(P, C, I, Kept.at(I), R);
    if (!E)
      continue;
    E->Name = C.panelNames()[Slot];
    E->Bindings = paperBindings(C.panelPaper(Slot));
    E->Timed = true;
    Entries.push_back(std::move(*E));
  }
  for (const auto &[I, Record] : Kept) {
    if (!Untimed)
      break;
    if (C.at(I).Panel >= 0 ||
        Record.find("\"mode\":\"auto\"") == std::string::npos)
      continue;
    std::optional<Entry> E = derive(P, C, I, Record, R);
    if (!E)
      continue;
    E->Name = "generated-" + std::to_string(I);
    // Generated nests bind n and m; m only ever appears as a lower bound.
    E->Bindings = {{"n", 40}, {"m", 2}};
    Entries.push_back(std::move(*E));
    --Untimed;
  }

  std::string CC = cgen::probeCompiler();
  if (CC.empty()) {
    R.fail("no host C compiler for the native panel");
    return;
  }
  struct Built {
    const Entry *E;
    std::string Bin;
    double CompileAndRunMs;
    std::vector<double> Speedups;
    std::vector<double> RunMs;
  };
  std::vector<Built> Builds;
  for (size_t K = 0; K < Entries.size(); ++K) {
    const Entry &E = Entries[K];
    ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
        cgen::arrayShapes(E.Original, E.Bindings, 1u << 22);
    if (!Shapes) {
      R.fail("panel " + E.Name + ": no array shapes: " + Shapes.message());
      continue;
    }
    cgen::ProgramOptions PO;
    PO.Bindings = E.Bindings;
    PO.TimingReps = E.Timed ? TimingReps : 0;
    PO.UseOpenMP = false;
    ErrorOr<std::string> Program =
        cgen::emitProgram(E.Original, &E.Transformed, *Shapes, PO);
    if (!Program) {
      R.fail("panel " + E.Name + ": cannot emit: " + Program.message());
      continue;
    }
    cgen::NativeRunOptions RO;
    RO.Compiler = CC;
    RO.OpenMP = false;
    RO.WorkDir = O.RunDir + "/cgen/" + std::to_string(K);
    RO.KeepFiles = true;
    std::filesystem::create_directories(RO.WorkDir);
    uint64_t T0 = nowNs();
    cgen::NativeResult NR = cgen::runNative(*Program, RO);
    double Ms = static_cast<double>(nowNs() - T0) / 1e6;
    if (NR.Status != cgen::NativeStatus::Ok || !NR.Match) {
      R.fail("panel " + E.Name + ": " + cgen::nativeStatusName(NR.Status) +
             ": " + NR.Detail);
      continue;
    }
    Builds.push_back({&E, RO.WorkDir + "/program.bin", Ms,
                      {ratio(NR.NsOriginal, NR.NsTransformed)}, {}});
  }
  // Each timed program runs ExtraRuns more times, round robin over the
  // programs, so a stretch of interference costs one run of several
  // programs rather than every run of one.
  for (unsigned Pass = 0; Pass < ExtraRuns; ++Pass)
    for (Built &B : Builds) {
      if (!B.E->Timed)
        continue;
      uint64_t T0 = nowNs();
      std::optional<std::pair<uint64_t, uint64_t>> Ns = runKept(B.Bin);
      B.RunMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);
      if (!Ns) {
        R.fail("panel " + B.E->Name + ": the kept program failed on a rerun");
        continue;
      }
      B.Speedups.push_back(ratio(Ns->first, Ns->second));
    }

  std::vector<double> LogSpeedups, CompileMs, RunMs;
  for (const Built &B : Builds) {
    if (!B.E->Timed)
      continue;
    double S = median(B.Speedups);
    LogSpeedups.push_back(std::log(S));
    Report::note("panel " + B.E->Name + ": speedup " + std::to_string(S) +
                 " (median of " + std::to_string(B.Speedups.size()) +
                 " runs)");
    double Run = median(B.RunMs);
    RunMs.push_back(Run);
    CompileMs.push_back(B.CompileAndRunMs - Run);
  }
  Report::note("panel: " + std::to_string(Builds.size()) + " of " +
               std::to_string(Entries.size()) +
               " transformed nests compiled and matched their originals");
  if (O.Trace) {
    R.metric("cgen.compile_ms", median(CompileMs), "ms");
    R.metric("cgen.run_ms", median(RunMs), "ms");
    return;
  }
  double Sum = 0;
  for (double L : LogSpeedups)
    Sum += L;
  if (LogSpeedups.empty())
    R.fail("panel: no timed entry");
  R.metric("winner_speedup",
           LogSpeedups.empty() ? 0.0
                               : std::exp(Sum / static_cast<double>(
                                                    LogSpeedups.size())),
           "x");
}

} // namespace perfbench
