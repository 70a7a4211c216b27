//===- bench/bench_native.cpp - Measured native wall-clock ----------------===//
//
// Experiment N1: the first *honest* speedup numbers in the suite - the
// emitted differential harness (docs/CODEGEN.md) compiled with the host
// C compiler and timed on real hardware, instead of the cache-model
// proxy costs every other benchmark reports. Scenarios:
//
//   - matmul loop interchange (i-j-k -> i-k-j): wall-clock ratio of the
//     transformed kernel over the original, plus the harness verdict;
//   - blocked matmul (Table 4's template) at the same size;
//   - pardo scaling: a parallelized nest run under OMP_NUM_THREADS in
//     {1, 2, 4, 8}, reporting per-thread-count wall-clock;
//   - native-vs-interpreter: the same kernel timed compiled and under
//     the bounded interpreter, pinning the execution-budget split that
//     docs/LEGALITY.md's validation ladder is built on;
//   - native validation: the wall-clock time of one validateLadder of
//     the request benchmark's set-up candidate under nativeDefaults(),
//     compiler probe, compile and harness run included.
//
// Machines without a host C compiler report native_available=0 for
// every scenario and exit 0, so BENCH_native.json is always written but
// never silently fabricated (run_all.sh aborts on real failures).
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "cgen/Cgen.h"
#include "cgen/NativeRunner.h"
#include "driver/Script.h"
#include "eval/Evaluator.h"
#include "witness/Validate.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>

using namespace irlt;

namespace {

const std::string &hostCompiler() {
  static const std::string CC = cgen::probeCompiler();
  return CC;
}

/// Emits the (original, script-transformed) pair and runs it natively
/// with the given timing repetitions. Returns Status != Ok on any
/// infrastructure problem; the caller reports counters from the result.
cgen::NativeResult runPair(const LoopNest &Nest, const std::string &Script,
                           const std::map<std::string, int64_t> &Bindings,
                           unsigned Reps, bool OpenMP) {
  cgen::NativeResult Bad;
  ErrorOr<TransformSequence> Seq =
      parseTransformScript(Script, Nest.numLoops());
  if (!Seq)
    return Bad;
  ErrorOr<LoopNest> Out = applySequence(*Seq, Nest);
  if (!Out)
    return Bad;
  cgen::ProgramOptions PO;
  PO.Bindings = Bindings;
  PO.TimingReps = Reps;
  PO.UseOpenMP = OpenMP;
  ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
      cgen::arrayShapes(Nest, Bindings, 1u << 22);
  if (!Shapes)
    return Bad;
  ErrorOr<std::string> Program = cgen::emitProgram(Nest, &*Out, *Shapes, PO);
  if (!Program)
    return Bad;
  cgen::NativeRunOptions RO;
  RO.Compiler = hostCompiler();
  RO.OpenMP = OpenMP;
  return cgen::runNative(*Program, RO);
}

void reportNative(benchmark::State &State, const cgen::NativeResult &R) {
  State.counters["native_available"] = 1;
  State.counters["match"] = R.Match ? 1 : 0;
  State.counters["ns_original"] = static_cast<double>(R.NsOriginal);
  State.counters["ns_transformed"] = static_cast<double>(R.NsTransformed);
  State.counters["wallclock_ratio"] =
      R.NsTransformed > 0 ? static_cast<double>(R.NsOriginal) /
                                static_cast<double>(R.NsTransformed)
                          : 0;
}

bool skipWithoutCompiler(benchmark::State &State) {
  if (!hostCompiler().empty())
    return false;
  for (auto _ : State) {
  }
  State.counters["native_available"] = 0;
  return true;
}

/// Matmul i-j-k vs i-k-j: the interchange moves the stride-n C(k, j)
/// access off the innermost loop, the textbook locality win.
void BM_NativeMatmulInterchange(benchmark::State &State) {
  if (skipWithoutCompiler(State))
    return;
  int64_t N = State.range(0);
  cgen::NativeResult R = runPair(bench::matmulNest(), "interchange 2 3",
                                 {{"n", N}}, /*Reps=*/3, /*OpenMP=*/false);
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.ExitCode);
  }
  reportNative(State, R);
}
BENCHMARK(BM_NativeMatmulInterchange)->Arg(192)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// Table 4's blocked matmul at the same size, against the untransformed
/// original.
void BM_NativeMatmulBlocked(benchmark::State &State) {
  if (skipWithoutCompiler(State))
    return;
  int64_t N = State.range(0);
  cgen::NativeResult R = runPair(bench::matmulNest(), "block 1 3 16 16 16",
                                 {{"n", N}}, /*Reps=*/3, /*OpenMP=*/false);
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.ExitCode);
  }
  reportNative(State, R);
}
BENCHMARK(BM_NativeMatmulBlocked)->Arg(192)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// Parallelize 1 turns the outer matmul loop into a pardo, emitted as
/// `#pragma omp parallel for`; sweep OMP_NUM_THREADS and report the
/// transformed kernel's wall-clock per thread count.
void BM_NativePardoScaling(benchmark::State &State) {
  if (skipWithoutCompiler(State))
    return;
  int64_t Threads = State.range(0);
  ::setenv("OMP_NUM_THREADS", std::to_string(Threads).c_str(), 1);
  cgen::NativeResult R = runPair(bench::matmulNest(), "parallelize 1",
                                 {{"n", 192}}, /*Reps=*/3, /*OpenMP=*/true);
  ::unsetenv("OMP_NUM_THREADS");
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.ExitCode);
  }
  reportNative(State, R);
  State.counters["omp_threads"] = static_cast<double>(R.Threads);
}
BENCHMARK(BM_NativePardoScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// The execution-budget split behind docs/LEGALITY.md: the same matmul
/// at a validation-sized binding, once under the bounded interpreter
/// and once compiled. The ratio is why the native tier can afford
/// bindings ~20x larger than the interpreted defaults.
void BM_NativeVsInterpreter(benchmark::State &State) {
  if (skipWithoutCompiler(State))
    return;
  int64_t N = State.range(0);
  std::map<std::string, int64_t> Bindings{{"n", N}};
  LoopNest Nest = bench::matmulNest();

  auto Start = std::chrono::steady_clock::now();
  ErrorOr<std::vector<cgen::ArrayShape>> Shapes =
      cgen::arrayShapes(Nest, Bindings, 1u << 22);
  cgen::ProgramOptions PO;
  PO.Bindings = Bindings;
  cgen::InterpChecksums IC =
      cgen::interpretChecksums(Nest, nullptr, *Shapes, PO, 1ull << 32);
  double InterpNs = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());

  cgen::NativeResult R =
      runPair(Nest, "", Bindings, /*Reps=*/3, /*OpenMP=*/false);
  for (auto _ : State) {
    benchmark::DoNotOptimize(R.ExitCode);
  }
  reportNative(State, R);
  State.counters["interp_ok"] = IC.Ok ? 1 : 0;
  State.counters["ns_interpreted"] = InterpNs;
  State.counters["interp_over_native"] =
      R.NsOriginal > 0 ? InterpNs / static_cast<double>(R.NsOriginal) : 0;
}
BENCHMARK(BM_NativeVsInterpreter)->Arg(96)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

/// The native tier as a request meets it: the triangular nest's set-up
/// candidate (perfbench's auto-search set-up request picks it) through
/// one validateLadder under nativeDefaults(), timed by wall clock since
/// the compiler and the harness run in child processes.
void BM_ValidateNativeCandidate(benchmark::State &State) {
  if (skipWithoutCompiler(State))
    return;
  LoopNest Nest = bench::triangularNest();
  // Block(n=2, i=1, j=2, bsize=[16 16]), Parallelize(parflag=[1 1 1 1]).
  ErrorOr<TransformSequence> Seq = parseTransformScript(
      "block 1 2 16 16\nparallelize 1 2 3 4", Nest.numLoops());
  if (!Seq) {
    State.SkipWithError(Seq.message().c_str());
    return;
  }
  witness::ValidateOptions Opts = witness::ValidateOptions::nativeDefaults();
  Opts.ReproDir.clear();
  bool Confirmed = true;
  for (auto _ : State) {
    witness::LadderResult R = witness::validateLadder(Nest, {*Seq}, Opts);
    benchmark::DoNotOptimize(R.Chosen);
    Confirmed = Confirmed && R.Chosen == 0 &&
                R.Outcomes[0].Detail.find("native-confirmed") !=
                    std::string::npos;
  }
  State.counters["native_available"] = 1;
  State.counters["native_confirmed"] = Confirmed ? 1 : 0;
}
BENCHMARK(BM_ValidateNativeCandidate)
    ->Unit(benchmark::kMillisecond)->UseRealTime()->Iterations(8);

} // namespace

IRLT_BENCHMARK_MAIN()
