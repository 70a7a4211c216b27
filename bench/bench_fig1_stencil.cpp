//===- bench/bench_fig1_stencil.cpp - Figure 1 end to end ----------------===//
//
// Experiment F1 (DESIGN.md): the Figure 1 stencil under skew+interchange.
// Measures (a) the full pipeline cost - analysis, legality, codegen - and
// (b) the *effect* of the transformation: the skewed nest's inner loop is
// parallelizable; we report the wavefront parallelism the evaluator
// observes, the paper's motivation for the example.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "eval/Evaluator.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;

static void BM_Fig1FullPipeline(benchmark::State &State) {
  LoopNest N = bench::stencilNest();
  for (auto _ : State) {
    DepSet D = analyzeDependences(N);
    TransformSequence Seq = bench::figure1Sequence();
    LegalityResult L = isLegal(Seq, N, D);
    benchmark::DoNotOptimize(L);
    ErrorOr<LoopNest> Out = applySequence(Seq, N);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_Fig1FullPipeline);

static void BM_Fig1LegalityOnly(benchmark::State &State) {
  // isLegal() is the uncached walk: every iteration runs every stage.
  LoopNest N = bench::stencilNest();
  DepSet D = analyzeDependences(N);
  TransformSequence Seq = bench::figure1Sequence();
  for (auto _ : State) {
    LegalityResult L = isLegal(Seq, N, D);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_Fig1LegalityOnly);

static void BM_Fig1WavefrontParallelism(benchmark::State &State) {
  // Execute original vs transformed+parallelized; report avg parallelism.
  int64_t Size = State.range(0);
  LoopNest N = bench::stencilNest();
  TransformSequence Seq = bench::figure1Sequence().composedWith(
      TransformSequence::of({makeParallelize(2, {false, true})}));
  ErrorOr<LoopNest> Out = applySequence(Seq, N);
  assert(Out);
  EvalConfig C;
  C.Params["n"] = Size;
  double Par = 0;
  uint64_t Steps = 0;
  for (auto _ : State) {
    ArrayStore S;
    EvalResult R = evaluate(*Out, C, S);
    ParallelismStats P = parallelismStats(*Out, R);
    Par = P.AvgParallelism;
    Steps = P.SequentialSteps;
    benchmark::DoNotOptimize(R);
  }
  State.counters["avg_parallelism"] = Par;
  State.counters["seq_steps"] = static_cast<double>(Steps);
  State.counters["orig_seq_steps"] =
      static_cast<double>((Size - 2) * (Size - 2)); // fully sequential
}
BENCHMARK(BM_Fig1WavefrontParallelism)->Arg(16)->Arg(64)->Arg(128);

static void BM_Fig1ExecuteOriginal(benchmark::State &State) {
  int64_t Size = State.range(0);
  LoopNest N = bench::stencilNest();
  EvalConfig C;
  C.Params["n"] = Size;
  for (auto _ : State) {
    ArrayStore S;
    EvalResult R = evaluate(N, C, S);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Fig1ExecuteOriginal)->Arg(64);

static void BM_Fig1ExecuteTransformed(benchmark::State &State) {
  int64_t Size = State.range(0);
  LoopNest N = bench::stencilNest();
  ErrorOr<LoopNest> Out = applySequence(bench::figure1Sequence(), N);
  assert(Out);
  EvalConfig C;
  C.Params["n"] = Size;
  for (auto _ : State) {
    ArrayStore S;
    EvalResult R = evaluate(*Out, C, S);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Fig1ExecuteTransformed)->Arg(64);

IRLT_BENCHMARK_MAIN();
