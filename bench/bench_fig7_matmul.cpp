//===- bench/bench_fig7_matmul.cpp - Figures 6/7 + Appendix A ------------===//
//
// Experiment F6/F7 (DESIGN.md): the matrix-multiply example driven
// through the five-stage Appendix A sequence. Measures the pipeline cost
// per stage and the *effect*: simulated cache miss ratios of the naive
// vs blocked matmul (the data-locality motivation), plus the parallelism
// exposed by the pardo jic loop.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "cachesim/Cache.h"
#include "eval/Evaluator.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;

namespace {

void BM_Fig7PipelineLegalityAndCodegen(benchmark::State &State) {
  // isLegal() is the uncached walk: every iteration runs every stage.
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  TransformSequence Seq = bench::figure7Sequence();
  for (auto _ : State) {
    LegalityResult L = isLegal(Seq, N, D);
    benchmark::DoNotOptimize(L);
    ErrorOr<LoopNest> Out = applySequence(Seq, N);
    benchmark::DoNotOptimize(Out);
  }
}
BENCHMARK(BM_Fig7PipelineLegalityAndCodegen);

void BM_Fig7StagewiseDepMapping(benchmark::State &State) {
  LoopNest N = bench::matmulNest();
  DepSet D0 = analyzeDependences(N);
  TransformSequence Seq = bench::figure7Sequence();
  for (auto _ : State) {
    DepSet D = mapDependences(Seq, D0);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_Fig7StagewiseDepMapping);

/// Runs a nest and replays its trace through a small cache.
double missRatioOf(const LoopNest &Nest, const EvalConfig &Config,
                   int64_t Size) {
  EvalConfig C = Config;
  C.RecordAccesses = true;
  ArrayStore S;
  EvalResult R = evaluate(Nest, C, S);
  ArrayLayout L;
  L.declare("A", {1, 1}, {Size, Size});
  L.declare("B", {1, 1}, {Size, Size});
  L.declare("C", {1, 1}, {Size, Size});
  return replayTrace(R.Accesses, L, CacheConfig{8 * 1024, 64, 4});
}

void BM_Fig7CacheMissNaiveVsBlocked(benchmark::State &State) {
  int64_t Size = State.range(0);
  LoopNest N = bench::matmulNest();
  ErrorOr<LoopNest> Blocked = applySequence(bench::figure7Sequence(), N);
  assert(Blocked);
  EvalConfig C;
  C.Params = {{"n", Size}, {"bj", 8}, {"bk", 8}, {"bi", 8}};
  double MissNaive = 0, MissBlocked = 0;
  for (auto _ : State) {
    MissNaive = missRatioOf(N, C, Size);
    MissBlocked = missRatioOf(*Blocked, C, Size);
    benchmark::DoNotOptimize(MissNaive);
    benchmark::DoNotOptimize(MissBlocked);
  }
  State.counters["miss_naive"] = MissNaive;
  State.counters["miss_blocked"] = MissBlocked;
  State.counters["improvement"] =
      MissBlocked > 0 ? MissNaive / MissBlocked : 0.0;
}
BENCHMARK(BM_Fig7CacheMissNaiveVsBlocked)->Arg(24)->Arg(40)->Unit(
    benchmark::kMillisecond);

void BM_Fig7ParallelismOfJic(benchmark::State &State) {
  int64_t Size = State.range(0);
  LoopNest N = bench::matmulNest();
  ErrorOr<LoopNest> Out = applySequence(bench::figure7Sequence(), N);
  assert(Out);
  EvalConfig C;
  C.Params = {{"n", Size}, {"bj", 4}, {"bk", 4}, {"bi", 4}};
  double Par = 0;
  for (auto _ : State) {
    ArrayStore S;
    EvalResult R = evaluate(*Out, C, S);
    ParallelismStats P = parallelismStats(*Out, R);
    Par = P.AvgParallelism;
    benchmark::DoNotOptimize(R);
  }
  State.counters["avg_parallelism"] = Par;
}
BENCHMARK(BM_Fig7ParallelismOfJic)->Arg(16)->Unit(benchmark::kMillisecond);

} // namespace

IRLT_BENCHMARK_MAIN();
