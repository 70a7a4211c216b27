//===- bench/bench_search.cpp - Search engine throughput ------------------===//
//
// Experiment S1: the cost-model-guided beam search (docs/SEARCH.md) on
// the paper's nests. Measures end-to-end search latency per objective,
// the thread-scaling of the depth-2 frontier and single cost-model
// measurements, and records the winner's simulated miss ratio so
// BENCH_search.json tracks result quality alongside speed.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "search/CostModel.h"
#include "search/Search.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;
using namespace irlt::search;

namespace {

void recordResult(benchmark::State &State, const SearchResult &R) {
  State.counters["enumerated"] = static_cast<double>(R.Stats.Enumerated);
  State.counters["legal"] = static_cast<double>(R.Stats.Legal);
  if (R.Best && R.Best->MissRatio >= 0)
    State.counters["winner_miss_ratio"] = R.Best->MissRatio;
}

void BM_SearchMatmulLocality(benchmark::State &State) {
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  SearchOptions O;
  O.Obj = Objective::Locality;
  O.Depth = 1;
  SearchResult R;
  for (auto _ : State) {
    R = searchTransformations(N, D, O);
    benchmark::DoNotOptimize(R);
  }
  recordResult(State, R);
}
BENCHMARK(BM_SearchMatmulLocality)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_SearchTrapezoidLocality(benchmark::State &State) {
  LoopNest N = bench::triangularNest();
  DepSet D = analyzeDependences(N);
  SearchOptions O;
  O.Obj = Objective::Locality;
  O.Depth = 1;
  SearchResult R;
  for (auto _ : State) {
    R = searchTransformations(N, D, O);
    benchmark::DoNotOptimize(R);
  }
  recordResult(State, R);
}
BENCHMARK(BM_SearchTrapezoidLocality)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_SearchMatmulParallelism(benchmark::State &State) {
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  SearchOptions O;
  O.Obj = Objective::Parallelism;
  O.Depth = 1;
  SearchResult R;
  for (auto _ : State) {
    R = searchTransformations(N, D, O);
    benchmark::DoNotOptimize(R);
  }
  recordResult(State, R);
}
BENCHMARK(BM_SearchMatmulParallelism)->Unit(benchmark::kMillisecond)
    ->Iterations(2);

/// One fresh cost-model measurement, the unit of work a search repeats
/// per candidate: matmul interchanged, matmul strip-mined, and deep3
/// blocked in its two inner loops, each with a new model (empty memo).
void BM_CostModelMeasure(benchmark::State &State) {
  bool Deep = State.range(0) == 2;
  LoopNest N = Deep ? bench::deepNest(3) : bench::matmulNest();
  TemplateRef Steps[] = {
      makeInterchange(3, 1, 2), // interchange 2 3
      makeStripMine(3, 3, Expr::intConst(4)),
      makeBlock(3, 2, 3, {Expr::intConst(4), Expr::intConst(4)})};
  TransformSequence Seq;
  Seq.append(Steps[State.range(0)]);
  std::string Key = Seq.reduced().str();
  CostModelOptions O;
  O.Params = CostModel::defaultBindings(N);
  std::optional<double> R;
  for (auto _ : State) {
    CostModel CM(N, O);
    R = CM.missRatio(Seq, Key);
    benchmark::DoNotOptimize(R);
  }
  State.SetLabel((Deep ? "deep3 " : "matmul ") + Seq.str());
  if (R)
    State.counters["miss_ratio"] = *R;
}
BENCHMARK(BM_CostModelMeasure)->DenseRange(0, 2)
    ->Unit(benchmark::kMicrosecond);

/// Thread scaling of the expensive level: matmul at depth 2 with the
/// full default candidate space, 1 vs 4 workers. The results are
/// byte-identical by contract; only the wall time may differ.
void BM_SearchMatmulDepth2Threads(benchmark::State &State) {
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  SearchOptions O;
  O.Obj = Objective::Both;
  O.Depth = 2;
  O.Beam = 4;
  O.Threads = static_cast<unsigned>(State.range(0));
  SearchResult R;
  for (auto _ : State) {
    R = searchTransformations(N, D, O);
    benchmark::DoNotOptimize(R);
  }
  recordResult(State, R);
}
BENCHMARK(BM_SearchMatmulDepth2Threads)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

} // namespace

IRLT_BENCHMARK_MAIN();
