//===- bench/bench_fig5_boundsrep.cpp - Figure 5 matrix representation ---===//
//
// Experiment F5 (DESIGN.md): the LB/UB/STEP matrix representation of
// Section 4.3. Measures building the matrices from a nest and evaluating
// type() predicates against them - the machinery that lets legality
// testing avoid materializing transformed bound expressions.
//
//===----------------------------------------------------------------------===//

#include "BenchNests.h"

#include "bounds/BoundsMatrices.h"
#include "legality/IncrementalEngine.h"
#include "transform/TypeState.h"

#include "BenchMain.h"

#include <benchmark/benchmark.h>

using namespace irlt;

namespace {

LoopNest fig5Nest() {
  return bench::parseOrDie("do i = max(n, 3), 100, 2\n"
                           "  do j = 1, min(2, i + 512), 1\n"
                           "    do k = sqrt(i) / 2, 2*j, i\n"
                           "      a(i, j, k) = 1\n"
                           "    enddo\n"
                           "  enddo\n"
                           "enddo\n");
}

void BM_BuildMatrices(benchmark::State &State) {
  LoopNest N = fig5Nest();
  for (auto _ : State) {
    BoundsMatrices M = BoundsMatrices::fromNest(N);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_BuildMatrices);

void BM_BuildMatricesDeep(benchmark::State &State) {
  LoopNest N = bench::deepNest(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    BoundsMatrices M = BoundsMatrices::fromNest(N);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(BM_BuildMatricesDeep)->Arg(2)->Arg(4)->Arg(6);

void BM_TypePredicatesViaMatrices(benchmark::State &State) {
  BoundsMatrices M = BoundsMatrices::fromNest(fig5Nest());
  for (auto _ : State) {
    // All defined entries of all three matrices.
    int Acc = 0;
    for (unsigned R = 0; R < M.numLoops(); ++R)
      for (unsigned C = 1; C <= R; ++C) {
        Acc += static_cast<int>(M.lbType(R, C));
        Acc += static_cast<int>(M.ubType(R, C));
        Acc += static_cast<int>(M.stepType(R, C));
      }
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TypePredicatesViaMatrices);

void BM_TypePredicatesViaExpressions(benchmark::State &State) {
  // The baseline the matrices compete with: re-classifying the raw bound
  // expressions every time.
  LoopNest N = fig5Nest();
  for (auto _ : State) {
    int Acc = 0;
    for (unsigned R = 0; R < N.numLoops(); ++R)
      for (unsigned C = 0; C < R; ++C) {
        const std::string &Var = N.Loops[C].IndexVar;
        Acc += static_cast<int>(
            typeOfBound(N.Loops[R].Lower, Var, BoundSide::Lower, 1));
        Acc += static_cast<int>(
            typeOfBound(N.Loops[R].Upper, Var, BoundSide::Upper, 1));
        Acc += static_cast<int>(typeOf(N.Loops[R].Step, Var));
      }
    benchmark::DoNotOptimize(Acc);
  }
}
BENCHMARK(BM_TypePredicatesViaExpressions);

void BM_FastLegalityFigure7(benchmark::State &State) {
  // The whole Figure 7 pipeline's legality via type propagation, no
  // bound expressions materialized. After the first iteration these are
  // hits in the global legality engine; the Uncached series below time
  // the walks themselves.
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  TransformSequence Seq = bench::figure7Sequence();
  for (auto _ : State) {
    LegalityResult L = isLegalFast(Seq, N, D);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_FastLegalityFigure7);

void BM_FullLegalityFigure7(benchmark::State &State) {
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  TransformSequence Seq = bench::figure7Sequence();
  for (auto _ : State) {
    LegalityResult L = isLegal(Seq, N, D);
    benchmark::DoNotOptimize(L);
  }
}
BENCHMARK(BM_FullLegalityFigure7);

/// The Section 4.3 claim itself: the walk in mode \p M, computed on
/// every iteration by an engine whose cache is off.
void legalityFigure7Uncached(benchmark::State &State, legality::Mode M) {
  LoopNest N = bench::matmulNest();
  DepSet D = analyzeDependences(N);
  TransformSequence Seq = bench::figure7Sequence();
  legality::IncrementalEngine Eng(legality::EngineOptions{0, false});
  for (auto _ : State) {
    LegalityResult L = Eng.check(Seq, N, D, M);
    benchmark::DoNotOptimize(L);
  }
}

void BM_FastLegalityFigure7Uncached(benchmark::State &State) {
  legalityFigure7Uncached(State, legality::Mode::Fast);
}
BENCHMARK(BM_FastLegalityFigure7Uncached);

void BM_FullLegalityFigure7Uncached(benchmark::State &State) {
  legalityFigure7Uncached(State, legality::Mode::Full);
}
BENCHMARK(BM_FullLegalityFigure7Uncached);

void BM_MatrixRendering(benchmark::State &State) {
  BoundsMatrices M = BoundsMatrices::fromNest(fig5Nest());
  for (auto _ : State) {
    std::string S = M.str();
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_MatrixRendering);

} // namespace

IRLT_BENCHMARK_MAIN();
